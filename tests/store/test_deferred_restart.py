"""A restart serves from the snapshot's arrays.

After a checkpointed ``close()`` the restarted service's graphs are
deferred (``repro.graph.graph.DeferredGraph``): SSSP, BFS, CC and
PageRank run on the installed CSR snapshots and build no dict graph, so
``stats.dict_graphs_materialised`` stays 0 — on the process backend in
the coordinator and in every worker, whose shared-memory segments carry
arrays only.  The first ``update()`` builds the dicts it mutates, and
the answers stay equal to the oracles.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineConfig
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.partition.strategies import HashPartition
from repro.pie_programs.pagerank import PageRankQuery
from repro.sequential import connected_components, sssp_distances
from repro.service import GrapeService

CONFIG = EngineConfig(partition=HashPartition(), num_fragments=4)
QUERIES = (("sssp", 0), ("bfs", 0), ("cc", None),
           ("pagerank", PageRankQuery(max_iterations=6)))


def play_all(service):
    return {program: service.play(program, query, graph="g").answer
            for program, query in QUERIES}


def assert_oracle_equal(answers, graph, reference):
    """SSSP and CC against ``repro.sequential``; BFS and PageRank
    against the answers the same partition gave before the restart."""
    assert answers["sssp"] == pytest.approx(sssp_distances(graph, 0))
    want = {}
    for v, cid in connected_components(graph).items():
        want.setdefault(cid, set()).add(v)
    assert answers["cc"] == want
    assert answers["bfs"] == reference["bfs"]
    assert answers["pagerank"] == pytest.approx(reference["pagerank"])


def test_a_read_only_restart_builds_no_dict_graph(tmp_path):
    g = uniform_random_graph(80, 240, directed=False, seed=12)
    live = GrapeService(engine=CONFIG, store_dir=tmp_path)
    live.load_graph("g", g)
    reference = play_all(live)
    live.close()  # checkpoints the graph and its fragmentation

    served = GrapeService(engine=CONFIG, store_dir=tmp_path)
    try:
        answers = play_all(served)
        assert served.stats.cache_misses == 0  # the stored partition
        assert served.stats.dict_graphs_materialised == 0
        assert_oracle_equal(answers, g, reference)

        delta = GraphDelta()
        delta.insert(0, 79, 0.05)
        delta.insert(5, 500, 0.5)
        served.update("g", delta)
        # the base graph and every fragment the batch touched
        assert served.stats.dict_graphs_materialised >= 2
        mutated = served.graph("g")
        assert mutated.has_edge(79, 0) and mutated.num_nodes == 81
        g.add_edge(0, 79, weight=0.05)
        g.add_edge(5, 500, weight=0.5)
        assert mutated == g
        with GrapeService(engine=CONFIG) as fresh:  # partitions g itself
            fresh.load_graph("g", g)
            reference = play_all(fresh)
        assert_oracle_equal(play_all(served), g, reference)
    finally:
        served.close()


def test_a_fresh_partition_builds_no_snapshot_and_no_dict_graph():
    """A fresh partition serves like a restart: the partitioner installs
    each fragment's CSR snapshot under a deferred dict graph, so a cold
    service's first reads build neither.  The first ``update()`` fills
    the dicts of the fragments its batch mutates — at most one per
    fragment; this batch's edge joins two fragments, so two."""
    g = uniform_random_graph(80, 240, directed=False, seed=12)
    with GrapeService(engine=CONFIG) as service:
        service.load_graph("g", g)
        answers = play_all(service)
        assert service.stats.csr_snapshots_built == 0
        assert service.stats.dict_graphs_materialised == 0
        assert answers["sssp"] == pytest.approx(sssp_distances(g, 0))
        owner = service.fragmentation("g").gp.owner
        assert owner(0) != owner(79)
        service.update("g", GraphDelta().insert(0, 79, 0.05))
        assert service.stats.dict_graphs_materialised == 2
        g.add_edge(0, 79, weight=0.05)
        assert service.play("sssp", 0, graph="g").answer \
            == pytest.approx(sssp_distances(g, 0))


def test_a_restart_with_tombstones_serves_on_pickled_workers(
        tmp_path, monkeypatch):
    """A batch that retires mirror copies leaves tombstones in the
    checkpointed snapshots; after a restart, process workers that get
    their fragments by pickle (no shared memory) key their arrays by the
    same id table as the coordinator, so every answer assembles and
    equals the oracle."""
    from repro.runtime import shm
    from repro.runtime.executors import ProcessBackend

    live = GrapeService(engine=CONFIG, store_dir=tmp_path)
    live.load_graph("g", uniform_random_graph(60, 150, seed=5))
    live.play("sssp", 0, graph="g")  # partitions before the batch
    g = uniform_random_graph(60, 150, seed=5)  # the oracle's copy
    delta = GraphDelta()
    for u, v, _w in list(g.edges())[::3]:
        delta.delete(u, v)
        g.remove_edge(u, v)
    live.update("g", delta)
    assert any(f.csr().dead.size for f in live.fragmentation("g"))
    reference = play_all(live)
    live.close()

    monkeypatch.setattr(shm, "provider", lambda: None)  # (a private pool:
    backend = ProcessBackend()  # the shared "process" one keeps its shm)
    served = GrapeService(engine=EngineConfig(
        partition=HashPartition(), num_fragments=4, backend=backend),
        store_dir=tmp_path)
    try:
        first = served.play("sssp", 0, graph="g")
        assert first.metrics.fragments_shipped > 0  # by pickle
        assert first.metrics.shm_segments_active == 0
        assert_oracle_equal(play_all(served), g, reference)
    finally:
        served.close()
        backend.close()
