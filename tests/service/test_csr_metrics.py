"""Serving-layer observability of CSR snapshot reuse."""

import gc
import itertools
import random

import pytest

from repro import EngineConfig, GraphDelta
from repro.graph.generators import preferential_attachment, uniform_random_graph
from repro.partition.strategies import HashPartition
from repro.pie_programs import PageRankQuery
from repro.service import GrapeService


def make_service():
    service = GrapeService()
    service.load_graph("g", uniform_random_graph(40, 140, seed=3))
    return service


class TestServiceCSRCounters:
    def test_play_builds_snapshots_once(self):
        with make_service() as service:
            service.play("sssp", query=0, graph="g")
            built = service.stats.csr_snapshots_built
            # the partitioner installed every snapshot: none was built
            assert built == 0
            assert all(f.csr_cached for f in service.fragmentation("g"))
            # Same cached fragmentation, snapshots reused.
            service.play("sssp", query=1, graph="g")
            service.play("bfs", query=0, graph="g")
            assert service.stats.csr_snapshots_built == built
            assert service.stats.csr_snapshot_invalidations == 0

    def test_insert_edges_counts_invalidations(self):
        with make_service() as service:
            watch = service.watch("sssp", 0, graph="g")
            assert all(f.csr_cached for f in service.fragmentation("g"))
            service.insert_edges("g", [(0, 39, 0.01)])
            assert service.stats.csr_snapshot_invalidations >= 1
            assert watch.answer[39] <= 0.01

    def test_first_read_after_a_write_splices(self):
        with make_service() as service:
            service.play("sssp", query=0, graph="g")
            built = service.stats.csr_snapshots_built
            service.insert_edges("g", [(0, 39, 0.01)])
            assert service.stats.csr_snapshots_patched == 0  # lazily
            ticket = service.play("sssp", query=0, graph="g")
            assert ticket.answer[39] <= 0.01
            stats = service.stats
            assert stats.csr_snapshots_built == built
            assert stats.csr_snapshots_patched \
                == stats.csr_snapshot_invalidations >= 1
            assert (stats.border_index_builds,
                    stats.border_index_patches) == (1, 1)
            exported = service.debug_report()["metrics"]
            assert exported["repro_csr_snapshots_patched"] \
                == stats.csr_snapshots_patched
            assert exported["repro_border_index_patches"] == 1
            assert "repro_csr_snapshots_patched 1" \
                in service.expose_metrics()

    def test_counters_survive_cache_retirement(self):
        with make_service() as service:
            service.play("sssp", query=0, graph="g")
            # (tables from the sets: snapshots are installed, not built)
            built = service.stats.derived_tables_rebuilt
            assert built > 0
            service.load_graph("g", uniform_random_graph(40, 140, seed=4),
                               replace=True)
            service.play("sssp", query=0, graph="g")
            assert service.stats.derived_tables_rebuilt > built

    def test_retired_fragmentations_hold_no_arrays(self):
        """A handle on a retired fragmentation (a caller's, an old
        ticket's) must not pin its snapshots: live or waiting to be
        spliced, the ``F_i.O`` slot maps, the border index."""
        # (inline backend: on the process backend the slot maps live in
        # the workers)
        service = GrapeService(engine=EngineConfig(backend="serial"))
        service.load_graph("g", uniform_random_graph(40, 140, seed=3))
        service.play("sssp", query=0, graph="g")
        service.play("pagerank", PageRankQuery(max_iterations=3), graph="g")
        service.insert_edges("g", [(0, 39, 0.01)])  # retires snapshots
        held = service.fragmentation("g")
        assert any(frag._csr_pending is not None for frag in held)
        assert any(frag._border_table is not None for frag in held)
        assert held._border_index is not None
        patched = service.stats.border_index_patches
        service.close()
        assert held._border_index is None
        for frag in held:
            assert frag._csr is None and frag._csr_pending is None
            assert frag._border_table is None
        # ... and what it counted is still in the service's totals
        assert service.stats.csr_snapshot_invalidations >= 1
        assert service.stats.border_index_patches == patched

    def test_repr_folds_counters_in(self):
        with make_service() as service:
            service.play("cc", graph="g")
            assert "csr=" in repr(service)
            assert "csr=" in repr(service.stats)


def mixed_batch(graph, rng, ops=32):
    """A 32-op batch like the benchmark's mixed one: deletes (which
    retire mirrors), weight increases, inserts between nodes two hops
    apart (which add mirrors under a hash cut)."""
    edges = rng.sample(sorted(graph.edges()), ops)
    delta = GraphDelta()
    for u, v, _w in edges[:14]:
        delta.delete(u, v)
    for u, v, w in edges[14:24]:
        delta.set_weight(u, v, w + 1.0)
    for u, _v, _w in edges[24:]:
        far = next(x for n in graph.neighbors(u) for x in graph.neighbors(n)
                   if x != u and not graph.has_edge(u, x))
        delta.insert(u, far, rng.random())
    return delta


class TestFirstReadsKeepIds:
    """The first read after a write derives no table from Python
    objects: a splice moves no id, so the label index and the slot
    tables change only at appended ids and the nodes a batch names —
    nothing is rebuilt (``derived_tables_rebuilt`` stays)."""

    @pytest.fixture(params=[False, True], ids=["undirected", "directed"])
    def service(self, request):
        graph = preferential_attachment(400, 3, directed=request.param,
                                        seed=5)
        with GrapeService(engine=EngineConfig(
                num_workers=4, partition=HashPartition(),
                backend="serial")) as svc:
            svc.load_graph("g", graph)
            yield svc, graph

    def counters(self, svc):
        stats = svc.stats
        return (stats.csr_snapshots_built, stats.derived_tables_rebuilt)

    def test_first_reads_after_a_batch_rebuild_nothing(self, service):
        svc, graph = service
        rng = random.Random(7)
        svc.play("sssp", 0, graph="g")
        svc.play("cc", None, graph="g")
        before = self.counters(svc)
        assert before[0] == 0  # snapshots installed
        first = {f.fid: dict(zip(f.csr().node_of, itertools.count()))
                 for f in svc.fragmentation("g")}
        for program, query in (("sssp", 0), ("cc", None)) * 2:
            svc.update("g", mixed_batch(graph, rng))
            moved = svc.fragmentation("g").csr_snapshot_invalidations
            svc.play(program, query, graph="g")
            assert self.counters(svc) == before
            assert svc.stats.csr_snapshots_patched == moved
            for warm, q in (("sssp", 0), ("cc", None), ("bfs", 0)):
                svc.play(warm, q, graph="g")
            assert self.counters(svc) == before
        for frag in svc.fragmentation("g"):  # no id moved
            snap = frag.csr()
            assert all(snap.node_of[i] == v
                       for v, i in first[frag.fid].items())
        assert any(f.csr().dead.size for f in svc.fragmentation("g"))
        row = svc.debug_report()["layers"]["graph"]
        assert row == {"csr_snapshots_built": 0,
                       "csr_snapshots_patched": svc.stats.csr_snapshots_patched,
                       "derived_tables_rebuilt": before[1]}

    def test_a_first_read_leaves_nothing_to_the_cycle_collector(self,
                                                                service):
        """The carried tables are arrays (and the snapshot's one dict):
        no per-node container, no reference cycle."""
        svc, graph = service
        rng = random.Random(11)
        svc.play("sssp", 0, graph="g")
        svc.play("cc", None, graph="g")
        svc.update("g", mixed_batch(graph, rng))
        svc.play("cc", None, graph="g")
        svc.update("g", mixed_batch(graph, rng))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            svc.play("sssp", 0, graph="g")
            svc.play("cc", None, graph="g")
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
        assert leaked == []

    def test_worker_side_splices_fold_into_the_service_counters(self):
        graph = preferential_attachment(300, 3, directed=False, seed=5)
        with GrapeService(engine=EngineConfig(
                num_workers=2, num_fragments=4, partition=HashPartition(),
                backend="process")) as svc:
            svc.load_graph("g", graph)
            svc.play("sssp", 0, graph="g")
            svc.play("cc", None, graph="g")
            built, rebuilt = self.counters(svc)
            assert built == 0 and rebuilt > 0  # installed, attached
            svc.update("g", mixed_batch(graph, random.Random(3)))
            svc.play("cc", None, graph="g")
            assert self.counters(svc) == (built, rebuilt)
            assert svc.stats.csr_snapshots_patched >= 1
