"""Warm-start acceptance: a restarted ``GrapeService(store_dir=...)``
serves answers identical to the live pre-restart service.

The PR-5 acceptance property: after N mixed update batches (insertions,
deletions, weight changes), a service restarted over the same store
serves SSSP/CC answers equal to the live service's — recovered purely
from snapshot + WAL replay, with **zero edge-list re-parsing** (proved
by ``stats.edge_lists_parsed``) and no eager re-partitioning.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.graph.io import write_edge_list
from repro.sequential import connected_components, sssp_distances
from repro.service import GrapeService

N_BATCHES = 6


def cc_buckets(g):
    buckets = {}
    for v, c in connected_components(g).items():
        buckets.setdefault(c, set()).add(v)
    return buckets


def mixed_delta(g, rng, round_no):
    """Insertions (some attaching new nodes), deletions, reweights."""
    edges = list(g.edges())
    nodes = list(g.nodes())
    delta = GraphDelta()
    delta.insert(10_000 + round_no, rng.choice(nodes), 0.3)
    u, v = rng.sample(nodes, 2)
    delta.insert(u, v, rng.uniform(0.1, 1.0))
    du, dv, _w = edges[rng.randrange(len(edges))]
    delta.delete(du, dv)
    wu, wv, ww = edges[rng.randrange(len(edges))]
    delta.set_weight(wu, wv, ww * rng.uniform(1.5, 3.0))
    return delta


def run_live(store_dir, path, rng):
    """Drive the live service: load from file, watch, apply N mixed
    batches; returns (service, watch answers, graph copy)."""
    live = GrapeService(store_dir=store_dir)
    live.load_graph_file("social", path)
    assert live.stats.edge_lists_parsed == 1
    sssp_watch = live.watch("sssp", 0, graph="social")
    cc_watch = live.watch("cc", graph="social")
    for round_no in range(N_BATCHES):
        live.update("social",
                    mixed_delta(live.graph("social"), rng, round_no))
    assert live.stats.updates_applied == N_BATCHES
    assert live.stats.wal_appends == N_BATCHES
    return (live, dict(sssp_watch.answer), cc_watch.answer,
            live.graph("social").copy())


def check_warm(warm, live_sssp, live_cc, live_graph):
    """The acceptance property: the restarted service serves answers
    identical to the live pre-restart service, with zero edge-list
    re-parsing."""
    assert warm.graphs() == ["social"]
    assert warm.stats.warm_starts == 1
    assert warm.stats.edge_lists_parsed == 0
    assert warm.graph("social") == live_graph

    warm_sssp = warm.play("sssp", 0, graph="social").answer
    warm_cc = warm.play("cc", graph="social").answer
    assert warm_sssp == pytest.approx(live_sssp)
    assert warm_cc == live_cc
    # and both equal the sequential oracles on the mutated graph
    assert warm_sssp == pytest.approx(
        sssp_distances(warm.graph("social"), 0))
    assert warm_cc == cc_buckets(warm.graph("social"))
    # a watch registered post-restart keeps maintaining correctly
    watch = warm.watch("sssp", 0, graph="social")
    warm.insert_edges("social", [(0, 20_000, 0.05)])
    assert watch.answer[20_000] == pytest.approx(0.05)


def test_graceful_restart_serves_identical_answers(tmp_path):
    """Graceful shutdown: the close-time checkpoint folded the WAL and
    the canonical fragmentation into the snapshot, so the restart
    replays nothing and re-partitions nothing."""
    g = uniform_random_graph(60, 170, directed=False, seed=21)
    path = tmp_path / "social.edges"
    write_edge_list(g, path)
    live, live_sssp, live_cc, live_graph = run_live(
        tmp_path / "store", path, random.Random(99))
    live.close()

    with GrapeService(store_dir=tmp_path / "store") as warm:
        assert warm.stats.wal_replayed == 0  # folded at shutdown
        check_warm(warm, live_sssp, live_cc, live_graph)
        # the canonical fragmentation was seeded from the store: the
        # plays above never re-partitioned
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hits > 0


def test_crash_restart_replays_wal(tmp_path):
    """Crash (no shutdown checkpoint): the restart recovers by snapshot
    + WAL replay and re-partitions lazily — same answers."""
    g = uniform_random_graph(60, 170, directed=False, seed=22)
    path = tmp_path / "social.edges"
    write_edge_list(g, path)
    live, live_sssp, live_cc, live_graph = run_live(
        tmp_path / "store", path, random.Random(17))
    live.close(flush=False)  # kill -9 shaped shutdown

    with GrapeService(store_dir=tmp_path / "store") as warm:
        assert warm.stats.wal_replayed == N_BATCHES
        check_warm(warm, live_sssp, live_cc, live_graph)


def test_restart_after_compaction(tmp_path):
    """With a tiny compaction threshold the WAL folds into fresh
    snapshots mid-stream; the restart replays only the post-compaction
    tail and still matches."""
    g = uniform_random_graph(50, 140, directed=False, seed=4)
    store_dir = tmp_path / "store"
    rng = random.Random(5)

    live = GrapeService(store_dir=store_dir, store_compact_threshold=256)
    live.load_graph("social", g)
    for round_no in range(N_BATCHES):
        live.update("social",
                    mixed_delta(live.graph("social"), rng, round_no))
    assert live.store.metrics.compactions >= 1
    assert live.stats.snapshots_written > 1
    live_graph = live.graph("social").copy()
    live_cc = live.play("cc", graph="social").answer
    live.close(flush=False)  # crash: only snapshot + WAL tail on disk

    with GrapeService(store_dir=store_dir) as warm:
        assert warm.stats.wal_replayed < N_BATCHES
        assert warm.graph("social") == live_graph
        assert warm.play("cc", graph="social").answer == live_cc


def test_debug_report_names_what_snapshots_and_compactions_cost(tmp_path):
    """The ``store`` row (always-on ``StoreMetrics`` timers) and the
    ``compact_s`` phase of the ``update`` row: a compaction inside
    ``update()`` is charged to a phase, and that phase covers the
    snapshot it wrote."""
    g = uniform_random_graph(50, 140, directed=False, seed=4)
    store_dir = tmp_path / "store"
    rng = random.Random(5)
    live = GrapeService(store_dir=store_dir, store_compact_threshold=1)
    live.load_graph("social", g)
    live.watch("cc", graph="social")
    loaded_graph = dict(live.debug_report()["layers"]["store"])
    assert loaded_graph["snapshots_written"] == 1
    for round_no in range(N_BATCHES):  # every batch compacts
        live.update("social",
                    mixed_delta(live.graph("social"), rng, round_no))
    report = live.debug_report()["layers"]
    row, update = report["store"], report["update"]
    assert row["snapshots_written"] == 1 + N_BATCHES
    assert row["snapshots_loaded"] == 0 == row["decode_s"] == row["verify_s"]
    for name in ("hash_s", "pack_s", "io_s"):
        assert row[name] > 0.0, name
    compacted = sum(
        row[name] * row["snapshots_written"] - loaded_graph[name]
        for name in ("hash_s", "pack_s", "io_s"))
    assert update["compact_s"] * N_BATCHES >= compacted > 0.0
    live.close()
    # close() detached the store; its checkpoint is still on the row
    assert (live.debug_report()["layers"]["store"]["snapshots_written"]
            == live.stats.snapshots_written >= 1 + N_BATCHES)

    with GrapeService(store_dir=store_dir) as warm:
        row = warm.debug_report()["layers"]["store"]
        assert row["snapshots_loaded"] == 1
        assert row["decode_s"] > 0.0 and row["verify_s"] > 0.0
        assert warm.stats.snapshot_verify_s == row["verify_s"]


def test_unload_removes_from_store(tmp_path):
    store_dir = tmp_path / "store"
    with GrapeService(store_dir=store_dir) as service:
        service.load_graph("a", uniform_random_graph(20, 40, seed=1))
        service.load_graph("b", uniform_random_graph(20, 40, seed=2))
        service.unload_graph("a")
    with GrapeService(store_dir=store_dir) as warm:
        assert warm.graphs() == ["b"]


def test_plain_service_has_no_store(tmp_path):
    with GrapeService() as service:
        assert service.store is None
        service.load_graph("g", uniform_random_graph(10, 20, seed=1))
        service.insert_edges("g", [(0, 1, 0.5)])
        assert service.stats.wal_appends == 0
