"""The PR-4 acceptance property, end to end through the serving layer.

``GrapeService.update`` applies a mixed insertion+deletion batch to a
graph with active SSSP and CC watches; afterwards **every** watch answer
must equal a from-scratch computation on the mutated graph — asserted
for the serial, thread and process backends.  Since the delete-aware
bounded path landed, mixed batches are *maintained* (partial reset of
the affected region + resumed fixpoint), not recomputed; the counters
assert that.  Under the process backend the maintenance runs against
the session's live driver-side states — no worker lease, so neither
full fragments nor per-fragment deltas cross the pipe (asserted via
the ``fragments_shipped`` / ``delta_bytes_shipped`` accounting).
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineConfig
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.sequential import connected_components, sssp_distances
from repro.service import GrapeService

from .harness import BACKENDS, assert_derived_state_fresh, normalize


def cc_oracle(g):
    buckets = {}
    for v, c in connected_components(g).items():
        buckets.setdefault(c, set()).add(v)
    return buckets


def mixed_delta(g, rng_edges):
    """Insertions (one attaching a brand-new node), a weight increase,
    a weight decrease and two deletions against live edges."""
    edges = list(g.edges())
    (du, dv, _w1), (eu, ev, _w2) = edges[0], edges[len(edges) // 2]
    iu, iv, iw = edges[3]
    ju, jv, jw = edges[7]
    return (GraphDelta()
            .insert(0, 777, 0.3)
            .insert(777, 1, 0.2)
            .delete(du, dv)
            .delete(eu, ev)
            .set_weight(iu, iv, iw * 4.0)
            .set_weight(ju, jv, jw * 0.25))


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_update_with_active_watches(backend):
    g = uniform_random_graph(70, 220, directed=False, seed=42)
    with GrapeService(engine=EngineConfig(backend=backend)) as service:
        service.load_graph("social", g)
        sssp_watch = service.watch("sssp", 0, graph="social")
        cc_watch = service.watch("cc", graph="social")

        shipped_before = (
            sssp_watch.session.metrics.fragments_shipped,
            cc_watch.session.metrics.fragments_shipped)

        refreshed = service.update("social", mixed_delta(g, None))
        assert set(refreshed) == {sssp_watch, cc_watch}

        # Every watch answer equals a from-scratch computation on the
        # mutated graph (sequential oracles, fully independent of the
        # engine path under test).
        assert sssp_watch.answer == pytest.approx(sssp_distances(g, 0))
        assert normalize(cc_watch.answer) == normalize(cc_oracle(g))
        service.fragmentation("social").validate()
        assert_derived_state_fresh(service.fragmentation("social"))

        # The batch has deletions: both watches were served by the
        # delete-aware bounded path — a partial reset of the affected
        # region, not a recompute fallback.
        assert service.stats.fallback_reruns == 0
        assert service.stats.incremental_maintained == 2
        assert service.stats.partial_resets == 2
        assert service.stats.affected_vertices > 0
        assert service.stats.deltas_applied == 1

        if backend == "process":
            # The bounded maintenance runs on the session's live states
            # in the driver; no worker is leased, so no fragments ship —
            # neither full re-ships nor delta replays.
            assert service.stats.delta_bytes_shipped == 0
            after = (sssp_watch.session.metrics.fragments_shipped,
                     cc_watch.session.metrics.fragments_shipped)
            assert after == shipped_before
            assert (sssp_watch.session.metrics.fragments_delta_shipped
                    + cc_watch.session.metrics.fragments_delta_shipped) == 0

        # A follow-up monotone batch stays on the incremental fast path
        # for both programs.
        service.insert_edges("social", [(0, 778, 0.9)])
        assert service.stats.incremental_maintained == 4
        assert service.stats.partial_resets == 2  # monotone batch: no reset
        assert sssp_watch.answer == pytest.approx(sssp_distances(g, 0))
        assert normalize(cc_watch.answer) == normalize(cc_oracle(g))


@pytest.mark.parametrize("backend", BACKENDS)
def test_watch_answers_survive_update_streams(backend):
    """Interleaved monotone and non-monotone batches: the maintained
    answers track the oracles at every step."""
    g = uniform_random_graph(50, 140, directed=False, seed=7)
    with GrapeService(engine=EngineConfig(backend=backend)) as service:
        service.load_graph("g", g)
        sssp_watch = service.watch("sssp", 0, graph="g")
        cc_watch = service.watch("cc", graph="g")
        # new nodes get integer ids: CC component ids are node values
        # and must stay totally ordered under the min aggregator
        batches = [
            GraphDelta().insert(0, 1001, 0.4).insert(1001, 1002, 0.4),
            GraphDelta().delete(*next(iter(g.edges()))[:2]),
            GraphDelta().insert(1, 2, 0.05),
            GraphDelta().set_weight(*[(u, v, w * 5)
                                      for u, v, w in g.edges()][10]),
        ]
        for delta in batches:
            service.update("g", delta)
            assert sssp_watch.answer == pytest.approx(sssp_distances(g, 0))
            assert normalize(cc_watch.answer) == normalize(cc_oracle(g))
            assert_derived_state_fresh(service.fragmentation("g"))
        # Every batch — including the deletion and the weight increase —
        # was maintained; the non-monotone ones via partial resets.
        assert service.stats.incremental_maintained == 2 * len(batches)
        assert service.stats.fallback_reruns == 0
        assert service.stats.partial_resets > 0
