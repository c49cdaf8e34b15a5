"""Fault tolerance: injected worker failures recover via checkpoints and
results stay correct (paper Section 6)."""

import pytest

from repro.core.engine import GrapeEngine
from repro.graph.generators import grid_road_graph, uniform_random_graph
from repro.pie_programs import CCProgram, SSSPProgram
from repro.runtime.fault import FailureInjector, WorkerFailure
from repro.sequential import connected_components, sssp_distances


class TestFaultRecovery:
    def test_sssp_survives_peval_failure(self, small_road):
        injector = FailureInjector(planned=[(1, 0)])
        engine = GrapeEngine(4, failure_injector=injector)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))
        assert injector.fired == [(1, 0)]
        assert result.recoveries >= 1

    def test_sssp_survives_inceval_failure(self, small_road):
        injector = FailureInjector(planned=[(2, 1)])
        engine = GrapeEngine(4, failure_injector=injector)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))
        assert result.recoveries >= 1

    def test_multiple_failures(self, small_road):
        injector = FailureInjector(planned=[(0, 0), (1, 1), (2, 2)])
        engine = GrapeEngine(4, failure_injector=injector)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))
        assert len(injector.fired) == 3

    def test_cc_survives_random_failures(self):
        g = uniform_random_graph(80, 100, directed=False, seed=17)
        injector = FailureInjector(rate=0.05, seed=4, max_failures=5)
        engine = GrapeEngine(4, failure_injector=injector)
        result = engine.run(CCProgram(), query=None, graph=g)
        expected = {}
        for v, c in connected_components(g).items():
            expected.setdefault(c, set()).add(v)
        assert result.answer == expected

    def test_recovered_run_accounts_like_a_clean_one(self, small_road):
        clean = GrapeEngine(4).run(SSSPProgram(), query=0,
                                   graph=small_road)
        injector = FailureInjector(planned=[(1, 0)])
        faulty = GrapeEngine(4, failure_injector=injector).run(
            SSSPProgram(), query=0, graph=small_road)
        # Only the attempt whose outcomes were used is a superstep (the
        # PR 5 rule); the failed one shows up as a recovery.
        assert faulty.recoveries == 1
        assert (faulty.supersteps, faulty.metrics.comm_bytes,
                faulty.metrics.comm_messages) == (
                    clean.supersteps, clean.metrics.comm_bytes,
                    clean.metrics.comm_messages)

    def test_no_injector_no_recoveries(self, small_road):
        result = GrapeEngine(4).run(SSSPProgram(), query=0,
                                    graph=small_road)
        assert result.recoveries == 0


class TestFaultAfterDeletions:
    """Recovery when the failed superstep follows a deletion-bearing
    GraphDelta (PR-4 deletions previously had no fault-path coverage):
    the checkpointed states are built on the *mutated* fragmentation, so
    restore + replay must converge to the post-deletion answers."""

    def _mutate(self, g, engine):
        from repro.core.updates import apply_delta
        from repro.graph.delta import GraphDelta
        frag = engine.make_fragmentation(g)
        edges = list(g.edges())
        (du, dv, _w), (eu, ev, _w2) = edges[0], edges[len(edges) // 2]
        iu, iv, iw = edges[3]
        delta = (GraphDelta().delete(du, dv).delete(eu, ev)
                 .set_weight(iu, iv, iw * 5.0)
                 .insert(0, 4242, 0.7))
        touched = apply_delta(frag, delta)
        assert any(d.has_deletions for d in touched.values())
        return frag

    def test_sssp_recovers_on_deletion_mutated_fragmentation(self,
                                                             small_road):
        clean_engine = GrapeEngine(4)
        frag = self._mutate(small_road, clean_engine)
        clean = clean_engine.run(SSSPProgram(), query=0, fragmentation=frag)

        injector = FailureInjector(planned=[(1, 0), (2, 1)])
        engine = GrapeEngine(4, failure_injector=injector)
        result = engine.run(SSSPProgram(), query=0, fragmentation=frag)
        assert result.recoveries >= 1
        assert len(injector.fired) == 2
        # oracle on the mutated base graph, which apply_delta kept in step
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))
        assert result.answer == pytest.approx(clean.answer)

    def test_cc_recovers_after_deletions_undirected(self):
        g = uniform_random_graph(70, 90, directed=False, seed=23)
        clean_engine = GrapeEngine(4)
        frag = self._mutate(g, clean_engine)

        injector = FailureInjector(planned=[(0, 1)])
        engine = GrapeEngine(4, failure_injector=injector)
        result = engine.run(CCProgram(), query=None, fragmentation=frag)
        assert result.recoveries >= 1
        expected = {}
        for v, c in connected_components(g).items():
            expected.setdefault(c, set()).add(v)
        assert result.answer == expected
