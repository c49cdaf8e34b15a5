"""Fault tolerance: injected worker failures recover via checkpoints and
results stay correct (paper Section 6).

Failures are ``exec.step`` crash specs of a
:class:`~repro.resilience.faults.FaultPlane` — fragment ``fid``'s
``at``-th superstep (1-based) — and every recovery test runs on all three
backends: a simulated ``WorkerFailure`` on serial / thread, a real worker
death under process."""

import pytest

from repro.core.engine import GrapeEngine
from repro.graph.generators import grid_road_graph, uniform_random_graph
from repro.pie_programs import CCProgram, SSSPProgram
from repro.resilience.faults import FaultPlane
from repro.sequential import connected_components, sssp_distances

BACKENDS = ("serial", "thread", "process")


def crashes(*planned):
    """A plane crashing fragment ``fid`` at its ``at``-th superstep."""
    plane = FaultPlane()
    for fid, at in planned:
        plane.plan("exec.step", "crash", key=fid, at=at)
    return plane


class TestFaultRecovery:
    def test_sssp_survives_peval_failure(self, small_road):
        for backend in BACKENDS:
            plane = crashes((1, 1))
            engine = GrapeEngine(4, backend=backend, fault_plane=plane)
            result = engine.run(SSSPProgram(), query=0, graph=small_road)
            assert result.answer == pytest.approx(
                sssp_distances(small_road, 0))
            assert plane.fired == [("exec.step", 1, 1, "crash")]
            assert result.recoveries >= 1, backend

    def test_sssp_survives_inceval_failure(self, small_road):
        for backend in BACKENDS:
            engine = GrapeEngine(4, backend=backend,
                                 fault_plane=crashes((2, 2)))
            result = engine.run(SSSPProgram(), query=0, graph=small_road)
            assert result.answer == pytest.approx(
                sssp_distances(small_road, 0))
            assert result.recoveries >= 1, backend

    def test_multiple_failures(self, small_road):
        for backend in BACKENDS:
            plane = crashes((0, 1), (1, 2), (2, 3))
            engine = GrapeEngine(4, backend=backend, fault_plane=plane)
            result = engine.run(SSSPProgram(), query=0, graph=small_road)
            assert result.answer == pytest.approx(
                sssp_distances(small_road, 0))
            assert len(plane.fired) == 3, backend

    def test_cc_survives_random_failures(self):
        g = uniform_random_graph(80, 100, directed=False, seed=17)
        expected = {}
        for v, c in connected_components(g).items():
            expected.setdefault(c, set()).add(v)
        for backend in BACKENDS:
            plane = FaultPlane(seed=2).rate("exec.step", "crash", 0.05,
                                            times=5)
            engine = GrapeEngine(4, backend=backend, fault_plane=plane)
            result = engine.run(CCProgram(), query=None, graph=g)
            assert plane.fired  # the seeded schedule really crashed workers
            assert result.answer == expected, backend

    def test_recovered_run_accounts_like_a_clean_one(self, small_road):
        for backend in BACKENDS:
            clean = GrapeEngine(4, backend=backend).run(
                SSSPProgram(), query=0, graph=small_road)
            faulty = GrapeEngine(4, backend=backend,
                                 fault_plane=crashes((1, 1))).run(
                SSSPProgram(), query=0, graph=small_road)
            # Only the attempt whose outcomes were used is a superstep (the
            # PR 5 rule); the failed one shows up as a recovery.
            assert faulty.recoveries == 1, backend
            assert (faulty.supersteps, faulty.metrics.comm_bytes,
                    faulty.metrics.comm_messages) == (
                        clean.supersteps, clean.metrics.comm_bytes,
                        clean.metrics.comm_messages), backend

    def test_no_injector_no_recoveries(self, small_road):
        for backend in BACKENDS:
            result = GrapeEngine(4, backend=backend).run(
                SSSPProgram(), query=0, graph=small_road)
            assert result.recoveries == 0, backend


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
        frag = self._mutate(small_road, GrapeEngine(4))
        for backend in BACKENDS:
            clean = GrapeEngine(4, backend=backend).run(
                SSSPProgram(), query=0, fragmentation=frag)
            plane = crashes((1, 1), (2, 2))
            engine = GrapeEngine(4, backend=backend, fault_plane=plane)
            result = engine.run(SSSPProgram(), query=0, fragmentation=frag)
            assert result.recoveries >= 1, backend
            assert len(plane.fired) == 2, backend
            # oracle on the mutated base graph, which apply_delta kept in
            # step
            assert result.answer == pytest.approx(
                sssp_distances(small_road, 0))
            assert result.answer == pytest.approx(clean.answer)

    def test_cc_recovers_after_deletions_undirected(self):
        g = uniform_random_graph(70, 90, directed=False, seed=23)
        frag = self._mutate(g, GrapeEngine(4))
        expected = {}
        for v, c in connected_components(g).items():
            expected.setdefault(c, set()).add(v)
        for backend in BACKENDS:
            engine = GrapeEngine(4, backend=backend,
                                 fault_plane=crashes((0, 2)))
            result = engine.run(CCProgram(), query=None, fragmentation=frag)
            assert result.recoveries >= 1, backend
            assert result.answer == expected, backend
