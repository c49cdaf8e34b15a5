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
from repro.obs import events
from repro.pie_programs import CCProgram, SSSPProgram
from repro.resilience.faults import FaultAction, FaultPlane
from repro.runtime.executors import PHASE_PEVAL, StepCommand, ThreadBackend
from repro.runtime.fault import Arbitrator, WorkerFailure
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

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_inline_crash_is_recovered_like_a_worker_death(self, small_road,
                                                           backend):
        """A plane crash on an inline backend takes a dead process's
        path — re-open the session, restore the checkpoint, replay the
        step — and says so with one ``worker.recovered`` per recovery."""
        clean = GrapeEngine(4, backend=backend).run(
            SSSPProgram(), query=0, graph=small_road)
        plane = crashes((1, 1), (2, 3))
        with events.use(events.EventLog()) as log:
            faulty = GrapeEngine(4, backend=backend, fault_plane=plane).run(
                SSSPProgram(), query=0, fragmentation=clean.fragmentation)
        assert len(plane.fired) == 2
        recovered = log.events("worker.recovered")
        assert len(recovered) == faulty.recoveries == 2
        assert {e.fields["error"] for e in recovered} == {"WorkerFailure"}
        assert faulty.answer == clean.answer
        assert (faulty.supersteps, faulty.metrics.comm_bytes,
                faulty.metrics.comm_messages) == (
                    clean.supersteps, clean.metrics.comm_bytes,
                    clean.metrics.comm_messages)

    def test_thread_crash_raises_after_every_task_finished(self,
                                                           small_road):
        """Nothing may still be computing when the engine restores the
        checkpoint: the crash is raised once the slow task is done."""
        finished = []

        class Recording(SSSPProgram):
            def peval(self, query, fragment, state):
                super().peval(query, fragment, state)
                finished.append(fragment.fid)

        frag = GrapeEngine(2).make_fragmentation(small_road)
        backend = ThreadBackend()
        try:
            session = backend.open(Recording(), 0, frag, num_workers=2)
            session.init_states()
            commands = {
                0: StepCommand(phase=PHASE_PEVAL,
                               fault=FaultAction("exec.step", "crash")),
                1: StepCommand(phase=PHASE_PEVAL,
                               fault=FaultAction("exec.step", "slow",
                                                 {"delay_s": 0.2}))}
            with pytest.raises(WorkerFailure) as info:
                session.step(commands)
            assert info.value.worker == 0
            assert finished == [1]
        finally:
            backend.close()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_inline_crash_without_checkpoint_raises(self, small_road,
                                                    backend):
        """A crash scheduled after the run started finds no checkpoint
        to restore (none are taken while the plane has nothing pending):
        the run fails with ``WorkerFailure``, as a process death without
        a checkpoint fails with ``WorkerProcessDied``."""
        plane = FaultPlane()
        scheduled = []

        class SchedulingSSSP(SSSPProgram):
            def peval(self, query, fragment, state):
                super().peval(query, fragment, state)
                if fragment.fid == 0 and not scheduled:
                    scheduled.append(fragment.fid)
                    plane.plan("exec.step", "crash", key=1, at=2)

        engine = GrapeEngine(4, backend=backend, fault_plane=plane)
        with pytest.raises(WorkerFailure) as info:
            engine.run(SchedulingSSSP(), query=0, graph=small_road)
        assert info.value.worker == 1
        assert plane.fired == [("exec.step", 1, 2, "crash")]

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


class TestCheckpointFlag:
    """``checkpoint=True`` checkpoints every superstep with no fault plane
    (what a real worker death needs); with neither, nothing is copied."""

    @staticmethod
    def _count_checkpoints(monkeypatch):
        calls = []
        checkpoint = Arbitrator.checkpoint

        def counting(self, fragment_states):
            calls.append(len(fragment_states))
            checkpoint(self, fragment_states)

        monkeypatch.setattr(Arbitrator, "checkpoint", counting)
        return calls

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_flag_checkpoints_every_superstep(self, small_road, backend,
                                              monkeypatch):
        calls = self._count_checkpoints(monkeypatch)
        result = GrapeEngine(4, backend=backend, checkpoint=True).run(
            SSSPProgram(), query=0, graph=small_road)
        # one before the first superstep, one after each
        assert len(calls) == result.supersteps + 1
        assert result.recoveries == 0
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_flag_no_plane_takes_no_checkpoint(self, small_road, backend,
                                                  monkeypatch):
        calls = self._count_checkpoints(monkeypatch)
        result = GrapeEngine(4, backend=backend).run(
            SSSPProgram(), query=0, graph=small_road)
        assert calls == []
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))
