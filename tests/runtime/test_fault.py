"""Tests for injected-crash recovery and the arbitrator."""

import pytest

from repro.runtime.fault import Arbitrator, WorkerFailure


class TestFailureInjector:
    """What is left of the deleted ``FailureInjector``'s suite: its
    end-to-end case, on the ``FaultPlane`` rate spec that replaced it and
    on every backend.  The schedule itself (fires once, seeds, caps) is
    ``tests/resilience/test_fault_plane.py``'s subject."""

    def test_rate_mode_end_to_end_recovers_with_exact_answers(self):
        from repro.core.engine import GrapeEngine
        from repro.graph.generators import grid_road_graph
        from repro.pie_programs import SSSPProgram
        from repro.resilience.faults import FaultPlane
        from repro.sequential import sssp_distances

        g = grid_road_graph(6, 6, seed=3)
        for backend in ("serial", "thread", "process"):
            plane = FaultPlane(seed=11).rate("exec.step", "crash", 0.15,
                                             times=5)
            result = GrapeEngine(4, backend=backend, fault_plane=plane).run(
                SSSPProgram(), query=0, graph=g)
            assert plane.fired  # the seeded schedule really injected failures
            # Failures landing in the same superstep share one recovery.
            assert 1 <= result.recoveries <= len(plane.fired), backend
            assert result.answer == pytest.approx(sssp_distances(g, 0))


class TestWorkerFailure:
    def test_attributes(self):
        err = WorkerFailure(worker=3, superstep=7)
        assert err.worker == 3
        assert err.superstep == 7
        assert "worker 3" in str(err)


class TestArbitrator:
    def test_no_checkpoint_initially(self):
        assert not Arbitrator().has_checkpoint

    def test_checkpoint_restore_round_trip(self):
        arb = Arbitrator()
        state = {0: {"dist": {1: 2.0}}, 1: {"dist": {}}}
        arb.checkpoint(state)
        restored = arb.restore()
        assert restored == state
        assert arb.recoveries == 1

    def test_restore_is_deep_copy(self):
        arb = Arbitrator()
        state = {0: {"values": [1, 2]}}
        arb.checkpoint(state)
        state[0]["values"].append(3)  # mutate after checkpoint
        restored = arb.restore()
        assert restored[0]["values"] == [1, 2]
        restored[0]["values"].append(9)  # mutating restored is safe too
        assert arb.restore()[0]["values"] == [1, 2]

    def test_recoveries_counted(self):
        arb = Arbitrator()
        arb.checkpoint({0: 1})
        arb.restore()
        arb.restore()
        assert arb.recoveries == 2

    def test_instances_are_isolated(self):
        """Concurrent runs each own an arbitrator: one run's checkpoint
        is never another's."""
        a, b = Arbitrator(), Arbitrator()
        a.checkpoint({0: "alpha"})
        assert a.has_checkpoint and not b.has_checkpoint
        b.checkpoint({0: "beta"})
        assert a.restore() == {0: "alpha"}
        assert b.restore() == {0: "beta"}

    def test_latest_checkpoint_replaces_the_previous(self):
        arb = Arbitrator()
        arb.checkpoint({0: "first", 1: "first"})
        arb.checkpoint({0: "second"})
        assert arb.restore() == {0: "second"}

    def test_restore_keeps_the_checkpoint_for_the_next_failure(self):
        """A second failure before the next superstep boundary replays
        from the same checkpoint."""
        arb = Arbitrator()
        arb.checkpoint({0: {"dist": {1: 2.0}}})
        first = arb.restore()
        first[0]["dist"][1] = 0.5
        assert arb.has_checkpoint
        assert arb.restore() == {0: {"dist": {1: 2.0}}}
