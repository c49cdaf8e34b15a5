"""FaultPlane: the one seeded injection registry every layer consults."""

from __future__ import annotations

import pickle

import pytest

from repro.resilience.faults import (FaultAction, FaultPlane, active, check,
                                     install, installed, uninstall)


class TestPlan:
    def test_fires_at_the_planned_ordinal_only(self):
        plane = FaultPlane()
        plane.plan("exec.step", "crash", at=3)
        assert plane.check("exec.step") is None
        assert plane.check("exec.step") is None
        action = plane.check("exec.step")
        assert action is not None and action.kind == "crash"
        assert plane.check("exec.step") is None

    def test_times_fires_consecutively(self):
        plane = FaultPlane()
        plane.plan("exec.step", "slow", at=2, times=3)
        fired = [plane.check("exec.step") is not None for _ in range(6)]
        assert fired == [False, True, True, True, False, False]

    def test_key_scoped_ordinals_are_independent(self):
        plane = FaultPlane()
        plane.plan("exec.step", "hang", key=1, at=2)
        # key 0's counter never matches key 1's spec
        assert plane.check("exec.step", key=0) is None
        assert plane.check("exec.step", key=0) is None
        assert plane.check("exec.step", key=1) is None
        action = plane.check("exec.step", key=1)
        assert action is not None and action.kind == "hang"

    def test_keyless_spec_matches_any_key_by_site_ordinal(self):
        plane = FaultPlane()
        plane.plan("store.wal.append", "torn", at=2)
        assert plane.check("store.wal.append", key="a.log") is None
        action = plane.check("store.wal.append", key="b.log")
        assert action is not None and action.kind == "torn"

    def test_params_ride_the_action(self):
        plane = FaultPlane()
        plane.plan("exec.step", "slow", at=1, delay_s=0.25)
        action = plane.check("exec.step")
        assert action.param("delay_s", 0.0) == 0.25
        assert action.param("missing", "d") == "d"

    def test_first_matching_spec_wins(self):
        plane = FaultPlane()
        plane.plan("exec.step", "crash", at=1)
        plane.plan("exec.step", "slow", at=1)
        assert plane.check("exec.step").kind == "crash"

    def test_fired_records_site_key_ordinal_kind(self):
        plane = FaultPlane()
        plane.plan("exec.step", "crash", key=2, at=1)
        plane.check("exec.step", key=2)
        assert plane.fired == [("exec.step", 2, 1, "crash")]

    def test_plan_is_chainable(self):
        plane = (FaultPlane().plan("exec.step", "crash", at=1)
                             .plan("replication.tail", "stall", at=1))
        assert plane.check("exec.step") is not None
        assert plane.check("replication.tail") is not None

    def test_drained(self):
        plane = FaultPlane().plan("exec.step", "crash", at=1, times=2)
        assert not plane.drained()
        plane.check("exec.step")
        assert not plane.drained()
        plane.check("exec.step")
        assert plane.drained()


class TestRateMode:
    def test_same_seed_same_schedule(self):
        a = FaultPlane(seed=11).rate("exec.step", "crash", 0.4, times=64)
        b = FaultPlane(seed=11).rate("exec.step", "crash", 0.4, times=64)
        pattern_a = [a.check("exec.step") is not None for _ in range(200)]
        pattern_b = [b.check("exec.step") is not None for _ in range(200)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)
        assert a.fired == b.fired

    def test_different_seeds_differ(self):
        a = FaultPlane(seed=1).rate("exec.step", "crash", 0.5, times=64)
        b = FaultPlane(seed=2).rate("exec.step", "crash", 0.5, times=64)
        pattern_a = [a.check("exec.step") is not None for _ in range(200)]
        pattern_b = [b.check("exec.step") is not None for _ in range(200)]
        assert pattern_a != pattern_b

    def test_times_caps_rate_fires(self):
        plane = FaultPlane(seed=3).rate("exec.step", "slow", 1.0, times=4)
        fires = sum(plane.check("exec.step") is not None
                    for _ in range(50))
        assert fires == 4

    def test_max_fires_caps_the_whole_plane(self):
        plane = FaultPlane(seed=3, max_fires=5).rate(
            "exec.step", "slow", 1.0, times=1000)
        fires = sum(plane.check("exec.step") is not None
                    for _ in range(50))
        assert fires == 5

    def test_times_caps_fractional_rates(self):
        plane = FaultPlane(seed=0).rate("exec.step", "crash", 0.5, times=4)
        fires = sum(plane.check("exec.step", key=w) is not None
                    for w in range(8) for _ in range(100))
        assert fires == 4 == len(plane.fired)

    def test_planned_specs_count_toward_max_fires(self):
        plane = FaultPlane(max_fires=2)
        for fid in range(3):
            plane.plan("exec.step", "crash", key=fid, at=1)
        fires = sum(plane.check("exec.step", key=fid) is not None
                    for fid in range(3))
        assert fires == 2
        assert not plane.may_fire("exec.")  # the cap, not the schedule


class TestModuleRegistry:
    def teardown_method(self):
        uninstall()

    def test_check_is_noop_without_a_plane(self):
        assert active() is None
        assert check("exec.step") is None

    def test_install_uninstall(self):
        plane = FaultPlane().plan("exec.step", "crash", at=1)
        install(plane)
        assert active() is plane
        assert check("exec.step").kind == "crash"
        uninstall()
        assert active() is None

    def test_double_install_raises(self):
        install(FaultPlane())
        with pytest.raises(RuntimeError):
            install(FaultPlane())

    def test_installed_contextmanager_restores(self):
        plane = FaultPlane().plan("exec.step", "crash", at=1)
        with installed(plane):
            assert active() is plane
        assert active() is None

    def test_may_fire_prefix(self):
        plane = FaultPlane().plan("exec.step", "crash", at=1)
        assert plane.may_fire("exec.")
        assert not plane.may_fire("store.")
        plane.check("exec.step")
        assert not plane.may_fire("exec.")  # schedule drained


class TestFaultAction:
    def test_picklable(self):
        action = FaultAction(site="exec.step", kind="hang",
                             params={"hang_s": 1.0})
        clone = pickle.loads(pickle.dumps(action))
        assert clone.kind == "hang"
        assert clone.param("hang_s", 0.0) == 1.0

    def test_plane_pickles_with_its_schedule_and_progress(self):
        plane = (FaultPlane(seed=5).plan("exec.step", "crash", key=1, at=2)
                 .rate("exec.step", "slow", 0.5, times=8))
        plane.check("exec.step", key=1)
        clone = pickle.loads(pickle.dumps(plane))
        assert clone.fired == plane.fired
        # same ordinals, same random streams from here on
        ahead = [plane.check("exec.step", key=1) for _ in range(20)]
        again = [clone.check("exec.step", key=1) for _ in range(20)]
        assert [a and a.kind for a in ahead] == [a and a.kind for a in again]
        assert ahead[0].kind == "crash"

    def test_thread_safety_of_check(self):
        import threading
        plane = FaultPlane().rate("exec.step", "slow", 0.5, times=64)
        hits = []

        def worker():
            for _ in range(100):
                if plane.check("exec.step") is not None:
                    hits.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(hits) == len(plane.fired) <= 64
