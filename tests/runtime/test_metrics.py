"""Tests for run metrics: the counts, worker times and their combination."""

import copy

import pytest

from repro.runtime.metrics import RunMetrics, message_bytes, physical_times


class TestMessageBytes:
    def test_positive(self):
        assert message_bytes({"a": 1}) > 0

    def test_monotone_in_content(self):
        small = message_bytes(list(range(10)))
        large = message_bytes(list(range(1000)))
        assert large > small

    def test_deterministic(self):
        payload = {"k": [1, 2, 3]}
        assert message_bytes(payload) == message_bytes(payload)


class TestRunMetrics:
    def test_record_superstep(self):
        m = RunMetrics()
        m.record_superstep([1.0, 3.0, 2.0], bytes_shipped=10,
                           num_messages=2)
        assert m.supersteps == 1
        assert m.per_superstep[0]["max_worker_s"] == 3.0
        assert m.per_superstep[0]["slowest_worker"] == 1.0
        assert m.total_compute_s == pytest.approx(6.0)  # sum workers
        assert m.comm_bytes == 10
        assert m.comm_messages == 2

    def test_record_empty_worker_list(self):
        m = RunMetrics()
        m.record_superstep([], 0, 0)
        assert m.supersteps == 1

    def test_per_superstep_log(self):
        m = RunMetrics()
        m.record_superstep([1.0], 5, 1)
        m.record_superstep([2.0], 7, 1)
        assert len(m.per_superstep) == 2
        assert m.per_superstep[1]["bytes"] == 7.0

    def test_comm_megabytes(self):
        m = RunMetrics()
        m.comm_bytes = 2_500_000
        assert m.comm_megabytes == pytest.approx(2.5)

    def test_absorb_on_a_copy(self):
        a = RunMetrics()
        a.record_superstep([1.0], 10, 1)
        b = RunMetrics()
        b.record_superstep([2.0], 20, 2)
        merged = copy.deepcopy(a)
        merged.absorb(b)
        assert a.supersteps == 1
        assert merged.supersteps == 2
        assert [s["max_worker_s"] for s in merged.per_superstep] == [1.0, 2.0]
        assert merged.comm_bytes == 30
        assert merged.comm_messages == 3

    def test_repr(self):
        assert "supersteps=0" in repr(RunMetrics())

    def test_repr_prints_measured_wall_clock(self):
        m = RunMetrics()
        m.record_superstep([1.0], 2_000_000, 3)
        m.wall_clock_s = 0.25
        assert repr(m) == ("RunMetrics(supersteps=1, wall=0.2500s, "
                           "comm=2.0000MB, msgs=3)")

    def test_superstep_row_holds_counts_and_worker_times_only(self):
        """The counts are the cost model: a superstep's row carries its
        traffic and the measured worker times, no simulated clock."""
        m = RunMetrics()
        m.record_superstep([1.0, 3.0], bytes_shipped=10, num_messages=2)
        assert m.per_superstep[0] == {
            "max_worker_s": 3.0, "sum_worker_s": 4.0, "bytes": 10.0,
            "messages": 2.0, "skew": 1.5, "slowest_worker": 1.0}


class TestPhysicalTimes:
    def test_single_physical(self):
        assert physical_times([1.0, 2.0, 3.0], 1) == [6.0]

    def test_greedy_balance(self):
        loads = physical_times([5.0, 4.0, 3.0, 2.0, 1.0, 1.0], 2)
        assert sum(loads) == 16.0
        assert abs(loads[0] - loads[1]) <= 2.0

    def test_tie_break(self):
        """Longest first, each on the first least-loaded worker: 5 | 4,
        3 joins 4, 2 joins 5, 1 joins 7, the last 1 joins the first of
        two equally loaded workers."""
        assert physical_times([5, 4, 3, 2, 1, 1], 2) == [8.0, 8.0]
        assert physical_times([1, 1, 1], 2) == [2.0, 1.0]

    def test_no_more_virtual_than_physical_is_identity(self):
        times = [0.3, 0.1]
        assert physical_times(times, 2) is times
        assert physical_times(times, 5) is times

    def test_empty(self):
        assert physical_times([], 3) == []


class TestRunSuperstep:
    def test_tasks_run_in_order(self):
        ran = []
        RunMetrics().run_superstep([lambda i=i: ran.append(i)
                                    for i in range(3)], 2, 0, 0)
        assert ran == [0, 1, 2]

    def test_metrics_accumulate(self):
        m = RunMetrics()
        m.run_superstep([lambda: None], 2, 100, 3)
        m.run_superstep([lambda: None], 2, 50, 1)
        assert (m.supersteps, m.comm_bytes, m.comm_messages) == (2, 150, 4)
        assert m.backend == "serial"

    def test_virtual_workers_fold_to_physical(self):
        """With 4 virtual tasks and 2 physical workers, the slowest
        worker's time is at most the sum of all tasks."""

        def busy():
            total = 0
            for i in range(20000):
                total += i
            return total

        m = RunMetrics()
        m.run_superstep([busy] * 4, 2, 0, 0)
        assert m.worker_time_hist.count == 2  # one sample per physical
        assert m.supersteps == 1
        assert 0 < m.per_superstep[0]["max_worker_s"] <= m.total_compute_s
