"""Tests for the BSP cost model and run metrics."""

import pytest

from repro.runtime.metrics import (CostModel, RunMetrics, message_bytes,
                                   physical_times)


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


class TestCostModel:
    def test_superstep_time_components(self):
        cm = CostModel(sync_latency_s=0.5, seconds_per_byte=0.001)
        assert cm.superstep_time(2.0, 100) == pytest.approx(2.0 + 0.5 + 0.1)

    def test_defaults_reasonable(self):
        cm = CostModel()
        assert cm.superstep_time(0.0, 0) == pytest.approx(1e-3)


class TestRunMetrics:
    def test_record_superstep(self):
        m = RunMetrics()
        cm = CostModel(sync_latency_s=0.0, seconds_per_byte=0.0)
        m.record_superstep([1.0, 3.0, 2.0], bytes_shipped=10,
                           num_messages=2, cost_model=cm)
        assert m.supersteps == 1
        assert m.parallel_time_s == pytest.approx(3.0)  # max worker
        assert m.total_compute_s == pytest.approx(6.0)  # sum workers
        assert m.comm_bytes == 10
        assert m.comm_messages == 2

    def test_record_empty_worker_list(self):
        m = RunMetrics()
        m.record_superstep([], 0, 0, CostModel())
        assert m.supersteps == 1

    def test_per_superstep_log(self):
        m = RunMetrics()
        cm = CostModel()
        m.record_superstep([1.0], 5, 1, cm)
        m.record_superstep([2.0], 7, 1, cm)
        assert len(m.per_superstep) == 2
        assert m.per_superstep[1]["bytes"] == 7.0

    def test_comm_megabytes(self):
        m = RunMetrics()
        m.comm_bytes = 2_500_000
        assert m.comm_megabytes == pytest.approx(2.5)

    def test_merge(self):
        cm = CostModel(sync_latency_s=0.0, seconds_per_byte=0.0)
        a = RunMetrics()
        a.record_superstep([1.0], 10, 1, cm)
        b = RunMetrics()
        b.record_superstep([2.0], 20, 2, cm)
        merged = a.merge(b)
        assert merged.supersteps == 2
        assert merged.parallel_time_s == pytest.approx(3.0)
        assert merged.comm_bytes == 30
        assert merged.comm_messages == 3

    def test_repr(self):
        assert "supersteps=0" in repr(RunMetrics())


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
    FREE = CostModel(sync_latency_s=0.0, seconds_per_byte=0.0)

    def test_tasks_run_in_order(self):
        ran = []
        RunMetrics().run_superstep([lambda i=i: ran.append(i)
                                    for i in range(3)], 2, 0, 0)
        assert ran == [0, 1, 2]

    def test_metrics_accumulate(self):
        m = RunMetrics()
        m.run_superstep([lambda: None], 2, 100, 3, self.FREE)
        m.run_superstep([lambda: None], 2, 50, 1, self.FREE)
        assert (m.supersteps, m.comm_bytes, m.comm_messages) == (2, 150, 4)
        assert m.backend == "serial"

    def test_default_cost_model_charges_latency(self):
        m = RunMetrics()
        m.run_superstep([], 1, 0, 0)
        assert m.parallel_time_s == pytest.approx(1e-3)

    def test_virtual_workers_fold_to_physical(self):
        """With 4 virtual tasks and 2 physical workers, parallel time is
        at most the sum of all tasks and at least the max task."""

        def busy():
            total = 0
            for i in range(20000):
                total += i
            return total

        m = RunMetrics()
        m.run_superstep([busy] * 4, 2, 0, 0, self.FREE)
        assert m.worker_time_hist.count == 2  # one sample per physical
        assert 0 < m.parallel_time_s <= m.total_compute_s
        assert m.per_superstep[0]["max_worker_s"] == m.parallel_time_s
