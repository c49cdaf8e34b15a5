"""Tests for the simulated cluster and load balancer."""

import pytest

from repro.runtime.cluster import LoadBalancer, SimulatedCluster
from repro.runtime.metrics import CostModel


class TestLoadBalancer:
    def test_single_physical(self):
        assert LoadBalancer().assign([1.0, 2.0, 3.0], 1) == [0, 0, 0]

    def test_greedy_balance(self):
        placement = LoadBalancer().assign([5.0, 4.0, 3.0, 2.0, 1.0, 1.0], 2)
        loads = [0.0, 0.0]
        for cost, phys in zip([5.0, 4.0, 3.0, 2.0, 1.0, 1.0], placement):
            loads[phys] += cost
        assert abs(loads[0] - loads[1]) <= 2.0

    def test_empty(self):
        assert LoadBalancer().assign([], 3) == []


class TestSimulatedCluster:
    def test_results_in_order(self):
        cluster = SimulatedCluster(2)
        results = cluster.run_superstep([lambda: "a", lambda: "b",
                                         lambda: "c"])
        assert results == ["a", "b", "c"]

    def test_metrics_accumulate(self):
        cluster = SimulatedCluster(2, cost_model=CostModel(
            sync_latency_s=0.0, seconds_per_byte=0.0))
        cluster.run_superstep([lambda: None], bytes_shipped=100,
                              num_messages=3)
        cluster.run_superstep([lambda: None], bytes_shipped=50,
                              num_messages=1)
        assert cluster.metrics.supersteps == 2
        assert cluster.metrics.comm_bytes == 150
        assert cluster.metrics.comm_messages == 4

    def test_reset_metrics(self):
        cluster = SimulatedCluster(1)
        cluster.run_superstep([lambda: None])
        cluster.reset_metrics()
        assert cluster.metrics.supersteps == 0

    def test_virtual_workers_fold_to_physical(self):
        """With 4 virtual tasks and 2 physical workers, parallel time is
        at most the sum of all tasks and at least the max task."""
        cluster = SimulatedCluster(2, cost_model=CostModel(
            sync_latency_s=0.0, seconds_per_byte=0.0))

        def busy():
            total = 0
            for i in range(20000):
                total += i
            return total

        cluster.run_superstep([busy] * 4)
        total = cluster.metrics.total_compute_s
        parallel = cluster.metrics.parallel_time_s
        assert parallel <= total
        assert parallel > 0

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)

    def test_account_payload(self):
        cluster = SimulatedCluster(1)
        assert cluster.account_payload([1, 2, 3]) > 0

    def test_repr(self):
        assert "SimulatedCluster" in repr(SimulatedCluster(3))
