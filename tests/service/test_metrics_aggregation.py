"""ServiceMetrics aggregation: observe_run / observe_maintenance and the
histogram + skew fields, end to end across every backend."""

import pytest

from repro.core.engine import EngineConfig
from repro.runtime.metrics import RunMetrics, ServiceMetrics
from repro.service import GrapeService


class TestObserveRun:
    def _run(self, wall, worker_times):
        m = RunMetrics(backend="thread")
        m.wall_clock_s = wall
        m.record_superstep(worker_times, 10, 2)
        return m

    def test_totals_and_histograms_fold_in(self):
        stats = ServiceMetrics()
        stats.observe_run(self._run(0.2, [0.01, 0.04]))
        stats.observe_run(self._run(0.3, [0.02, 0.02]))
        assert stats.queries_served == 2
        assert stats.wall_clock_s_total == pytest.approx(0.5)
        assert stats.supersteps_total == 2
        assert stats.comm_bytes_total == 20
        assert stats.comm_messages_total == 4
        # per-query wall clock lands in the service histogram
        assert stats.query_wall_s.count == 2
        assert stats.query_wall_s.sum == pytest.approx(0.5)
        # per-worker superstep times merge bin-wise
        assert stats.worker_time_hist.count == 4
        # skew: [0.01, 0.04] → 0.04 / 0.025 = 1.6; balanced run → 1.0
        assert stats.skew_ratio_max == pytest.approx(1.6)
        assert stats.straggler_steps == 0

    def test_straggler_steps_accumulate(self):
        stats = ServiceMetrics()
        stats.observe_run(self._run(0.1, [0.01, 0.01, 0.04]))  # skew 2.0
        assert stats.straggler_steps == 1
        assert stats.skew_ratio_max == pytest.approx(2.0)


class TestObserveMaintenance:
    def test_folds_delta_costs(self):
        stats = ServiceMetrics()
        stats.observe_maintenance(3, 100, 7, maintained=1,
                                  delta_bytes=64)
        stats.observe_maintenance(2, 50, 3, fallbacks=1,
                                  partial_resets=1, affected_vertices=9)
        assert stats.watch_refreshes == 2
        assert stats.incremental_maintained == 1
        assert stats.fallback_reruns == 1
        assert stats.partial_resets == 1
        assert stats.affected_vertices == 9
        assert stats.delta_bytes_shipped == 64
        assert stats.supersteps_total == 5
        assert stats.comm_bytes_total == 150
        assert stats.comm_messages_total == 10
        assert stats.maintained_ratio == pytest.approx(0.5)
        # maintenance does not count as a served query
        assert stats.queries_served == 0
        assert stats.query_wall_s.count == 0


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
class TestAcrossBackends:
    def test_histograms_populated_by_served_queries(self, small_road,
                                                    backend):
        with GrapeService(engine=EngineConfig(num_workers=4,
                                              backend=backend)) as svc:
            svc.load_graph("roads", small_road)
            svc.play("sssp", 0, graph="roads")
            svc.play("sssp", 5, graph="roads")
            stats = svc.stats
            assert stats.queries_served == 2
            assert stats.query_wall_s.count == 2
            assert stats.query_wall_s.sum > 0
            # every superstep contributed one sample per fragment
            assert stats.worker_time_hist.count >= stats.supersteps_total
            assert stats.skew_ratio_max >= 1.0

    def test_watch_refresh_keeps_skew_fields_coherent(self, small_road,
                                                      backend):
        with GrapeService(engine=EngineConfig(num_workers=4,
                                              backend=backend)) as svc:
            svc.load_graph("roads", small_road)
            handle = svc.watch("sssp", 0, graph="roads")
            svc.insert_edges("roads", [(0, 35, 0.5)])
            assert svc.stats.watch_refreshes == 1
            assert handle.session.metrics.worker_time_hist.count > 0
            report = handle.straggler_report()
            assert report["supersteps"] >= 1
            assert report["max_skew"] >= 1.0
