"""SlowQueryLog and straggler_report."""

import pytest

from repro.obs.diagnostics import SlowQueryLog, straggler_report
from repro.obs.trace import Span
from repro.runtime.metrics import RunMetrics


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_s=0.1)
        assert log.offer("sssp", "g", 0, 0.05) is None
        entry = log.offer("sssp", "g", 0, 0.2)
        assert entry is not None
        assert log.observed == 2
        assert len(log) == 1
        assert log.entries() == [entry]

    def test_keeps_span_tree(self):
        root = Span("query")
        root.record("engine.run", 0.3)
        root.finish()
        log = SlowQueryLog(threshold_s=0.0)
        log.offer("sssp", "g", 7, root.duration_s, trace=root)
        dumped = log.to_dicts()[0]
        assert dumped["program"] == "sssp"
        assert dumped["query"] == "7"
        assert dumped["trace"]["children"][0]["name"] == "engine.run"

    def test_bounded_capacity(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=3)
        for i in range(8):
            log.offer("p", "g", i, 1.0)
        assert len(log) == 3
        assert [e.query for e in log.entries()] == [5, 6, 7]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            SlowQueryLog(threshold_s=-1.0)

    def test_clear(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.offer("p", "g", 0, 1.0)
        log.clear()
        assert len(log) == 0


class TestStragglerReport:
    def _metrics_with_skew(self):
        m = RunMetrics(backend="thread")
        # Worker 2 is 4x slower than its peers in both supersteps.
        m.record_superstep([0.01, 0.01, 0.04], 0, 0)
        m.record_superstep([0.01, 0.01, 0.04], 0, 0)
        return m

    def test_identifies_suspect_worker(self):
        report = straggler_report(self._metrics_with_skew())
        assert report["supersteps"] == 2
        assert report["suspect"] == 2
        assert report["slowest_counts"] == {2: 2}
        assert report["max_skew"] == pytest.approx(2.0)
        assert report["straggler_steps"] == 2

    def test_balanced_run_has_no_suspect(self):
        m = RunMetrics(backend="thread")
        m.record_superstep([0.01, 0.01], 0, 0)
        report = straggler_report(m)
        assert report["max_skew"] == pytest.approx(1.0)
        assert report["suspect"] is None
        assert report["straggler_steps"] == 0

    def test_empty_metrics(self):
        report = straggler_report(RunMetrics(backend="serial"))
        assert report["supersteps"] == 0
        assert report["max_skew"] == 1.0
        assert report["suspect"] is None
