"""Always-on coordinator phase timers: RunMetrics, the registry, the
``debug_report()`` layer table, and the ``superstep`` span's children."""

import dataclasses
import json

import pytest

from repro.core.engine import EngineConfig, GrapeEngine
from repro.core.updates import ContinuousQuerySession
from repro.graph.delta import GraphDelta
from repro.obs.trace import Span
from repro.pie_programs import SimProgram, SSSPProgram
from repro.runtime.metrics import (PHASE_FIELDS, RunMetrics, ServiceMetrics,
                                   _RUN_ADDITIVE_FIELDS)
from repro.service import GrapeService


def test_phase_fields_exist_on_both_metrics_and_merge_additively():
    for cls in (RunMetrics, ServiceMetrics):
        names = {f.name for f in dataclasses.fields(cls)}
        assert set(PHASE_FIELDS) <= names
    assert set(PHASE_FIELDS) <= set(_RUN_ADDITIVE_FIELDS)
    a, b = RunMetrics(fold_s=1.0, assemble_s=0.5), RunMetrics(fold_s=2.0)
    a.absorb(b)
    assert (a.fold_s, a.assemble_s) == (3.0, 0.5)


@pytest.mark.parametrize("use_csr", [True, False])
def test_untraced_run_times_every_phase(small_road, use_csr):
    result = GrapeEngine(4).run(SSSPProgram(use_csr=use_csr), 0, small_road)
    m = result.metrics
    assert result.trace is None
    for name in PHASE_FIELDS:
        assert getattr(m, name) > 0.0, name
    # the phases are parts of the run, not more than the run
    assert sum(getattr(m, name) for name in PHASE_FIELDS) < m.wall_clock_s


def test_pickle_priced_programs_show_up_under_accounting(small_labeled,
                                                         path_pattern):
    result = GrapeEngine(3).run(SimProgram(), path_pattern, small_labeled)
    assert result.metrics.comm_bytes > 0
    assert result.metrics.accounting_s > 0.0


def test_superstep_span_covers_and_names_the_coordinator_phases(small_road):
    trace = Span("query")
    result = GrapeEngine(4).run(SSSPProgram(), 0, small_road, trace=trace)
    trace.finish()
    steps = trace.find("superstep")
    assert len(steps) == result.supersteps
    for name, field in (("coordinator.fold", "fold_s"),
                        ("coordinator.compose", "compose_s"),
                        ("coordinator.accounting", "accounting_s")):
        spans = trace.find(name)
        assert len(spans) == len(steps)
        assert all(s.parent_id in {st.span_id for st in steps}
                   for s in spans)
        assert sum(s.duration_s for s in spans) == pytest.approx(
            getattr(result.metrics, field))
    for step in steps:
        inside = sum(c.duration_s for c in step.children
                     if c.name != "worker")
        workers = sum(c.duration_s for c in step.children
                      if c.name == "worker")
        # serial backend: the step span contains its workers and the
        # coordinator's share of the round
        assert step.duration_s >= workers + inside * 0.99


def test_maintenance_rounds_accumulate_phase_timers(small_road):
    session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                     small_road)
    before = {name: getattr(session.metrics, name) for name in PHASE_FIELDS}
    session.update(GraphDelta().insert(0, 35, 0.01))
    for name in ("fold_s", "compose_s", "assemble_s"):
        assert getattr(session.metrics, name) > before[name], name


def test_service_exports_and_tabulates_the_layers(small_road):
    with GrapeService(engine=EngineConfig(num_workers=4)) as svc:
        svc.load_graph("roads", small_road)
        svc.play("sssp", 0, graph="roads")
        svc.play("cc", None, graph="roads")
        report = svc.debug_report()
        text = svc.expose_metrics().splitlines()
    json.dumps(report)
    update = report["layers"].pop("update")
    assert update == {"batches": 0, "apply_delta_s": 0.0,
                      "wal_append_s": 0.0, "compact_s": 0.0,
                      "maintain_s": 0.0, "assemble_s": 0.0}
    # no store attached: nothing written, nothing loaded
    assert not any(report["layers"].pop("store").values())
    # two reads, no write: no snapshot built (the partitioner installed
    # all four), every table from the sets
    graph = report["layers"].pop("graph")
    assert graph == {"csr_snapshots_built": 0, "csr_snapshots_patched": 0,
                     "derived_tables_carried": 0,
                     "derived_tables_rebuilt": graph["derived_tables_rebuilt"]}
    assert graph["derived_tables_rebuilt"] >= 4
    assert set(report["layers"]) == {"report_read", "fold", "compose",
                                     "accounting", "assemble"}
    for name, row in report["layers"].items():
        assert row["seconds"] > 0.0, name
        assert 0.0 < row["share"] < 1.0, name
        assert report["metrics"][f"repro_{name}_s"] == row["seconds"]
        assert any(line.startswith(f"repro_{name}_s ") for line in text)
    assert sum(row["share"] for row in report["layers"].values()) < 1.0
