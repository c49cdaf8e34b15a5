"""Wiring test for the end-to-end benchmark (tier-1, ``--smoke`` sizes).

Checks the contract between ``BENCHMARK.json`` and what ``bench_e2e.py``
prints — not the numbers: every workload runs, every named metric is
printed once with its unit, a different seed changes the generated inputs
and nothing else, and the exact-count metrics repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

import aa_check
import bench_e2e
from harness import END_TO_END, RESULTS_DIR
from hostclock import tail
from workloads import CYCLE, PERIOD_CYCLES, WORKLOADS, BatchGen, graph_digest

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in CONTRACT["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module", autouse=True)
def small_collector_heap():
    """The benchmark collects garbage before every bracket; inside a
    pytest session that walks the whole suite's heap each time.  Park
    what exists so far in the permanent generation for this module."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int
          ) -> Tuple[int, List[str], Dict[str, Any], Dict[str, Any]]:
    """One smoke run in-process: ``(exit code, printed lines, result,
    detail)``; cached, so every test reads the same few runs."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench_e2e.main(["--workload", workload, "--seed", str(seed),
                               "--seconds", "0", "--trace", str(trace),
                               "--smoke"])
    lines = out.getvalue().strip().splitlines()
    detail = json.loads(next(line for line in lines
                             if line.startswith("DETAIL "))[len("DETAIL "):])
    return code, lines, json.loads(lines[-1]), detail


def test_contract_names_the_benchmark():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert sorted(NAMES) == sorted(WORKLOADS)
    assert all(WORKLOADS[w["name"]].why == w["why"] and len(w["why"]) <= 200
               for w in CONTRACT["workloads"])
    e2e = {m["name"]: m for m in CONTRACT["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == END_TO_END
    assert e2e["setup_s"]["better"] == "lower"
    # a tenth at most, but for the two metrics that are the median of seven
    # half-second repetitions (README: bounds): those get the largest bound
    seven_reps = {"setup_s", "warm_restart_s"}
    assert all(0 < m["bound"] <= (0.15 if n in seven_reps else 0.10)
               for n, m in e2e.items())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = NAMES + list(e2e) + [m["name"] for m in CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert all(UNIT_RE.match(m["unit"])
               for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_once_with_its_unit(workload, trace):
    code, lines, result, detail = bench(workload, trace, 1)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"]
              for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        printed = [ln for ln in lines if ln.split() and ln.split()[0] == name]
        assert len(printed) == 1 and printed[0].split()[-1] == unit, name
    assert detail["smoke"] is True and detail["workload"] == workload
    assert {"nproc", "python", "numpy"} <= set(detail["host"])
    assert "calib_iqr_pct" in detail["calibration"]
    assert isinstance(detail["host_noisy"], bool)


def test_seed_changes_the_generated_inputs_and_nothing_else():
    _, _, _, one = bench("road-lowcut", 0, 1)
    _, _, _, two = bench("road-lowcut", 0, 2)
    assert one["graph"]["digest"] == two["graph"]["digest"]
    assert one["inputs"]["slots"] == two["inputs"]["slots"]
    assert one["inputs"]["batches_digest"] != two["inputs"]["batches_digest"]
    assert one["inputs"]["batches_applied"] == two["inputs"]["batches_applied"]


def exact_counts(result: Dict[str, Any]) -> Dict[str, float]:
    """Counts the program makes — everything but timings, host readings
    and the sample counts of the raw diagnostics."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes", "x", "share")
            and not name.startswith(("raw.", "host.", "overhead."))}


def test_exact_count_metrics_repeat_exactly_and_smoke_leaves_no_trace():
    trace = RESULTS_DIR / "trace_road-lowcut.json"
    before = trace.stat().st_mtime_ns if trace.exists() else None
    first = exact_counts(bench("road-lowcut", 1, 1)[2])
    again = exact_counts(bench.__wrapped__("road-lowcut", 1, 1)[2])
    assert len(first) > 30
    assert first == again
    assert (trace.stat().st_mtime_ns if trace.exists() else None) == before


def test_process_backend_changes_no_engine_count():
    serial = bench("road-lowcut", 1, 1)[2]["metrics"]
    pooled = bench("road-process", 1, 1)[2]["metrics"]
    for name in serial:
        if name.startswith("core.engine.") and not name.endswith("_ms"):
            assert serial[name]["value"] == pooled[name]["value"], name
    runtime = [n for n in serial if n.startswith("runtime.")]
    assert runtime and all(serial[n]["value"] == 0 for n in runtime)
    assert any(pooled[n]["value"] > 0 for n in runtime)


def test_update_stream_is_periodic():
    """After one period the graph is the initial graph again and the same
    batches recur, so every batch is a slot that is compared with itself."""
    workload = WORKLOADS["road-lowcut"]
    graph = workload.make_graph(True)
    gen = BatchGen(graph, 1, workload.weight_range)
    assert graph_digest(gen.graph) == graph_digest(graph)
    assert not (gen.inserted or gen.deleted or gen.lowered or gen.raised)
    period = len(CYCLE) * PERIOD_CYCLES
    stream = [gen.next_batch() for _ in range(period + 1)]
    assert [slot for slot, _kind, _delta in stream] == [*range(period), 0]
    assert [kind for _slot, kind, _delta in stream[:3]] == list(CYCLE)
    assert stream[period][2] is stream[0][2]
    live = graph.copy()
    for _slot, kind, delta in stream[:period]:
        change = delta.normalize(live)
        assert len(delta) == change.num_changes == 32
        assert change.monotone == (kind == "insert")
        change.apply_to(live)
    assert graph_digest(live) == graph_digest(graph)


def test_tail_has_a_tenth_of_the_samples_beyond_it():
    assert tail([7.0]) == 7.0
    assert tail(list(range(16))) == 14      # one beyond
    assert tail(list(range(48))) == 43      # four beyond
    assert tail(list(range(500))) == 489    # ten beyond, never more


def test_aa_check_compares_two_sets_against_the_bound(capsys):
    def runs(values):
        return [{"metrics": {"sssp_ms": {"value": v, "unit": "ms"}}}
                for v in values]

    details = [{"raw": {"raw.sssp_ms_p50": v}} for v in (90, 100, 130, 110)]
    steady = {"A": runs([100, 101, 99, 100, 102]),
              "B": runs([101, 100, 102, 99, 101])}
    row = aa_check.compare("w", steady, details, {"sssp_ms": 0.05})["sssp_ms"]
    assert row["ok"] and row["gap"] == pytest.approx(0.01)
    assert row["resolution"] == max(row["gap"], row["all_runs"]["iqr_share"])
    assert row["raw_wall_clock"]["n"] == 4
    shifted = dict(steady, B=runs([110, 111, 109, 110, 112]))
    row = aa_check.compare("w", shifted, details, {"sssp_ms": 0.05})["sssp_ms"]
    assert not row["ok"] and row["gap"] == pytest.approx(0.10)
    noisy = {"A": runs([100, 80, 120, 90, 110]),
             "B": runs([100, 120, 80, 110, 90])}
    row = aa_check.compare("w", noisy, details, {"sssp_ms": 0.05})["sssp_ms"]
    assert row["gap"] == 0 and not row["ok"]  # the spread alone exceeds it
    assert "EXCEEDS BOUND" in capsys.readouterr().out
