"""A/A check: does the benchmark agree with itself?

Runs ``bench_e2e.py`` as two interleaved sets of the *same* code
(A B A B ..., ``RUNS_PER_SET`` runs each, every run on another seed, run
length and workloads from ``BENCHMARK.json``) and compares, for every
end-to-end metric on every workload, the two sets' medians.  The relative
gap must stay within the bound ``BENCHMARK.json`` fixes for that metric —
otherwise a later change could be accused of (or credited with) a
difference the benchmark produces on its own — and so must the quartile
spread of all runs together (what the driver computes from ten seeds);
else the check exits non-zero.  The larger of the two is the cell's
*resolution*: a difference smaller than that is unresolved on this host,
whatever the bound says.  Quartiles and the max-min spread of each set are
printed beside it, with the quartile spread of the raw (un-normalised)
wall clock of the same runs for comparison.

    python3 benchmarks/e2e/aa_check.py               # results/AA.json
    python3 benchmarks/e2e/aa_check.py --baseline    # and BASELINE.json

``--baseline`` additionally pools all runs into ``results/BASELINE.json``
(medians and quartiles per workload, the raw diagnostics of the same runs,
plus one traced run per workload).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = HERE / "bench_e2e.py"
RESULTS_DIR = HERE / "results"

RUNS_PER_SET = 5
FIRST_SEED = {"A": 101, "B": 201}
TRACED_SEED = 301


def run_once(workload: str, seed: int, seconds: int, trace: int
             ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One benchmark process; returns ``(result, detail)``."""
    cmd = [sys.executable, str(BENCH), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    detail = next(json.loads(line[len("DETAIL "):]) for line in lines
                  if line.startswith("DETAIL "))
    return json.loads(lines[-1]), detail


def summarise(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else 0.0,
            "range_share": (max(values) - min(values)) / q2 if q2 else 0.0,
            "n": len(values)}


def compare(workload: str, runs: Dict[str, List[Dict[str, Any]]],
            details: List[Dict[str, Any]], bounds: Dict[str, float]
            ) -> Dict[str, Dict[str, Any]]:
    """One row per end-to-end metric: both sets, all runs pooled, the gap
    between the sets' medians and the verdict against the bound."""
    table: Dict[str, Dict[str, Any]] = {}
    for metric, bound in bounds.items():
        values = {side: [r["metrics"][metric]["value"] for r in results]
                  for side, results in runs.items()}
        sides = {side: summarise(v) for side, v in values.items()}
        pooled = summarise(values["A"] + values["B"])
        a, b = sides["A"]["median"], sides["B"]["median"]
        gap = abs(a - b) / a if a else 0.0
        resolution = max(gap, pooled["iqr_share"])
        raw = [d["raw"][f"raw.{metric}_p50"] for d in details
               if f"raw.{metric}_p50" in d["raw"]]
        row = table[metric] = {
            "A": sides["A"], "B": sides["B"], "all_runs": pooled,
            "gap": gap, "resolution": resolution, "bound": bound,
            "ok": resolution <= bound}
        if raw:  # the un-normalised spread, for comparison
            row["raw_wall_clock"] = summarise(raw)
        print(f"{workload:15s} {metric:20s} "
              f"A={a:10.4f} [{sides['A']['q1']:.4f}, {sides['A']['q3']:.4f}] "
              f"B={b:10.4f} [{sides['B']['q1']:.4f}, {sides['B']['q3']:.4f}] "
              f"gap={100 * gap:5.2f}% "
              f"iqr(all)={100 * pooled['iqr_share']:4.1f}% "
              f"bound={100 * bound:4.1f}% "
              f"range(A/B)={100 * sides['A']['range_share']:.1f}/"
              f"{100 * sides['B']['range_share']:.1f}% "
              + (f"raw iqr={100 * row['raw_wall_clock']['iqr_share']:4.1f}% "
                 if raw else "")
              + ("ok" if row["ok"] else "EXCEEDS BOUND"))
    return table


def baseline_entry(workload: str, pooled: List[Dict[str, Any]],
                   details: List[Dict[str, Any]], bounds: Dict[str, float],
                   seconds: int) -> Dict[str, Any]:
    """What ``results/BASELINE.json`` keeps of one workload: the pooled
    untraced runs, their raw diagnostics, and one traced run."""
    traced, traced_detail = run_once(workload, TRACED_SEED, seconds, 1)
    return {
        "host": details[0]["host"],
        "untraced_runs": len(pooled),
        "host_noisy_runs": sum(1 for d in details if d["host_noisy"]),
        "end_to_end": {
            metric: dict(summarise([r["metrics"][metric]["value"]
                                    for r in pooled]),
                         unit=pooled[0]["metrics"][metric]["unit"])
            for metric in bounds},
        # un-normalised p50 / tail / sample count: median over the runs
        "raw_untraced": {key: statistics.median(d["raw"][key]
                                                for d in details)
                         for key in details[0]["raw"]},
        "per_layer": traced["metrics"],
        "traced_run": {k: traced_detail[k] for k in
                       ("seed", "calibration", "host_noisy", "graph",
                        "rounds")},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", action="store_true",
                        help="also write results/BASELINE.json")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    seconds = contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    report: Dict[str, Any] = {"seconds": seconds,
                              "runs_per_set": RUNS_PER_SET, "workloads": {}}
    baseline: Dict[str, Any] = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in contract["workloads"]):
        runs: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
        details: List[Dict[str, Any]] = []
        for i in range(RUNS_PER_SET):
            for side, first in FIRST_SEED.items():
                result, detail = run_once(workload, first + i, seconds, 0)
                runs[side].append(result)
                details.append(detail)
        report["workloads"][workload] = {
            "metrics": compare(workload, runs, details, bounds),
            "host_noisy_runs": sum(1 for d in details if d["host_noisy"]),
            "host": details[0]["host"],
            "calib_p50_ms": [d["calibration"]["calib_p50_ms"]
                             for d in details]}
        if args.baseline:
            baseline["workloads"][workload] = baseline_entry(
                workload, runs["A"] + runs["B"], details, bounds, seconds)
    ok = report["ok"] = all(
        row["ok"] for entry in report["workloads"].values()
        for row in entry["metrics"].values())
    documents = [("AA.json", report)]
    if args.baseline:
        documents.append(("BASELINE.json", baseline))
    RESULTS_DIR.mkdir(exist_ok=True)
    for name, document in documents:
        (RESULTS_DIR / name).write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {RESULTS_DIR / name}")
    print("A/A check " + ("passed" if ok else
                          "FAILED: a gap or a spread exceeds its bound"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
