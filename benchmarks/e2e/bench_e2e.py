"""End-to-end and per-layer benchmark for ``GrapeService``.

One command, one workload per invocation::

    python3 benchmarks/e2e/bench_e2e.py --workload road-lowcut --seed 1 \
        --seconds 18 --trace 0

drives a closed loop with one client through the public ``GrapeService``
surface — set-up, warm reads of four query classes, monotone and
non-monotone update batches with standing queries maintained, the read
that follows a write, graceful restart — checks every answer against a
sequential oracle and prints each metric by name with its unit.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics (each layer timed from outside
through its public functions, plus a traced pass) with ``--trace 1``.  The
line before it (``DETAIL {...}``) carries the host fingerprint, the
calibration statistics, the input digests and the guard-rail labels.

Times are host-normalised (see ``hostclock.py``); README.md explains the
method, the workloads and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from harness import Metrics, Run, run_end_to_end  # first: src/ on sys.path
from hostclock import HOST_NOISY_IQR_PCT
from layers import measure_layers
from workloads import WORKLOADS


def emit(run: Run, metrics: Metrics, traced: bool) -> Dict[str, Any]:
    """Print every metric by name with its unit, the run's fingerprint,
    and the result object as the last line."""
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    if not traced:  # a per-layer metric of a traced run; 0 is no metric
        print(f"{'failed_ops_share':<{width}}  "
              f"{run.failed / max(1, run.attempted):>14.6g} share")
    detail = run.detail(traced)
    if detail["host_noisy"]:
        print(f"host_noisy: calibration IQR "
              f"{detail['calibration']['calib_iqr_pct']:.1f}% of its median "
              f"exceeds {HOST_NOISY_IQR_PCT:.0f}%", file=sys.stderr)
    print("DETAIL " + json.dumps(detail, sort_keys=True, default=str))
    result = {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="jitters the update batches' weights and "
                             "shuffles the slot order")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured closed loop "
                             "(run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics plus a traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and two repetitions (a wiring "
                             "check; never a baseline)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.trace:
        print("bench_e2e: a traced run is a fixed schedule; --seconds "
              "does not stretch it", file=sys.stderr)
    run = Run(WORKLOADS[args.workload], args.seed, args.smoke)
    try:
        metrics = (measure_layers(run) if args.trace
                   else run_end_to_end(run, args.seconds))
    finally:
        run.close()  # idempotent: stops the pool, removes the scratch dir
    result = emit(run, metrics, bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
