"""Telemetry bench: overhead of the observability plane when armed.

A fixed batch of SSSP queries served by a plain service vs the same
service with the full telemetry plane on (per-query trace spans, the
slow-query log threshold, and the structured event stream that the
spans and lifecycle hooks feed).  Tracing is opt-in and the engine
guards every touch with ``if trace is not None``, so the difference is
the real cost: span allocation, the extra span-id string per shipped
step command, and the ``(name, duration, tags)`` tuples workers return.

The acceptance target is **< 5%** overhead (asserted with
``--assert-overhead``; timing noise makes an unconditional CI assert
flaky).  The machine-readable result lands in
``benchmarks/results/BENCH_obs.json``; ``--quick`` shrinks the graph
and counts to a CI wiring check that prints its result and writes no
file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import time

from repro.core.engine import EngineConfig
from repro.graph.generators import uniform_random_graph
from repro.obs import events
from repro.service import GrapeService

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
FULL_SHAPE = (3000, 10_000)   # nodes, edges
QUICK_SHAPE = (600, 2000)
FULL_QUERIES = 12
QUICK_QUERIES = 4
# ABBA measurement cycles (plain, traced, traced, plain); the median of
# per-cycle ratios cancels linear drift and resists contention spikes.
CYCLES = 4


def batch_seconds(service, sources):
    t0 = time.perf_counter()
    for src in sources:
        service.play("sssp", src, graph="soc")
    return time.perf_counter() - t0


def serve_overhead(g, sources, backend, cycles):
    """Overhead of the armed telemetry plane, plain vs instrumented.

    One service, one worker pool: tracing is toggled per batch, so
    pool identity, CPU placement and page-cache warmth are held
    constant and the only difference between the two series is the
    telemetry plane itself.  Batches run in ABBA cycles
    (plain, traced, traced, plain) and the reported overhead is the
    **median of per-cycle ratios** — linear drift cancels within a
    cycle, and a contention spike can corrupt at most one cycle.
    """
    svc = GrapeService(engine=EngineConfig(backend=backend),
                       grouping=False, tracing=True, slow_query_s=0.0)
    svc.load_graph("soc", g)
    slow_log = svc.slow_queries

    def arm(traced):
        svc.tracing = traced
        svc.slow_queries = slow_log if traced else None

    arm(False)
    svc.play("sssp", sources[0], graph="soc")  # partition + pool warm
    ratios = []
    plain_s = traced_s = 0.0
    for _ in range(cycles):
        arm(False)
        p1 = batch_seconds(svc, sources)
        arm(True)
        t1 = batch_seconds(svc, sources)
        t2 = batch_seconds(svc, sources)
        arm(False)
        p2 = batch_seconds(svc, sources)
        plain_s += p1 + p2
        traced_s += t1 + t2
        ratios.append((t1 + t2) / (p1 + p2))
    svc.close()
    ratios.sort()
    mid = len(ratios) // 2
    median = (ratios[mid] if len(ratios) % 2
              else (ratios[mid - 1] + ratios[mid]) / 2.0)
    return {"plain": plain_s / (2 * cycles),
            "traced": traced_s / (2 * cycles),
            "cycle_ratios": [round(r, 4) for r in ratios],
            "median_ratio": median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small graph, few queries (CI wiring check; "
                             "writes no result file)")
    parser.add_argument("--backend", default="process",
                        choices=["serial", "thread", "process"])
    parser.add_argument("--assert-overhead", action="store_true",
                        help="fail unless traced overhead < 5%%")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    n, m = QUICK_SHAPE if args.quick else FULL_SHAPE
    num_queries = QUICK_QUERIES if args.quick else FULL_QUERIES
    rng = random.Random(args.seed)
    g = uniform_random_graph(n, m, directed=False, seed=args.seed)
    sources = [rng.randrange(n) for _ in range(num_queries)]

    cycles = 2 if args.quick else CYCLES
    # Measure with a private event log so batch runs don't rotate the
    # process-wide ring while other benches read it.
    with events.use(events.EventLog()) as log:
        timings = serve_overhead(g, sources, args.backend, cycles)
        events_emitted = log.total
    overhead_pct = 100.0 * (timings["median_ratio"] - 1.0)

    result = {
        "bench": "obs",
        "quick": args.quick,
        "python": platform.python_version(),
        "graph": {"nodes": n, "edges": m, "directed": False},
        "backend": args.backend,
        "tracing_overhead": {
            "queries": num_queries,
            "cycles": cycles,
            "plain_batch_s": round(timings["plain"], 4),
            "traced_batch_s": round(timings["traced"], 4),
            "cycle_ratios": timings["cycle_ratios"],
            "overhead_pct": round(overhead_pct, 2),
            "target_pct": 5.0,
            "events_emitted": events_emitted,
        },
    }
    text = json.dumps(result, indent=2)
    print(text)
    if not args.quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_obs.json").write_text(text + "\n",
                                                    encoding="utf-8")
    if args.assert_overhead and overhead_pct >= 5.0:
        raise SystemExit(
            f"tracing overhead {overhead_pct:.2f}% >= 5% target")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
