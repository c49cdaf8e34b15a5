"""Execution backends head-to-head: serial vs thread vs process.

Runs the GIL-bound dict-graph engine paths on the 50k-node/200k-edge
road-style bench graph (the regime where only real process parallelism
can help) across worker counts m ∈ {1, 2, 4, 8}, verifies every backend
produces identical answers, and emits a machine-readable
``benchmarks/results/BENCH_backends.json`` (``--quick`` prints it
instead and writes no file).

Two workloads:

* ``pagerank-dict`` — 30 power iterations, pure-Python inner loop: the
  compute-bound serving shape where the process backend's parallelism
  shows (supersteps amortize the one-time fragment shipping);
* ``sssp-dict`` — one Dijkstra sweep plus a short fixpoint: latency-bound,
  where pipe overhead is visible (reported, not asserted on).

Each (backend, m) cell is measured on a *warm* pool: the first run ships
fragments to the workers (shipping happens once per fragmentation — the
serving steady state), the best of the next ``--repeat`` runs is
reported.  Pass ``--assert-speedup`` (the CI perf-smoke leg) to require
the process backend to beat serial by ≥ 2x at m=4 on pagerank-dict; the
assertion is skipped (exit 0, with a notice) on machines with fewer than
4 usable cores, where the premise is physically impossible.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

from repro.core.engine import GrapeEngine
from repro.graph.generators import grid_road_graph
from repro.partition.base import PartitionStrategy
from repro.pie_programs import PageRankProgram, PageRankQuery, SSSPProgram
from repro.runtime import shm
from repro.runtime.executors import resolve_backend

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BACKENDS = ("serial", "thread", "process")
WORKER_SWEEP = (1, 2, 4, 8)
FULL_SHAPE = (200, 250)    # 50k nodes, ~204k directed edges
QUICK_SHAPE = (40, 50)     # 2k nodes: CI wiring check, no perf claims
PAGERANK_ITERATIONS = 30


class BlockPartition(PartitionStrategy):
    """Contiguous numeric-id ranges: row blocks on the grid graph, so
    borders are one grid row per boundary (the low-cut regime where the
    BSP cost model says parallelism should pay)."""

    name = "block"

    def assign(self, graph, num_fragments):
        nodes = sorted(graph.nodes())
        per = max(1, -(-len(nodes) // num_fragments))
        return {v: min(i // per, num_fragments - 1)
                for i, v in enumerate(nodes)}


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def physical_cores() -> int:
    """Distinct physical cores behind the usable logical CPUs.

    SMT siblings share execution units, so '4 logical CPUs' on a
    2-core/4-thread host cannot deliver 4-worker scaling — the perf
    assertion's premise is *physical* workers.  Falls back to the
    logical count where the sysfs topology is unavailable.
    """
    try:
        cpus = os.sched_getaffinity(0)
    except AttributeError:  # pragma: no cover - non-Linux
        return usable_cores()
    seen = set()
    for cpu in cpus:
        base = f"/sys/devices/system/cpu/cpu{cpu}/topology"
        try:
            with open(f"{base}/physical_package_id") as fh:
                package = fh.read().strip()
            with open(f"{base}/core_id") as fh:
                core = fh.read().strip()
        except OSError:  # pragma: no cover - topology not exposed
            return usable_cores()
        seen.add((package, core))
    return len(seen) or 1


def workloads():
    return {
        "pagerank-dict": (
            lambda: PageRankProgram(use_csr=False),
            PageRankQuery(max_iterations=PAGERANK_ITERATIONS)),
        "sssp-dict": (lambda: SSSPProgram(use_csr=False), 0),
    }


def measure(backend_name, make_program, query, fragmentation, m, repeat):
    """Best-of-``repeat`` wall-clock on a warm pool; answers returned
    for cross-backend verification.  The warm-up run is the *cold
    lease* — the one that transfers fragments — so its shipping figures
    (``fragment_bytes_cold``/``shm_fallbacks_cold``) are what the
    ``--assert-zero-ship`` gate checks."""
    engine = GrapeEngine(m, partition=BlockPartition(),
                         backend=backend_name)
    cold = engine.run(make_program(), query,
                      fragmentation=fragmentation)  # warm the pool
    best = None
    answer = None
    pipe = 0
    frag_bytes_warm = 0
    for _ in range(repeat):
        start = time.perf_counter()
        result = engine.run(make_program(), query,
                            fragmentation=fragmentation)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            pipe = result.metrics.pipe_bytes
        frag_bytes_warm = max(frag_bytes_warm,
                              result.metrics.fragment_bytes_shipped)
        answer = result.answer
    shipping = {
        "fragment_bytes_cold": cold.metrics.fragment_bytes_shipped,
        "shm_fallbacks_cold": cold.metrics.shm_fallbacks,
        "fragment_bytes_warm": frag_bytes_warm,
    }
    return best, pipe, answer, shipping


def approx_equal(a, b, tol=1e-9):
    if set(a) != set(b):
        return False
    return all(abs(a[k] - b[k]) <= tol * max(1.0, abs(a[k])) for k in a)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small graph, m in {1,2}: CI wiring check "
                             "(writes no result file)")
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--assert-speedup", action="store_true",
                        help="require process >= 2x serial at m=4 on "
                             "pagerank-dict (needs >= 4 cores)")
    parser.add_argument("--assert-zero-ship", action="store_true",
                        help="require the process backend to ship zero "
                             "fragment pickle bytes (shared-memory "
                             "descriptor path) with zero fallbacks")
    args = parser.parse_args(argv)

    rows, cols = QUICK_SHAPE if args.quick else FULL_SHAPE
    sweep = (1, 2) if args.quick else WORKER_SWEEP
    cores = usable_cores()
    physical = physical_cores()

    graph = grid_road_graph(rows, cols, seed=7)
    print(f"bench graph: {graph.num_nodes} nodes, {graph.num_edges} "
          f"directed edges; {cores} logical / {physical} physical cores")

    results = {
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges,
                  "generator": f"grid_road_graph({rows}, {cols}, seed=7)"},
        "cores": cores,
        "physical_cores": physical,
        "python": platform.python_version(),
        "pagerank_iterations": PAGERANK_ITERATIONS,
        "quick": args.quick,
        "shm": {"available": shm.shm_available(),
                "provider": getattr(shm.provider(), "kind", None)},
        "workloads": {},
    }

    failures = []
    for name, (make_program, query) in workloads().items():
        table = {}
        for m in sweep:
            frag = GrapeEngine(
                m, partition=BlockPartition()).make_fragmentation(graph)
            reference = None
            for backend in BACKENDS:
                wall, pipe, answer, shipping = measure(
                    backend, make_program, query, frag, m, args.repeat)
                table.setdefault(backend, {})[m] = {
                    "wall_s": round(wall, 4),
                    "pipe_bytes": pipe,
                    **shipping,
                }
                if reference is None:
                    reference = answer
                elif not approx_equal(reference, answer):
                    failures.append(f"{name} m={m}: {backend} answer "
                                    "diverged from serial")
                serial = table["serial"][m]["wall_s"]
                speedup = serial / wall if wall else float("inf")
                table[backend][m]["speedup_vs_serial"] = round(speedup, 3)
                print(f"  {name:14s} m={m} {backend:8s} "
                      f"{wall:8.3f}s  x{speedup:5.2f}  "
                      f"pipe={pipe / 1e6:8.2f}MB")
        results["workloads"][name] = table

    # tear the shared pool down so repeated bench invocations are cold
    resolve_backend("process").close()

    text = json.dumps(results, indent=2, sort_keys=True)
    if args.quick:
        print(text)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / "BENCH_backends.json"
        out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out}")

    if failures:
        print("ANSWER MISMATCHES:", *failures, sep="\n  ")
        return 1

    if args.assert_zero_ship:
        # The zero-copy plane's acceptance bar: on a platform with
        # shared memory, the process backend's cold lease publishes
        # segments and ships descriptors — zero fragment pickle bytes,
        # zero fallbacks — and warm leases ship nothing at all.
        if not shm.shm_available():
            print("--assert-zero-ship skipped: no shared-memory "
                  "provider on this platform")
        else:
            bad = []
            for name, table in results["workloads"].items():
                for m, cell in table["process"].items():
                    if (cell["fragment_bytes_cold"] != 0
                            or cell["shm_fallbacks_cold"] != 0
                            or cell["fragment_bytes_warm"] != 0):
                        bad.append(
                            f"{name} m={m}: cold "
                            f"{cell['fragment_bytes_cold']}B/"
                            f"{cell['shm_fallbacks_cold']} fallbacks, "
                            f"warm {cell['fragment_bytes_warm']}B")
            if bad:
                print("ZERO-SHIP REGRESSION:", *bad, sep="\n  ")
                return 1
            print("zero-ship OK: process backend shipped 0 fragment "
                  "bytes with 0 fallbacks across the sweep")

    if args.assert_speedup:
        # The full x2.0 bar assumes 4 *physical* workers; SMT hosts with
        # 4 logical but fewer physical cores get a softer bar that still
        # proves real beyond-the-GIL parallelism.
        if args.quick:
            print("--assert-speedup ignored with --quick (graph too "
                  "small for perf claims)")
        elif cores < 4:
            print(f"--assert-speedup skipped: {cores} usable cores < 4 "
                  "(process parallelism physically unavailable)")
        else:
            required = 2.0 if physical >= 4 else 1.3
            cell = results["workloads"]["pagerank-dict"]["process"][4]
            speedup = cell["speedup_vs_serial"]
            if speedup < required:
                print(f"PERF REGRESSION: process backend speedup "
                      f"x{speedup:.2f} < x{required:.1f} at m=4 on "
                      f"pagerank-dict ({physical} physical cores)")
                return 1
            print(f"perf-smoke OK: process x{speedup:.2f} serial at m=4 "
                  f"(bar x{required:.1f}, {physical} physical cores)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
