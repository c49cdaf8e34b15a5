"""Where a warm restart spends its time, serial backend against process.

Drives the benchmark's restart (``benchmarks/e2e/harness.Run.restarts``:
one untimed update batch, then ``close()`` with its checkpoint, a new
service and pool on the same store, the first SSSP) through the public
``GrapeService`` surface of the checkout named by ``--root``, once per
backend on the same workload graph, partition and schedule::

    python3 benchmarks/profile_restart.py --workload road-process
    python3 benchmarks/profile_restart.py --root /path/to/parent

Prints raw milliseconds (no host normalisation: compare two checkouts by
alternating runs), the median over ``--reps`` restarts: close, reopen
and first play; the time and bytes of the shared-memory publishes the
first play made; and the dict graphs built from arrays (``DeferredGraph``
fills) in the coordinator and in the workers.  Worker fills are counted
by a wrapper the forked workers inherit, so they are read on any
checkout (under a non-``fork`` start method they show as 0).  No gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import multiprocessing
import os
import statistics
import sys
import time
from pathlib import Path


def count_fills(deferred, main_pid, counts, workers):
    """Count ``deferred``'s fills: this process's in ``counts``, a
    forked worker's in the shared ``workers`` value."""
    real = deferred.__getattr__

    def counting(self, name):
        pending = type(self) is deferred
        out = real(self, name)
        if pending and type(self) is not deferred:
            if os.getpid() == main_pid:
                counts["coordinator"] += 1
            else:
                with workers.get_lock():
                    workers.value += 1
        return out

    deferred.__getattr__ = counting


def time_publishes(shm, spent):
    """Time ``shm.publish_fragment`` and sum the segment bytes."""
    real = shm.publish_fragment

    def timed(*args, **kwargs):
        start = time.perf_counter()
        seg, desc = real(*args, **kwargs)
        spent["publish_ms"] += (time.perf_counter() - start) * 1e3
        spent["segment_bytes"] += desc.nbytes
        spent["publishes"] += 1
        return seg, desc

    shm.publish_fragment = timed


def profile(harness, workload, seed, reps, smoke, counts, workers, spent):
    run = harness.Run(workload, seed, smoke)
    rows = []
    try:
        run.setup(1)
        for _ in range(reps):
            _slot, _kind, batch = run.batches.next_batch()
            run.service.update(harness.GRAPH_NAME, batch)
            counts["coordinator"] = 0
            workers.value = 0
            spent.update(publish_ms=0.0, segment_bytes=0, publishes=0)
            start = time.perf_counter()
            run.service.close()
            if run.backend is not None:
                run.backend.close()
            closed = time.perf_counter()
            backend = run.new_backend()
            service = run.open_service(run.store_dir, backend)
            run.service, run.backend = service, backend
            opened = time.perf_counter()
            run.play("sssp", run.slots[0])
            played = time.perf_counter()
            rows.append({"close_ms": (closed - start) * 1e3,
                         "reopen_ms": (opened - closed) * 1e3,
                         "first_play_ms": (played - opened) * 1e3,
                         "restart_ms": (played - start) * 1e3,
                         **spent,
                         "fills_coordinator": counts["coordinator"],
                         "fills_workers": workers.value,
                         "stats_fills":
                             service.stats.dict_graphs_materialised})
    finally:
        run.close()
    return rows, run.failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve()
                                              .parents[1]))
    parser.add_argument("--workload", default="road-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="the workload's small graph (a wiring check)")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root) / "benchmarks" / "e2e"))
    harness = importlib.import_module("harness")  # puts <root>/src first
    workloads = importlib.import_module("workloads")
    from repro.graph.graph import DeferredGraph
    from repro.runtime import shm

    counts = {"coordinator": 0}
    workers = multiprocessing.Value("i", 0)
    spent = {}
    count_fills(DeferredGraph, os.getpid(), counts, workers)
    time_publishes(shm, spent)
    base = workloads.WORKLOADS[args.workload]
    failed = 0
    print(f"{args.workload} @ {args.root}: {args.reps} restarts, raw ms, "
          "medians")
    for backend in ("serial", "process"):
        workload = dataclasses.replace(base, backend=backend)
        rows, bad = profile(harness, workload, args.seed, args.reps,
                            args.smoke, counts, workers, spent)
        failed += bad
        med = {key: statistics.median(row[key] for row in rows)
               for key in rows[0]}
        print(f"  {backend:<8} restart {med['restart_ms']:7.1f} = close "
              f"{med['close_ms']:6.1f} + reopen {med['reopen_ms']:6.1f} "
              f"+ first play {med['first_play_ms']:6.1f}")
        print(f"           publish {med['publish_ms']:6.1f} ms over "
              f"{med['publishes']:.0f} segments, "
              f"{med['segment_bytes'] / 1e6:.2f} MB")
        print(f"           dict graph fills: coordinator "
              f"{med['fills_coordinator']:.0f}, workers "
              f"{med['fills_workers']:.0f} (service.stats "
              f"{med['stats_fills']:.0f})")
    print(f"  failed operations: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
