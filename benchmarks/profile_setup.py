"""Where a cold set-up spends its time, phase by phase.

Drives the benchmark's set-up (``benchmarks/e2e/harness.Run.setup``: a
durable service, ``load_graph``, the first SSSP and the first CC) through
the public ``GrapeService`` surface of the checkout named by ``--root``,
``--reps`` times on fresh stores, then one ``update()`` batch on the
last service::

    python3 benchmarks/profile_setup.py --workload road-lowcut
    python3 benchmarks/profile_setup.py --root /path/to/parent

Prints raw milliseconds (no host normalisation: compare two checkouts by
alternating runs), the median over the repetitions of each phase's
*exclusive* time — a phase nested in another is taken out of it, so the
rows add up to the set-up: the snapshot write of ``load_graph``, the
base graph's CSR, the strategy's ``assign``, the fragment build, ``G_P``,
the ``BorderIndex``, fragment snapshots built from dicts, and the rest
of the first SSSP and the first CC.  Then the cyclic collector's full
passes inside set-up, the dict graphs built from arrays
(``DeferredGraph`` fills) during set-up, and the time and fills of the
first ``update()`` — work a lazier set-up moves to the first write shows
there.  Phases are found by wrapping functions both layouts have, so an
older checkout reads as well.  No gate.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import time
from pathlib import Path

PHASES = ("snapshot write", "base CSR", "assign", "fragment build", "G_P",
          "BorderIndex", "fragment CSR", "first SSSP", "first CC")


class Phases:
    """Exclusive time per phase: a wrapped call's time is its phase's,
    less the time of the wrapped calls inside it."""

    def __init__(self):
        self.spent = dict.fromkeys(PHASES, 0.0)
        self.stack = []

    def wrap(self, owner, attr, phase):
        real = vars(owner).get(attr, getattr(owner, attr))
        if isinstance(real, classmethod):
            setattr(owner, attr, classmethod(self.timed(real.__func__, phase)))
        else:
            setattr(owner, attr, self.timed(real, phase))

    def timed(self, real, phase):
        def call(*args, **kwargs):
            name = phase(*args, **kwargs) if callable(phase) else phase
            if name is None:
                return real(*args, **kwargs)
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.spent[name] += elapsed - self.stack.pop()
                if self.stack:
                    self.stack[-1] += elapsed
        return call


def install(phases, harness, graph_of, strategy_cls):
    """Wrap every phase's function in the imported checkout."""
    from repro.graph.csr import CSRGraph
    from repro.partition import base
    from repro.store.catalog import GraphStore

    def csr_phase(_cls, g, *args, **kwargs):
        if kwargs.get("base") is not None:
            return None
        return "base CSR" if g is graph_of() else "fragment CSR"

    phases.wrap(harness.Run, "play", lambda _run, program, *_a, **_k:
                "first SSSP" if program == "sssp" else "first CC")
    phases.wrap(GraphStore, "persist_graph", "snapshot write")
    phases.wrap(CSRGraph, "from_graph", csr_phase)
    phases.wrap(strategy_cls, "assign", "assign")
    phases.wrap(base, "build_edge_cut_fragments", "fragment build")
    phases.wrap(base.FragmentationGraph, "__init__", "G_P")
    phases.wrap(base.BorderIndex, "build", "BorderIndex")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve()
                                              .parents[1]))
    parser.add_argument("--workload", default="road-lowcut")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="the workload's small graph (a wiring check)")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root) / "benchmarks" / "e2e"))
    harness = importlib.import_module("harness")  # puts <root>/src first
    workloads = importlib.import_module("workloads")
    from repro.graph.graph import DeferredGraph

    workload = workloads.WORKLOADS[args.workload]
    run = harness.Run(workload, args.seed, args.smoke)
    phases = Phases()
    install(phases, harness, lambda: run.graph,
            type(workload.engine_config().partition))
    # full passes inside the timed call only: the calibration bracket
    # around it collects on purpose
    passes, timed = [], [False]
    bracket = importlib.import_module("hostclock").Bracket
    real_run = bracket.run

    def run_timed(*args, **kwargs):
        timed[0] = True
        try:
            return real_run(*args, **kwargs)
        finally:
            timed[0] = False

    bracket.run = run_timed
    gc.callbacks.append(lambda stage, info: passes.append(
        info["generation"]) if stage == "start" and timed[0] else None)
    rows = []
    try:
        for _ in range(args.reps):
            if run.service is not None:
                run.discard(run.service, run.backend)
                shutil.rmtree(run.store_dir, ignore_errors=True)
                run.service = run.backend = None
            phases.spent = dict.fromkeys(PHASES, 0.0)
            fills, passes[:] = DeferredGraph.materialised, []
            start = time.perf_counter()
            run.setup(1)
            total = time.perf_counter() - start
            rows.append({**{k: v * 1e3 for k, v in phases.spent.items()},
                         "setup": total * 1e3,
                         "full GC passes": passes.count(2),
                         "fills": DeferredGraph.materialised - fills})
        _slot, _kind, batch = run.batches.next_batch()
        fills = DeferredGraph.materialised
        start = time.perf_counter()
        run.service.update(harness.GRAPH_NAME, batch)
        update_ms = (time.perf_counter() - start) * 1e3
        update_fills = DeferredGraph.materialised - fills
    finally:
        run.close()
    med = {key: statistics.median(row[key] for row in rows)
           for key in rows[0]}
    print(f"{args.workload} @ {args.root}: {args.reps} set-ups, raw ms, "
          "medians of exclusive time")
    for name in PHASES:
        print(f"  {name:<15} {med[name]:8.1f}")
    rest = med["setup"] - sum(med[name] for name in PHASES)
    print(f"  {'(rest)':<15} {rest:8.1f}")
    print(f"  {'set-up':<15} {med['setup']:8.1f}")
    print(f"  full GC passes in set-up: {med['full GC passes']:.0f}; "
          f"dict graph fills in set-up: {med['fills']:.0f}")
    print(f"  first update(): {update_ms:.1f} ms, {update_fills} dict "
          "graph fills")
    print(f"  failed operations: {run.failed}")
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
