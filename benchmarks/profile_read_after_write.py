"""Where a first read after a write spends its time, table by table.

Drives the benchmark's own schedule (``benchmarks/e2e/harness.Run``: nine
batches back to back, then write -> read -> write -> write -> read, the
read alternately SSSP and CC) through the public ``GrapeService`` surface
of the checkout named by ``--root`` and wraps timers around the functions
that bring a fragment's derived tables current — no source is touched::

    python3 benchmarks/profile_read_after_write.py --workload social-hashcut
    python3 benchmarks/profile_read_after_write.py --root /path/to/parent

Prints raw milliseconds (no host normalisation: compare two checkouts by
alternating runs): the warm read and the first read after a write per
program, the gap, and per wrapped function its inclusive time per first
read — ``outer_slots`` includes the ``int_labels`` it reaches and the
border table's patch (``_border``; ``_border_slow`` in older
checkouts), ``csr()`` the splice (``from_graph``) and whatever a
checkout does to bring its tables across (wrapped when it has it:
``_carry_tables`` before stable ids) — how often
a label index was learned from the node list, the tombstones the
fragments' id tables hold at the end (stable ids only), and what
``service.stats`` counted.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def wrap(owner, name, spent, calls):
    """Time ``owner.name`` (a function or a property getter) inclusively."""
    attr = owner.__dict__[name]
    raw = attr.fget if isinstance(attr, property) else (
        attr.__func__ if isinstance(attr, (classmethod, staticmethod))
        else attr)
    key = f"{owner.__name__}.{name}"

    def timed(*args, **kwargs):
        if name == "int_labels" and args[0]._label_index is None:
            calls["label index learned from the node list"] += 1
        start = time.perf_counter()
        try:
            return raw(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - start
            calls[key] += 1

    if isinstance(attr, property):
        timed = property(timed)
    elif isinstance(attr, classmethod):
        timed = classmethod(timed)
    setattr(owner, name, timed)
    return key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve()
                                              .parents[1]))
    parser.add_argument("--workload", default="social-hashcut")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root) / "benchmarks" / "e2e"))
    harness = importlib.import_module("harness")  # puts <root>/src first
    workloads = importlib.import_module("workloads")
    from repro.graph.csr import CSRGraph
    from repro.partition.base import Fragment, Fragmentation

    spent, calls = defaultdict(float), defaultdict(int)
    keys = [wrap(CSRGraph, "from_graph", spent, calls),
            wrap(CSRGraph, "int_labels", spent, calls),
            wrap(Fragment, "csr", spent, calls),
            wrap(Fragment, "outer_slots", spent, calls),
            wrap(Fragment, "owned_slots", spent, calls),
            wrap(Fragment, "border_slots", spent, calls),
            wrap(Fragmentation, "border_index", spent, calls)]
    for name in ("_border_slow", "_border", "_carry_tables"):
        if name in Fragment.__dict__:  # (whichever the checkout has)
            keys.append(wrap(Fragment, name, spent, calls))

    run = harness.Run(workloads.WORKLOADS[args.workload], args.seed, False)
    reads = defaultdict(list)       # (program, "warm" | "first") -> ms
    tables = defaultdict(list)      # wrapped function -> ms per first read
    real_timed = run.timed

    def timed(metric, fn, slot=0):
        if metric not in ("sssp_ms", "cc_ms", "read_after_write_ms"):
            return real_timed(metric, fn, slot)
        first = metric == "read_after_write_ms"
        program = slot[1] if first else metric[:-3]
        gc.collect()
        before = dict(spent)
        start = time.perf_counter()
        out = run.attempt(metric, fn)
        reads[program, "first" if first else "warm"].append(
            (time.perf_counter() - start) * 1e3)
        if first:
            for key in keys:
                tables[key].append((spent[key] - before.get(key, 0.0)) * 1e3)
        return out

    run.timed = timed
    try:
        run.setup(1)
        run.start_watches()
        for _ in range(args.rounds):
            run.one_round()
        stats = run.service.stats
        med = statistics.median
        print(f"{args.workload} @ {args.root}: {args.rounds} rounds, raw ms")
        gaps = []
        for program in ("sssp", "cc"):
            warm, first = med(reads[program, "warm"]), \
                med(reads[program, "first"])
            gaps.append(first - warm)
            print(f"  {program:<5} warm {warm:6.2f}   first read after a "
                  f"write {first:6.2f}   gap {first - warm:6.2f}")
        print(f"  mean gap {sum(gaps) / len(gaps):.2f}")
        print("  per first read (median; inclusive):")
        for key in keys:
            print(f"    {key:<28} {med(tables[key]):6.2f}   "
                  f"({calls[key]} calls in all)")
        for name in ("csr_snapshots_built", "csr_snapshots_patched",
                     "csr_snapshot_invalidations", "border_index_patches",
                     "derived_tables_carried", "derived_tables_rebuilt"):
            if hasattr(stats, name):
                print(f"  stats.{name} = {getattr(stats, name)}")
        fragments = run.service.fragmentation(harness.GRAPH_NAME)
        if hasattr(Fragment, "id_table"):
            print("  tombstones / ids: " + ", ".join(
                f"{len(f.id_table()[2])}/{len(f.id_table()[0])}"
                for f in fragments))
        print("  label index learned from the node list: "
              f"{calls['label index learned from the node list']} times")
        print(f"  failed operations: {run.failed}")
    finally:
        run.close()
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
