"""CI gate over one traced ``bench_e2e`` run (perf-smoke job).

Usage::

    python3 benchmarks/e2e/bench_e2e.py --workload social-hashcut \\
        --seed 1 --seconds 0 --trace 1 > e2e.out
    python3 benchmarks/check_overhead.py e2e.out

Reads the run's result line (the last line of its standard output) and
fails when the layers around the kernels have grown back:
``overhead.sssp_x`` / ``overhead.cc_x`` — a served ``play()`` over the
whole-graph CSR kernel floor, two timings taken on the same host minutes
apart, so the ratio needs no reference machine — must stay at or under
``MAX_SSSP_OVERHEAD_X`` / ``MAX_CC_OVERHEAD_X``, and no operation of the
run may have failed.  The SSSP bound sits between the array plane with
dict mirrors beside the state (8.2–10.3x) and with the arrays as the
state (about 6.7x); the CC bound between ``LocalComponents`` as the state
(11.4–12.6x) and ``(comp, lab)`` (4–6.5x).

It also fails when fragment snapshots are built from dict graphs again:
``graph.csr.rebuilds`` counts ``CSRGraph.from_graph`` builds of a whole
fragment graph over the traced schedule, a count that repeats exactly —
0 now: a fresh partition installs every fragment's snapshot (an install
is not a build) and the first read after an update splices the retired
one; 4 (one per fragment) when the partitioner built dict graphs and
the first read built each snapshot from them; 20 when every one of the
16 invalidations was answered with a full build as well — and must stay
at or under ``MAX_CSR_REBUILDS``.

And when the partition is built edge by edge again:
``partition.build_ms`` over ``graph.csr.build_ms`` — the hash partition
and its fragments against one flatten of the graph, two timings of the
same traced run — must stay at or under ``MAX_PARTITION_OVER_CSR_BUILD_X``:
4.3–4.9x with fragments cut from the graph's CSR arrays; 8.4–8.5x when
each fragment's dict graph was filled edge by edge (two traced runs of
each, social-hashcut, 2-core x86-64 Linux VM).

And when the content hash has gone back to visiting the graph record by
record: ``graph.content_hash_ms`` over ``graph.csr.build_ms`` — the hash
is one flatten of the adjacency rows (a ``CSRGraph.from_graph``) plus
array arithmetic, two timings of the same traced run — must stay at or
under ``MAX_HASH_OVER_CSR_BUILD_X``: 1.2–1.5x as arrays; as a format /
encode / ``crc32`` loop over every node and stored edge 5.7–7.0x (two
traced runs of each workload; 3.3 and 4.1 in the two whose
``graph.csr.build_ms`` samples caught a slow stretch of the host).

And when a restart has gone back to building dict graphs while it
loads: ``store.snapshot.load_ms`` over ``store.snapshot.write_ms`` —
the loader hashes the decoded arrays and defers every dict graph to its
first use, the writer flattens and hashes the live graph, two timings
of the same traced run — must stay at or under
``MAX_LOAD_OVER_WRITE_X``: 1.4–2.2x with deferred graphs; 4.9–5.1x when
the loader rebuilt every fragment's and the base graph's dicts and
hashed the rebuilt base (social-hashcut, 2-core x86-64 Linux VM).

And when an update batch has gone back to recomputing its standing
queries (the 6.6x mixed-over-insert-only cliff of the churn workload
before deletions took the bounded path): ``core.updates.fallback_reruns``
— batches a session answered by re-running its query, summed over the
traced schedule's SSSP and CC sessions — must stay at or under
``MAX_FALLBACK_RERUNS``, and ``core.updates.partial_resets`` —
non-monotone batches maintained by resetting their affected region —
at or over ``MIN_PARTIAL_RESETS``: 0 would mean no mixed batch reached
the bounded path.  Both are counts that repeat exactly: 0 and 16 of 24
maintained refreshes on each of the four workloads.
"""

from __future__ import annotations

import json
import sys

MAX_SSSP_OVERHEAD_X = 16.0
MAX_CC_OVERHEAD_X = 10.0
MAX_CSR_REBUILDS = 0
MAX_HASH_OVER_CSR_BUILD_X = 3.0
MAX_PARTITION_OVER_CSR_BUILD_X = 6.5
MAX_LOAD_OVER_WRITE_X = 3.0
MAX_FALLBACK_RERUNS = 0
MIN_PARTIAL_RESETS = 1


def check(result: dict) -> list:
    """Problems found in one result line (empty: the gate passes)."""
    problems = []
    metrics = result.get("metrics", {})
    for name, bound in (("overhead.sssp_x", MAX_SSSP_OVERHEAD_X),
                        ("overhead.cc_x", MAX_CC_OVERHEAD_X)):
        overhead = metrics.get(name, {}).get("value")
        if overhead is None:
            problems.append(f"no {name} in the result "
                            "(was the run made with --trace 1?)")
        elif overhead > bound:
            problems.append(f"{name} = {overhead:.1f} > {bound:.0f}")
    rebuilds = metrics.get("graph.csr.rebuilds", {}).get("value")
    if rebuilds is None:
        problems.append("no graph.csr.rebuilds in the result")
    elif rebuilds > MAX_CSR_REBUILDS:
        problems.append(f"graph.csr.rebuilds = {rebuilds:.0f} > "
                        f"{MAX_CSR_REBUILDS}: fragment snapshots are built "
                        "from dict graphs again")
    build_ms = metrics.get("graph.csr.build_ms", {}).get("value")
    for name, bound, why in (
            ("graph.content_hash_ms", MAX_HASH_OVER_CSR_BUILD_X,
             "the content hash visits the graph record by record again"),
            ("partition.build_ms", MAX_PARTITION_OVER_CSR_BUILD_X,
             "the fragments are built edge by edge again")):
        took = metrics.get(name, {}).get("value")
        if took is None or not build_ms:
            problems.append(f"no {name} / graph.csr.build_ms in the result")
        elif took > bound * build_ms:
            problems.append(f"{name} = {took:.1f} > {bound:g} x "
                            f"graph.csr.build_ms = {build_ms:.1f}: {why}")
    load_ms = metrics.get("store.snapshot.load_ms", {}).get("value")
    write_ms = metrics.get("store.snapshot.write_ms", {}).get("value")
    if load_ms is None or not write_ms:
        problems.append("no store.snapshot.load_ms / store.snapshot.write_ms "
                        "in the result")
    elif load_ms > MAX_LOAD_OVER_WRITE_X * write_ms:
        problems.append(f"store.snapshot.load_ms = {load_ms:.1f} > "
                        f"{MAX_LOAD_OVER_WRITE_X:.0f} x "
                        f"store.snapshot.write_ms = {write_ms:.1f}: the "
                        "loader builds dict graphs again")
    fallbacks = metrics.get("core.updates.fallback_reruns", {}).get("value")
    resets = metrics.get("core.updates.partial_resets", {}).get("value")
    if fallbacks is None or resets is None:
        problems.append("no core.updates.fallback_reruns / "
                        "core.updates.partial_resets in the result")
    elif fallbacks > MAX_FALLBACK_RERUNS or resets < MIN_PARTIAL_RESETS:
        problems.append(f"core.updates.fallback_reruns = {fallbacks:.0f} "
                        f"(at most {MAX_FALLBACK_RERUNS}), "
                        f"core.updates.partial_resets = {resets:.0f} "
                        f"(at least {MIN_PARTIAL_RESETS}): update batches "
                        "recompute their standing queries again")
    failed_share = metrics.get("failed_ops_share", {}).get("value")
    if result.get("failed", 0) or failed_share or not result.get("correct"):
        problems.append(f"failed operations: {result.get('failed')} of "
                        f"{result.get('attempted')} "
                        f"(failed_ops_share = {failed_share})")
    return problems


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[1]) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{argv[1]}: the last line is not a bench_e2e result")
        return 2
    problems = check(result)
    for problem in problems:
        print("FAIL", problem)
    if not problems:
        metrics = result["metrics"]
        print("ok  overhead.sssp_x = "
              f"{metrics['overhead.sssp_x']['value']:.1f} "
              f"<= {MAX_SSSP_OVERHEAD_X:.0f}, overhead.cc_x = "
              f"{metrics['overhead.cc_x']['value']:.1f} "
              f"<= {MAX_CC_OVERHEAD_X:.0f}, graph.csr.rebuilds = "
              f"{metrics['graph.csr.rebuilds']['value']:.0f} "
              f"<= {MAX_CSR_REBUILDS}, graph.content_hash_ms / "
              "graph.csr.build_ms = "
              f"{metrics['graph.content_hash_ms']['value']:.1f} / "
              f"{metrics['graph.csr.build_ms']['value']:.1f} "
              f"<= {MAX_HASH_OVER_CSR_BUILD_X:.0f}, partition.build_ms / "
              "graph.csr.build_ms = "
              f"{metrics['partition.build_ms']['value']:.1f} / "
              f"{metrics['graph.csr.build_ms']['value']:.1f} "
              f"<= {MAX_PARTITION_OVER_CSR_BUILD_X:g}, "
              "store.snapshot.load_ms / "
              "store.snapshot.write_ms = "
              f"{metrics['store.snapshot.load_ms']['value']:.1f} / "
              f"{metrics['store.snapshot.write_ms']['value']:.1f} "
              f"<= {MAX_LOAD_OVER_WRITE_X:.0f}, "
              "core.updates.fallback_reruns = "
              f"{metrics['core.updates.fallback_reruns']['value']:.0f} "
              f"<= {MAX_FALLBACK_RERUNS}, core.updates.partial_resets = "
              f"{metrics['core.updates.partial_resets']['value']:.0f} "
              f">= {MIN_PARTIAL_RESETS}, no failed operation")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
