"""Churn workload: the update pipeline under interleaved play/update.

Drives a :class:`~repro.service.GrapeService` holding one graph with two
standing queries (SSSP + CC) through rounds of

    play("sssp")  ->  insert-only batch  ->  mixed batch

where both kinds take the delete-aware bounded path: insert-only
batches with an empty affected region, mixed batches (deletions +
weight increases) with a partial reset of the affected region (only
hook-less programs recompute).  Reports per-batch
latencies, the incremental/bounded/recompute split and the measured
affected-region sizes, runs a deletion sweep targeting ~1%/5%/20% of
``|G|``, and emits machine-readable
``benchmarks/results/BENCH_updates.json``.

Run with ``--backend process`` to also measure worker-side delta replay
(``delta_bytes_shipped`` vs full fragment re-ships); the default serial
backend keeps CI runs deterministic and fast.  ``--quick`` shrinks the
graph and round count to a wiring check.  ``--assert-cliff [RATIO]``
turns the run into a perf-smoke gate: mixed batches must stay within
``RATIO``x of insert-only (default 2.5 — the recompute cliff this
bench once measured was 6.6x) with at most 2 recompute fallbacks.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time

from _common import RESULTS_DIR
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.sequential import connected_components, sssp_distances
from repro.service import GrapeService

FULL_SHAPE = (4000, 12000)   # nodes, edges
QUICK_SHAPE = (400, 1200)
FULL_ROUNDS = 12
QUICK_ROUNDS = 3
BATCH = 8


def insert_only_delta(rng, g, fresh):
    delta = GraphDelta()
    nodes = list(g.nodes())
    for _ in range(BATCH):
        if rng.random() < 0.25:
            fresh[0] += 1
            delta.insert(len(nodes) + 10_000 + fresh[0],
                         rng.choice(nodes), rng.uniform(0.1, 1.0))
        else:
            u, v = rng.sample(nodes, 2)
            if g.has_edge(u, v):
                # keep the batch monotone: re-inserting an existing edge
                # is monotone only as a weight *decrease*
                delta.insert(u, v, g.edge_weight(u, v) * 0.9)
            else:
                delta.insert(u, v, rng.uniform(0.1, 1.0))
    return delta


def mixed_delta(rng, g):
    delta = GraphDelta()
    edges = list(g.edges())
    for _ in range(BATCH):
        kind = rng.random()
        u, v, w = rng.choice(edges)
        if kind < 0.45:
            delta.delete(u, v)
        elif kind < 0.75:
            delta.set_weight(u, v, w * rng.uniform(1.5, 4.0))
        else:
            nodes = list(g.nodes())
            delta.insert(rng.choice(nodes), rng.choice(nodes),
                         rng.uniform(0.1, 1.0))
    return delta


def run_phase(service, g, rng, rounds, make_delta, fresh):
    latencies = []
    stats = service.stats
    base = (stats.incremental_maintained, stats.fallback_reruns,
            stats.delta_bytes_shipped, stats.partial_resets,
            stats.affected_vertices)
    for _ in range(rounds):
        service.play("sssp", 0, graph="churn")
        delta = make_delta(rng, g) if fresh is None \
            else make_delta(rng, g, fresh)
        t0 = time.perf_counter()
        service.update("churn", delta)
        latencies.append(time.perf_counter() - t0)
    return {
        "rounds": rounds,
        "batch_size": BATCH,
        "total_s": round(sum(latencies), 4),
        "mean_update_ms": round(1e3 * sum(latencies) / len(latencies), 3),
        "max_update_ms": round(1e3 * max(latencies), 3),
        "incremental_maintained": stats.incremental_maintained - base[0],
        "fallback_reruns": stats.fallback_reruns - base[1],
        "delta_bytes_shipped": stats.delta_bytes_shipped - base[2],
        "partial_resets": stats.partial_resets - base[3],
        "affected_vertices": stats.affected_vertices - base[4],
    }


def region_sweep(service, g, rng, pcts, repeats=3):
    """Latency as a function of affected-region size.

    For each target percentage, delete ``pct * |G|`` random live edges
    in one batch (the region the bounded path must reset grows with the
    number of severed support edges), measure the update, then undo it
    with the inverse insertion batch (monotone, excluded from timing)
    so every sweep point starts from the same graph.  The *measured*
    region is reported from the ``affected_vertices`` counter — the
    nominal percentage only steers batch size.
    """
    stats = service.stats
    points = []
    for pct in pcts:
        k = max(1, int(pct * g.num_nodes))
        lat = []
        base = (stats.partial_resets, stats.affected_vertices,
                stats.fallback_reruns)
        for _ in range(repeats):
            picked = rng.sample(sorted(g.edges()), k)
            delta = GraphDelta()
            for u, v, _w in picked:
                delta.delete(u, v)
            t0 = time.perf_counter()
            service.update("churn", delta)
            lat.append(time.perf_counter() - t0)
            undo = GraphDelta()
            for u, v, w in picked:
                undo.insert(u, v, w)
            service.update("churn", undo)
        resets = stats.partial_resets - base[0]
        affected = stats.affected_vertices - base[1]
        points.append({
            "target_pct": pct,
            "deleted_edges": k,
            "repeats": repeats,
            "mean_update_ms": round(1e3 * sum(lat) / len(lat), 3),
            "partial_resets": resets,
            "fallback_reruns": stats.fallback_reruns - base[2],
            "affected_vertices": affected,
            "mean_affected_per_reset": round(affected / resets, 1)
            if resets else 0.0,
        })
    return points


def verify(service, g):
    sssp_watch, cc_watch = service.watches("churn")
    oracle = sssp_distances(g, 0)
    assert all(abs(sssp_watch.answer[v] - d) < 1e-9
               for v, d in oracle.items()
               if d != float("inf")), "SSSP watch diverged from oracle"
    cids = connected_components(g)
    buckets = {}
    for v, c in cids.items():
        buckets.setdefault(c, set()).add(v)
    expected = {c: frozenset(members) for c, members in buckets.items()}
    got = {c: frozenset(members) for c, members in cc_watch.answer.items()}
    assert got == expected, "CC watch diverged from oracle"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small graph, few rounds (CI wiring check)")
    parser.add_argument("--backend", default="serial",
                        help="execution backend (serial/thread/process)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--assert-cliff", nargs="?", type=float,
                        const=2.5, default=None, metavar="RATIO",
                        help="fail unless mixed batches stay within "
                             "RATIO x insert-only (default 2.5) with "
                             "at most 2 recompute fallbacks")
    args = parser.parse_args()

    n, m = QUICK_SHAPE if args.quick else FULL_SHAPE
    rounds = QUICK_ROUNDS if args.quick else FULL_ROUNDS
    rng = random.Random(args.seed)
    g = uniform_random_graph(n, m, directed=False, seed=args.seed)

    with GrapeService(backend=args.backend) as service:
        service.load_graph("churn", g)
        t0 = time.perf_counter()
        service.watch("sssp", 0, graph="churn")
        service.watch("cc", graph="churn")
        watch_setup_s = time.perf_counter() - t0

        fresh = [0]
        insert_only = run_phase(service, g, rng, rounds,
                                insert_only_delta, fresh)
        mixed = run_phase(service, g, rng, rounds, mixed_delta, None)
        sweep = region_sweep(service, g, rng, (0.01, 0.05, 0.20),
                             repeats=1 if args.quick else 3)
        verify(service, g)
        stats = service.stats

        result = {
            "bench": "updates-churn",
            "backend": args.backend,
            "quick": args.quick,
            "python": platform.python_version(),
            "graph": {"nodes": n, "edges": m, "directed": False},
            "watch_setup_s": round(watch_setup_s, 4),
            "insert_only": insert_only,
            "mixed": mixed,
            "mixed_over_insert_only": round(
                mixed["mean_update_ms"]
                / max(insert_only["mean_update_ms"], 1e-9), 2),
            "region_sweep": sweep,
            "service": {
                "updates_applied": stats.updates_applied,
                "watch_refreshes": stats.watch_refreshes,
                "incremental_maintained": stats.incremental_maintained,
                "fallback_reruns": stats.fallback_reruns,
                "maintained_ratio": round(stats.maintained_ratio, 4),
                "partial_resets": stats.partial_resets,
                "affected_vertices": stats.affected_vertices,
                "delta_bytes_shipped": stats.delta_bytes_shipped,
                "supersteps_total": stats.supersteps_total,
            },
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    name = "BENCH_updates_quick.json" if args.quick else "BENCH_updates.json"
    out = RESULTS_DIR / name
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"updates-churn ({n} nodes / {m} edges, backend={args.backend})")
    print(f"  insert-only: {insert_only['mean_update_ms']:8.2f} ms/batch  "
          f"(maintained {insert_only['incremental_maintained']}, "
          f"fallbacks {insert_only['fallback_reruns']})")
    print(f"  mixed:       {mixed['mean_update_ms']:8.2f} ms/batch  "
          f"(maintained {mixed['incremental_maintained']}, "
          f"fallbacks {mixed['fallback_reruns']}, "
          f"resets {mixed['partial_resets']}, "
          f"|AFF| {mixed['affected_vertices']})")
    print(f"  mixed / insert-only: {result['mixed_over_insert_only']:.2f}x")
    for p in sweep:
        print(f"  sweep {100 * p['target_pct']:4.0f}%: "
              f"{p['mean_update_ms']:8.2f} ms/batch  "
              f"({p['deleted_edges']} deletions, mean |AFF|/reset "
              f"{p['mean_affected_per_reset']})")
    print(f"  watch answers verified against sequential oracles")
    print(f"  wrote {out}")

    if args.assert_cliff is not None:
        ratio = result["mixed_over_insert_only"]
        if ratio > args.assert_cliff:
            print(f"  FAIL: mixed/insert-only {ratio:.2f}x exceeds "
                  f"{args.assert_cliff:.2f}x")
            return 1
        if mixed["fallback_reruns"] > 2:
            print(f"  FAIL: {mixed['fallback_reruns']} recompute "
                  f"fallbacks in the mixed phase (allowed: 2)")
            return 1
        print(f"  cliff gate passed: {ratio:.2f}x <= "
              f"{args.assert_cliff:.2f}x, "
              f"{mixed['fallback_reruns']} fallbacks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
