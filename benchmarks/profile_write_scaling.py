"""How a write's deferred cost grows with the graph.

A write (``GrapeService.update``) leaves work for the next read: the
touched fragments' snapshots and tables are brought current by the first
query after it.  This probe measures, on ``social_like`` graphs of three
sizes (3k / 12k / 48k nodes by default), hash-cut into four fragments on
the serial backend, per round: one 32-operation mixed batch (deletions
that retire mirrors, weight increases, insertions two hops apart that add
them), the first SSSP after it, and a warm SSSP — and prints the medians
and the *deferred cost* ``write + (first read - warm read)``.  Bounded
maintenance in the paper's sense (Section 3) keeps that cost flat as the
graph grows; the last line is the ratio of the largest size's deferred
cost to the smallest's.  Not a gate: raw milliseconds, no host
normalisation — compare two checkouts by alternating runs::

    python3 benchmarks/profile_write_scaling.py
    python3 benchmarks/profile_write_scaling.py --root /path/to/parent
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import sys
import time
from pathlib import Path


def mixed_batch(graph, rng, ops=32):
    """14 deletions, 10 weight increases, 8 insertions two hops apart."""
    from repro.graph.delta import GraphDelta
    edges = rng.sample(sorted(graph.edges()), ops)
    delta = GraphDelta()
    for u, v, _w in edges[:14]:
        delta.delete(u, v)
    for u, v, w in edges[14:24]:
        delta.set_weight(u, v, w + 1.0)
    for u, _v, _w in edges[24:]:
        far = next((x for n in graph.neighbors(u) for x in graph.neighbors(n)
                    if x != u and not graph.has_edge(u, x)), None)
        if far is not None:
            delta.insert(u, far, rng.random())
    return delta


def probe(nodes: int, rounds: int, seed: int):
    from repro import EngineConfig
    from repro.partition.strategies import HashPartition
    from repro.service import GrapeService
    from repro.workloads import social_like

    graph = social_like(scale=nodes / 4000, seed=seed)
    rng = random.Random(seed)
    source = min(graph.nodes())
    times = {"write": [], "first": [], "warm": []}
    with GrapeService(engine=EngineConfig(
            num_workers=4, partition=HashPartition(), backend="serial"),
            grouping=False) as service:
        service.load_graph("g", graph)
        service.play("sssp", source, graph="g")
        service.play("cc", None, graph="g")
        for _ in range(rounds):
            delta = mixed_batch(graph, rng)
            for name, call in (
                    ("write", lambda: service.update("g", delta)),
                    ("first", lambda: service.play("sssp", source, graph="g")),
                    ("warm", lambda: service.play("sssp", source, graph="g"))):
                gc.collect()
                start = time.perf_counter()
                call()
                times[name].append((time.perf_counter() - start) * 1e3)
    return graph.num_nodes, {k: statistics.median(v) for k, v in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve()
                                              .parents[1]))
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[3000, 12000, 48000])
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root) / "src"))

    print(f"write scaling @ {args.root}: {args.rounds} rounds, raw ms "
          "(medians)")
    deferred = []
    for size in args.sizes:
        n, med = probe(size, args.rounds, args.seed)
        cost = med["write"] + med["first"] - med["warm"]
        deferred.append(cost)
        print(f"  social {n:>6} nodes: write {med['write']:7.2f}   first "
              f"read {med['first']:7.2f}   warm read {med['warm']:7.2f}   "
              f"deferred {cost:7.2f}")
    print(f"  deferred cost, largest / smallest: "
          f"{deferred[-1] / deferred[0]:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
