"""Road-network routing: the Table 1 story at laptop scale.

Runs the same batch of shortest-path queries on a large-diameter road
network under all four systems (GRAPE, vertex-centric "Giraph", GAS
"GraphLab", block-centric "Blogel") and prints the paper-style
comparison: GRAPE needs a fraction of the supersteps and bytes because a
fragment's worth of road network is traversed locally per superstep,
while a vertex program advances one hop per superstep.
``benchmarks/paper_claims.py`` checks the same claim at 50k nodes.

Run:  python examples/road_network_routing.py
"""

from functools import partial

from repro import GrapeEngine
from repro.baselines import (BlogelEngine, GASEngine, PregelEngine,
                             SSSPBlockProgram, SSSPGASProgram,
                             SSSPVertexProgram)
from repro.partition.strategies import MetisLikePartition
from repro.pie_programs import SSSPProgram
from repro.sequential import sssp_distances
from repro.workloads import sample_sources, traffic_like


def main():
    graph = traffic_like(scale=0.2)  # ~800 nodes, large diameter
    sources = sample_sources(graph, 3, seed=7)
    n = 8
    print(f"road network: {graph.num_nodes} intersections, "
          f"{graph.num_edges} road segments; "
          f"{len(sources)} routing queries, n={n} workers\n")

    grape = GrapeEngine(n, partition=MetisLikePartition())
    systems = {
        "giraph": partial(PregelEngine(n).run, SSSPVertexProgram(), graph),
        "graphlab": partial(GASEngine(n).run, SSSPGASProgram(), graph),
        "blogel": partial(BlogelEngine(n).run, SSSPBlockProgram(), graph),
        "grape": lambda s: grape.run(SSSPProgram(), s, graph=graph),
    }

    print(f"{'system':<10} {'comm(MB)':>10} {'supersteps':>11}")
    for name, run in systems.items():
        results = [run(s) for s in sources]
        comm = sum(r.metrics.comm_megabytes for r in results) / len(sources)
        steps = sum(r.metrics.supersteps for r in results) / len(sources)
        print(f"{name:<10} {comm:>10.4f} {steps:>11.1f}")
        # Every system agrees with Dijkstra, hence with each other.
        for source, result in zip(sources, results):
            assert all(abs(result.answer[v] - d) < 1e-9
                       for v, d in sssp_distances(graph, source).items()
                       if d != float("inf")), name
    print("\nall four systems returned identical distances ✓")


if __name__ == "__main__":
    main()
