"""Streaming updates: standing queries maintained as the graph churns.

An extension beyond the paper's evaluation, sketched in the paper itself:
the **continuous-query service** (Section 6's lightweight transaction
controller, over general batches ``ΔG = (ΔG⁺, ΔG⁻)``) — ``service.watch``
registers a standing query; ``service.update`` maintains every
watcher's answer by bounded IncEval.  Insertions fold in with an empty
affected region; non-monotone changes (road closures, weight increases)
reset only the vertices whose value hung off a changed edge, re-seed
them from the surviving boundary and re-converge — no recompute.

Run:  python examples/streaming_updates.py
"""

from repro import GrapeService, GraphDelta
from repro.sequential import sssp_distances
from repro.workloads import traffic_like


def main():
    graph = traffic_like(scale=0.1)
    source = 0
    print(f"road network: {graph.num_nodes} nodes, "
          f"{graph.num_edges} edges; standing SSSP from {source}\n")

    service = GrapeService()
    service.load_graph("roads", graph)

    # Two standing queries share one fragmentation and one update stream.
    watch_near = service.watch("sssp", source, graph="roads")
    watch_cc = service.watch("cc", graph="roads")

    far = max((v for v in watch_near.answer
               if watch_near.answer[v] != float("inf")),
              key=lambda v: watch_near.answer[v])
    print(f"farthest node {far}: dist = {watch_near.answer[far]:.1f}")

    base_supersteps = watch_near.metrics.supersteps
    service.insert_edges("roads", [(source, far, 1.0)])  # a new highway
    print(f"inserted shortcut ({source} -> {far}, weight 1.0)")
    print(f"maintained dist({far}) = {watch_near.answer[far]:.1f} in "
          f"{watch_near.metrics.supersteps - base_supersteps} incremental "
          "supersteps; CC watcher refreshed too "
          f"({watch_cc.refreshes} refresh)")

    assert watch_near.answer == {v: d for v, d in
                                 sssp_distances(graph, source).items()}, \
        "maintained answer must equal recomputation"
    print("maintained answer equals full recomputation ✓")

    # Now the non-monotone side: close the new highway again and jack up
    # a road's weight in the same batch.  Distances grow, so the bounded
    # path resets the affected region only — the vertices whose distance
    # hung off a changed edge — and re-converges it from its boundary.
    u, v, w = next(iter(graph.edges()))
    service.update("roads", (GraphDelta()
                             .delete(source, far)
                             .set_weight(u, v, w * 5.0)))
    m = watch_near.metrics
    print(f"\nclosed the shortcut and reweighted ({u} -> {v}) x5: "
          f"dist({far}) back to {watch_near.answer[far]:.1f} on the "
          f"bounded path (partial_resets={m.partial_resets}, "
          f"affected_vertices={m.affected_vertices} of "
          f"{graph.num_nodes}, fallbacks={m.fallback_reruns})")
    assert m.fallback_reruns == 0, "no batch may recompute"
    assert watch_near.answer == {n: d for n, d in
                                 sssp_distances(graph, source).items()}, \
        "maintained answer must equal recomputation"
    print("answer tracks the mutated graph under deletions too ✓")
    print(f"\nservice totals: {service.stats}")
    service.close()


if __name__ == "__main__":
    main()
