"""Quickstart: plug and play — parallelize Dijkstra in a dozen lines.

The point of the paper: you do NOT rewrite your algorithm.  PIE programs
wrapping stock sequential algorithms are *plugged* into a service once;
end users just *play* queries.  The service partitions each named graph a
single time and serves every query — any class, any user — from that
cached fragmentation.

Run:  python examples/quickstart.py
"""

from repro import GrapeService, Graph


def build_road_map() -> Graph:
    g = Graph(directed=True)
    roads = [
        ("airport", "downtown", 12.0),
        ("downtown", "harbor", 4.0),
        ("downtown", "university", 3.0),
        ("university", "harbor", 2.0),
        ("harbor", "airport", 15.0),
        ("university", "stadium", 6.0),
        ("stadium", "harbor", 1.0),
    ]
    for src, dst, km in roads:
        g.add_edge(src, dst, weight=km)
    return g


def main():
    service = GrapeService()            # four workers by default
    service.load_graph("city", build_road_map())

    # Play: one query class...
    ticket = service.play("sssp", query="airport", graph="city")
    print("shortest distances from 'airport':")
    for node, dist in sorted(ticket.answer.items()):
        print(f"  {node:<12} {dist:6.1f} km")

    # ...and another, reusing the same cached fragmentation.
    reachable = service.play("bfs", query="airport", graph="city")
    hops = sum(1 for h in reachable.answer.values() if h >= 0)
    print(f"\nreachable from 'airport': {hops} locations")

    m = ticket.metrics
    print(f"supersteps: {m.supersteps}   "
          f"communication: {m.comm_megabytes:.4f} MB   "
          f"wall clock: {m.wall_clock_s * 1000:.2f} ms")
    print(f"service totals: {service.stats}")


def advanced_single_run():
    """The low-level path: one engine, one run, no serving layer.

    Useful for experiments that sweep engine parameters per run; the
    service wraps exactly this machinery.
    """
    from repro import GrapeEngine
    from repro.pie_programs import SSSPProgram

    engine = GrapeEngine(num_workers=4)
    result = engine.run(SSSPProgram(), query="airport",
                        graph=build_road_map())
    print(f"\n[advanced] direct engine run: {result.metrics}")


if __name__ == "__main__":
    main()
    advanced_single_run()
