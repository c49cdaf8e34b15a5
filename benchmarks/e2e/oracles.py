"""Reference answers the benchmark checks every query class against.

SSSP and CC come from ``repro.sequential``.  That package has no BFS or
PageRank oracle, so this module carries plain dict implementations of
both.  The PageRank reference reproduces the PIE program's documented
schedule — rank mass crossing a cut edge reaches its owner one superstep
late — so it needs the node → fragment map and is exact (to 1e-9) at any
iteration count, not only at the fixpoint.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Dict, Mapping

from repro.graph.graph import Graph
from repro.sequential import connected_components, sssp_distances

TOLERANCE = 1e-9


def bfs_hops(graph: Graph, source: Any) -> Dict[Any, int]:
    """Hop counts from ``source``; ``-1`` marks unreachable nodes."""
    hops = {v: -1 for v in graph.nodes()}
    hops[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if hops[w] == -1:
                hops[w] = hops[v] + 1
                queue.append(w)
    return hops


def pagerank_stale_cut(graph: Graph, owner: Callable[[Any], int],
                       damping: float, iterations: int) -> Dict[Any, float]:
    """Power iteration without dangling redistribution in which a share
    sent along an edge between two fragments arrives one iteration late
    (the PageRank PIE program's schedule)."""
    nodes = list(graph.nodes())
    n = len(nodes)
    teleport = (1.0 - damping) / n
    frag = {v: owner(v) for v in nodes}
    rank = {v: 1.0 / n for v in nodes}
    late = dict.fromkeys(nodes, 0.0)
    for _ in range(iterations):
        local = dict.fromkeys(nodes, 0.0)
        cross = dict.fromkeys(nodes, 0.0)
        for v in nodes:
            degree = graph.out_degree(v)
            if not degree:
                continue
            share = rank[v] / degree
            home = frag[v]
            for w in graph.successors(v):
                if frag[w] == home:
                    local[w] += share
                else:
                    cross[w] += share
        rank = {v: teleport + damping * (local[v] + late[v]) for v in nodes}
        late = cross
    return rank


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def same_numbers(got: Mapping[Any, float], want: Mapping[Any, float]) -> bool:
    return (got.keys() == want.keys()
            and all(_close(got[k], want[k]) for k in want))


def same_components(got: Mapping[Any, Any], graph: Graph) -> bool:
    """``got`` is the CC program's ``{component id: members}``."""
    want: Dict[Any, set] = {}
    for v, cid in connected_components(graph).items():
        want.setdefault(cid, set()).add(v)
    return ({frozenset(m) for m in got.values()}
            == {frozenset(m) for m in want.values()})


def check_answer(program: str, query: Any, answer: Any, graph: Graph,
                 owner: Callable[[Any], int]) -> bool:
    """Is ``answer`` the right ``program(query)`` on ``graph``?"""
    if program == "sssp":
        return same_numbers(answer, sssp_distances(graph, query))
    if program == "bfs":
        return answer == bfs_hops(graph, query)
    if program == "cc":
        return same_components(answer, graph)
    if program == "pagerank":
        return same_numbers(answer, pagerank_stale_cut(
            graph, owner, query.damping, query.max_iterations))
    raise ValueError(f"no oracle for program {program!r}")
