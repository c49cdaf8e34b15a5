"""The non-monotone operation matrix for the delete-aware bounded path.

One focused scenario per cell of ``directed × {delete, increase}`` on
every execution backend, for each of SSSP, BFS and CC: apply a
single-kind non-monotone batch to a standing session and assert that

* the maintained answer equals the sequential oracle on the mutated
  graph (exact equality — the bounded path re-derives every reset value
  as the same path sum the oracle computes), and
* the batch was maintained without a recompute fallback and counted as
  one non-monotone batch, with an empty affected region when the
  operation kind cannot move a converged value (weight increases are
  no-ops for BFS hop counts and CC membership).
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.engine import GrapeEngine
from repro.core.updates import ContinuousQuerySession
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.pie_programs import BFSProgram, CCProgram, SSSPProgram
from repro.sequential import connected_components, sssp_distances

from .harness import BACKENDS, normalize

OPS = ("delete", "increase")


def bfs_oracle(g, source):
    hops = {v: -1 for v in g.nodes()}
    if g.has_node(source):
        hops[source] = 0
        dq = deque([source])
        while dq:
            v = dq.popleft()
            for w in g.successors(v):
                if hops[w] == -1:
                    hops[w] = hops[v] + 1
                    dq.append(w)
    return hops


def cc_oracle(g):
    buckets = {}
    for v, c in connected_components(g).items():
        buckets.setdefault(c, set()).add(v)
    return buckets


#: (program factory, query, oracle, operation kinds that seed a region)
CASES = {
    "sssp": (SSSPProgram, 0,
             lambda g: sssp_distances(g, 0), {"delete", "increase"}),
    "bfs": (BFSProgram, 0, lambda g: bfs_oracle(g, 0), {"delete"}),
    "cc": (CCProgram, None, cc_oracle, {"delete"}),
}


def _single_kind_delta(g, op, count=3):
    """A batch of ``count`` deletions or weight increases against live
    edges spread across the edge list (and thus across fragments)."""
    edges = sorted(g.edges())
    picked = edges[:: max(1, len(edges) // count)][:count]
    delta = GraphDelta()
    for u, v, w in picked:
        if op == "delete":
            delta.delete(u, v)
        else:
            delta.set_weight(u, v, w * 5.0)
    return delta


@pytest.mark.parametrize("program_key", sorted(CASES))
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("directed", (True, False),
                         ids=("directed", "undirected"))
@pytest.mark.parametrize("backend", BACKENDS)
def test_nonmonotone_matrix(backend, directed, op, program_key):
    make_program, query, oracle, seeding = CASES[program_key]
    g = uniform_random_graph(60, 180, directed=directed, seed=90)
    engine = GrapeEngine(3, backend=backend)
    session = ContinuousQuerySession(engine, make_program(), query, graph=g)
    baseline = normalize(session.answer)
    assert baseline == normalize(oracle(g))

    session.update(_single_kind_delta(g, op))
    session.fragmentation.validate()
    assert normalize(session.answer) == normalize(oracle(g))

    m = session.metrics
    assert m.fallback_reruns == 0
    assert m.incremental_maintained == 1
    assert m.partial_resets == 1
    if op not in seeding:
        # The kind is answer-preserving for this program: the bounded
        # path runs on an empty region.
        assert m.affected_vertices == 0
