"""Sparse batches: the case the maintenance hooks' kernel branches served.

A batch of one or two ops on four fragments leaves at least two
fragments with a live CSR snapshot and state arrays that are still the
state; those fragments are affected only transitively, through the
messages the batch's region re-convergence sends them.  Until the kernel
fork inside maintenance was deleted, what ran there depended on whether
a snapshot happened to be cached — two implementations that had to
agree.  Now one algorithm maintains a batch wherever it lands, and this
suite pins it from both sides:

* ``handle.answer`` equals the ``repro.sequential`` oracle on the
  mutated graph, and
* ``(supersteps, comm_bytes, comm_messages, partial_resets,
  affected_vertices)`` of the batch are equal between a service whose
  untouched fragments hold live snapshots and one whose snapshots were
  all retired before the batch (``invalidate_csr(())``: every state's
  arrays stop being current, so the whole batch runs on dict views).

The source ``S`` hangs off the generated graph by a cheap edge to ``a``
and an expensive one to ``b`` (same owner, far apart), so a single
deletion at the source invalidates everything reached through ``a`` and
re-seeds it from the surviving boundary.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineConfig
from repro.graph.delta import GraphDelta
from repro.graph.generators import grid_road_graph, preferential_attachment
from repro.partition.strategies import get_strategy
from repro.sequential import sssp_distances
from repro.service import GrapeService

from .harness import normalize
from .test_nonmonotone_matrix import bfs_oracle, cc_oracle

COST = ("supersteps", "comm_bytes", "comm_messages", "partial_resets",
        "affected_vertices")

GRAPHS = {
    # (graph factory, partition): the benchmark's two shapes
    "road": (lambda directed: grid_road_graph(10, 10, seed=4,
                                              directed=directed), "metis"),
    "powerlaw": (lambda directed: preferential_attachment(
        140, 3, directed=directed, seed=4), "hash"),
}
PROGRAMS = {
    "sssp": lambda g, s: sssp_distances(g, s),
    "bfs": bfs_oracle,
    "cc": lambda g, s: cc_oracle(g),
}
BATCHES = ("shortcut", "delete-deep", "delete-source", "sever-source",
           "raise-source", "mixed")


class Scenario:
    """One service with the source gadget attached and a standing query
    started; :meth:`batch` names the same ops on every instance (graph
    and partition are deterministic)."""

    def __init__(self, graph_key: str, directed: bool, program: str):
        make_graph, partition = GRAPHS[graph_key]
        self.g = g = make_graph(directed)
        self.service = GrapeService(engine=EngineConfig(
            num_workers=4, partition=get_strategy(partition),
            backend="serial"))
        self.service.load_graph("g", g)
        self.frags = self.service.fragmentation("g")
        owner = self.frags.gp.owner
        # a: where the generated graph is best entered from (the grid's
        # corner; in a directed power-law graph edges point from late
        # nodes to early ones, so the latest node reaches the most)
        self.a = a = max(g.nodes()) if (
            directed and graph_key == "powerlaw") else 0
        far = sssp_distances(g, a)
        self.b = b = max((v for v in far if v != a and far[v] < float("inf")
                          and owner(v) == owner(a)),
                         key=lambda v: (far[v], v))
        self.source = s = max(g.nodes()) + 1
        self.service.update("g", GraphDelta().insert(s, a, 0.5)
                            .insert(s, b, 500.0))
        self.handle = self.service.watch(
            program, None if program == "cc" else s, graph="g")
        self.oracle = PROGRAMS[program]

    def batch(self, kind: str) -> GraphDelta:
        g, s, a, b = self.g, self.source, self.a, self.b
        owner = self.frags.gp.owner
        dist = sssp_distances(g, s)
        reached = [v for v in sorted(g.nodes())
                   if dist[v] < float("inf") and v not in (s, a, b)]
        # a support edge inside one fragment, as deep as they come
        du, dv = max(((u, v) for u, v, w in g.edges()
                      if s not in (u, v) and owner(u) == owner(v)
                      and dist[u] + w == dist[v] < float("inf")),
                     key=lambda e: (dist[e[1]], e))
        # a shortcut inside one fragment: from near the source to far
        near = min(reached, key=lambda v: (dist[v], v))
        away = max((v for v in reached if owner(v) == owner(near)
                    and not g.has_edge(near, v)),
                   key=lambda v: (dist[v], v))
        delta = GraphDelta()
        if kind == "shortcut":
            delta.insert(near, away, 0.01)
        elif kind == "delete-deep":
            delta.delete(du, dv)
        elif kind == "delete-source":
            delta.delete(s, a)
        elif kind == "sever-source":
            delta.delete(s, a).delete(s, b)
        elif kind == "raise-source":
            delta.set_weight(s, a, 5000.0)
        elif kind == "mixed":
            delta.delete(du, dv).insert(near, away, 0.01)
        return delta

    def apply(self, kind: str):
        """Apply the batch; return what it cost and how many fragments
        still held a live snapshot afterwards."""
        m = self.handle.metrics
        before = [getattr(m, name) for name in COST]
        self.service.update("g", self.batch(kind))
        assert m.fallback_reruns == 0
        live = sum(frag.csr_cached for frag in self.frags)
        cost = tuple(getattr(m, name) - was
                     for name, was in zip(COST, before))
        return cost, live

    def check_answer(self):
        assert normalize(self.handle.answer) \
            == normalize(self.oracle(self.g, self.source))
        self.frags.validate()


@pytest.mark.parametrize("kind", BATCHES)
@pytest.mark.parametrize("directed", (True, False),
                         ids=("directed", "undirected"))
@pytest.mark.parametrize("graph_key", sorted(GRAPHS))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_sparse_batch_live_vs_retired(program, graph_key, directed, kind):
    live = Scenario(graph_key, directed, program)
    retired = Scenario(graph_key, directed, program)
    with live.service, retired.service:
        assert all(frag.csr_cached for frag in live.frags)
        for frag in retired.frags:
            frag.invalidate_csr(())
        assert not any(frag.csr_cached for frag in retired.frags)

        live_cost, still_live = live.apply(kind)
        retired_cost, none_live = retired.apply(kind)
        # the batch is sparse: most fragments never see a mutation
        assert still_live >= 2 and none_live == 0
        live.check_answer()
        retired.check_answer()
        assert dict(zip(COST, live_cost)) == dict(zip(COST, retired_cost))


@pytest.mark.parametrize("directed", (True, False),
                         ids=("directed", "undirected"))
@pytest.mark.parametrize("program, kind", [
    # one deletion: every distance hung off (S, a), and is re-seeded
    # through (S, b) — hop counts split between the two entries, so for
    # BFS and CC it takes both of the source's edges
    ("sssp", "delete-source"),
    ("bfs", "sever-source"),
    ("cc", "sever-source"),
])
def test_deletion_at_the_source_invalidates_most_of_the_graph(
        program, kind, directed):
    scenario = Scenario("road", directed, program)
    with scenario.service:
        (_steps, _bytes, _msgs, resets, affected), live = \
            scenario.apply(kind)
        assert resets == 1 and live >= 2
        assert affected > 0.9 * scenario.g.num_nodes
        scenario.check_answer()
