"""Reference implementations the array partitioner is checked against.

The dict-built edge-cut fragments and the dict-based Metis-like
partitioner the library used before it partitioned from CSR arrays,
kept verbatim: ``build_edge_cut_fragments`` and ``MetisLikePartition``
in :mod:`repro.partition` must give the same assignment and the same
fragments (``CSRGraph.from_graph`` of these dict graphs, element for
element) — ``test_array_partition.py`` checks that.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Set

from repro.graph.graph import Graph, Node
from repro.partition.base import (Fragment, Fragmentation, PartitionStrategy)


def build_edge_cut_fragments_dicts(graph: Graph,
                                   assignment: Mapping[Node, int],
                                   num_fragments: int,
                                   strategy_name: str = "custom"
                                   ) -> Fragmentation:
    """Materialize edge-cut fragments from a node assignment.

    Every edge ``(u, v)`` is stored at the fragment owning ``u``; if ``v``
    is owned elsewhere, a copy of ``v`` joins ``F_i.O`` and ``v`` joins the
    owner's ``F_j.I``.
    """
    missing = [v for v in graph.nodes() if v not in assignment]
    if missing:
        raise ValueError(f"assignment missing {len(missing)} nodes")

    owned: List[Set[Node]] = [set() for _ in range(num_fragments)]
    for v, fid in assignment.items():
        if not 0 <= fid < num_fragments:
            raise ValueError(f"fragment id {fid} out of range")
        owned[fid].add(v)

    locals_: List[Graph] = [Graph(directed=graph.directed)
                            for _ in range(num_fragments)]
    inner: List[Set[Node]] = [set() for _ in range(num_fragments)]
    outer: List[Set[Node]] = [set() for _ in range(num_fragments)]

    for fid in range(num_fragments):
        for v in owned[fid]:
            locals_[fid].add_node(v, graph.node_label(v))

    for u, v, w in graph.edges():
        fu, fv = assignment[u], assignment[v]
        label = graph.edge_label(u, v)
        locals_[fu].add_node(v, graph.node_label(v))
        locals_[fu].add_edge(u, v, weight=w, label=label)
        if fu != fv:
            outer[fu].add(v)
        if not graph.directed and fu != fv:
            # the symmetric orientation lives at fv as well
            locals_[fv].add_node(u, graph.node_label(u))
            locals_[fv].add_edge(v, u, weight=w, label=label)
            outer[fv].add(u)

    # F_i.I: owned nodes with an incoming cross edge.
    for u, v, _w in graph.edges():
        fu, fv = assignment[u], assignment[v]
        if fu != fv:
            inner[fv].add(v)
            if not graph.directed:
                inner[fu].add(u)

    fragments = [Fragment(fid, locals_[fid], owned[fid], inner[fid],
                          outer[fid]) for fid in range(num_fragments)]
    return Fragmentation(graph, fragments, strategy_name=strategy_name)


class MetisLikeDicts(PartitionStrategy):
    """Multilevel edge-cut partitioner in the METIS family.

    Three phases, as in Karypis & Kumar:

    1. *Coarsening*: repeated heavy-edge matching collapses matched node
       pairs until the graph is small;
    2. *Initial partition*: greedy BFS-based balanced seeding on the
       coarsest graph;
    3. *Uncoarsening*: project the partition back up, applying a
       Kernighan–Lin-style boundary refinement pass at every level.
    """

    name = "metis"

    def __init__(self, coarsen_until: int = 64, refine_passes: int = 4,
                 seed: int = 0):
        self.coarsen_until = coarsen_until
        self.refine_passes = refine_passes
        self.seed = seed

    def _rng(self) -> random.Random:
        """A fresh, explicitly seeded generator per assignment (see
        :meth:`StreamingPartition._rng` — same reproducibility
        contract)."""
        return random.Random(self.seed)

    # -- coarsening ---------------------------------------------------
    def _heavy_edge_matching(self, adj: Dict[Node, Dict[Node, float]],
                             ) -> Dict[Node, Node]:
        """Match each node with its heaviest unmatched neighbor
        (deterministic: nodes visited in degree order, ties broken by
        adjacency order — no randomness in this phase)."""
        matched: Dict[Node, Node] = {}
        order = sorted(adj, key=lambda v: len(adj[v]))
        for v in order:
            if v in matched:
                continue
            best, best_w = None, -1.0
            for u, w in adj[v].items():
                if u not in matched and u != v and w > best_w:
                    best, best_w = u, w
            if best is None:
                matched[v] = v
            else:
                matched[v] = best
                matched[best] = v
        return matched

    def _coarsen(self, adj: Dict[Node, Dict[Node, float]]):
        """One coarsening level; returns (coarse_adj, mapping fine->coarse)."""
        matched = self._heavy_edge_matching(adj)
        coarse_of: Dict[Node, int] = {}
        next_id = 0
        for v in adj:
            if v in coarse_of:
                continue
            partner = matched[v]
            coarse_of[v] = next_id
            coarse_of[partner] = next_id
            next_id += 1
        coarse: Dict[int, Dict[int, float]] = {i: {} for i in range(next_id)}
        for v, nbrs in adj.items():
            cv = coarse_of[v]
            for u, w in nbrs.items():
                cu = coarse_of[u]
                if cu == cv:
                    continue
                coarse[cv][cu] = coarse[cv].get(cu, 0.0) + w
        return coarse, coarse_of

    # -- initial partition ---------------------------------------------
    def _initial_partition(self, adj: Dict[Node, Dict[Node, float]],
                           num_fragments: int,
                           rng: random.Random) -> Dict[Node, int]:
        """Greedy balanced BFS growth from random seeds."""
        nodes = list(adj)
        target = -(-len(nodes) // num_fragments)
        unassigned = set(nodes)
        assignment: Dict[Node, int] = {}
        for fid in range(num_fragments):
            if not unassigned:
                break
            seed = rng.choice(sorted(unassigned, key=repr))
            frontier = [seed]
            size = 0
            while frontier and size < target:
                v = frontier.pop()
                if v not in unassigned:
                    continue
                unassigned.discard(v)
                assignment[v] = fid
                size += 1
                frontier.extend(u for u in adj[v] if u in unassigned)
        for v in [u for u in nodes if u in unassigned]:  # not hash order
            assignment[v] = rng.randrange(num_fragments)
        return assignment

    # -- refinement ----------------------------------------------------
    def _refine(self, adj: Dict[Node, Dict[Node, float]],
                assignment: Dict[Node, int], num_fragments: int) -> None:
        """KL-style pass: move boundary nodes to the fragment where they
        have the largest connection gain, respecting a balance cap."""
        sizes = [0] * num_fragments
        for fid in assignment.values():
            sizes[fid] += 1
        cap = max(2, int(1.05 * len(assignment) / num_fragments) + 1)
        for _ in range(self.refine_passes):
            moved = 0
            for v, nbrs in adj.items():
                if not nbrs:
                    continue
                cur = assignment[v]
                conn = [0.0] * num_fragments
                for u, w in nbrs.items():
                    conn[assignment[u]] += w
                best = max(range(num_fragments),
                           key=lambda f: (conn[f], f == cur))
                if best != cur and conn[best] > conn[cur] \
                        and sizes[best] < cap and sizes[cur] > 1:
                    assignment[v] = best
                    sizes[cur] -= 1
                    sizes[best] += 1
                    moved += 1
            if not moved:
                break

    def assign(self, graph: Graph, num_fragments: int) -> Dict[Node, int]:
        # One explicitly seeded generator threaded through every phase
        # that draws randomness (initial-partition seeding/spill); the
        # coarsening and refinement phases are deterministic.
        rng = self._rng()
        # Symmetrized weighted adjacency for the cut objective.
        adj: Dict[Node, Dict[Node, float]] = {v: {} for v in graph.nodes()}
        for u, v, w in graph.edges():
            if u == v:
                continue
            adj[u][v] = adj[u].get(v, 0.0) + w
            adj[v][u] = adj[v].get(u, 0.0) + w

        levels = []  # (adj, fine->coarse map)
        current = adj
        while len(current) > max(self.coarsen_until,
                                 4 * num_fragments):
            coarse, mapping = self._coarsen(current)
            if len(coarse) >= len(current):  # no progress (all isolated)
                break
            levels.append((current, mapping))
            current = coarse

        assignment = self._initial_partition(current, num_fragments, rng)
        self._refine(current, assignment, num_fragments)

        # Project back through the levels, refining at each.
        for fine_adj, mapping in reversed(levels):
            assignment = {v: assignment[mapping[v]] for v in fine_adj}
            self._refine(fine_adj, assignment, num_fragments)
        return assignment
