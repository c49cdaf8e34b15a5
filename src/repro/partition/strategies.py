"""Built-in partition strategies (paper Section 6, "Graph partition").

The paper's Partition Manager offers METIS, vertex-cut and edge-cut
partitions, 1-D and 2-D partitions, and a streaming-style strategy
(Stanton–Kliot).  We provide the same menu:

* :class:`HashPartition` — baseline edge-cut by node hash;
* :class:`RangePartition` — 1-D: contiguous node-id ranges;
* :class:`GridPartition` — 2-D: block-row of the adjacency matrix by source,
  sub-block by destination;
* :class:`StreamingPartition` — linear deterministic greedy (LDG) of
  Stanton & Kliot, KDD 2012;
* :class:`MetisLikePartition` — multilevel heavy-edge-matching coarsening
  with greedy balanced seeding and Kernighan–Lin-style boundary refinement
  (the METIS algorithmic family);
* :class:`VertexCutPartition` — greedy edge placement minimizing replication
  (PowerGraph-style).
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

from repro.graph.graph import Graph, Node
from repro.partition.base import (Fragmentation, PartitionStrategy,
                                  build_vertex_cut_fragments)
from repro.runtime.message import stable_hash

__all__ = [
    "HashPartition",
    "RangePartition",
    "GridPartition",
    "StreamingPartition",
    "MetisLikePartition",
    "VertexCutPartition",
    "get_strategy",
    "STRATEGIES",
]


class HashPartition(PartitionStrategy):
    """Edge-cut by stable hash of the node id."""

    name = "hash"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def assign(self, graph: Graph, num_fragments: int) -> Dict[Node, int]:
        # stable_hash, not builtin hash: string node ids must land on the
        # same fragment in every process (PYTHONHASHSEED randomizes
        # builtin str hashing, which made layouts — and therefore
        # supersteps and traffic — vary between identical runs).
        return {v: (stable_hash(v) ^ self.seed) % num_fragments
                for v in graph.nodes()}


class RangePartition(PartitionStrategy):
    """1-D partition: nodes in iteration order, split into equal ranges.

    For generator-produced graphs whose ids follow creation order this is
    the paper's 1-D vertex distribution.
    """

    name = "range"

    def assign(self, graph: Graph, num_fragments: int) -> Dict[Node, int]:
        nodes = sorted(graph.nodes(), key=repr)
        per = max(1, -(-len(nodes) // num_fragments))  # ceil division
        return {v: min(i // per, num_fragments - 1)
                for i, v in enumerate(nodes)}


class GridPartition(PartitionStrategy):
    """2-D partition emphasizing traversal parallelism (paper [12]).

    Arranges fragments in an ``r x c`` grid (``r*c >= m``); a node's row is
    chosen by hash, its column by the hash of its lowest-id neighbor, so
    that adjacent matrix blocks land near each other.
    """

    name = "grid"

    def assign(self, graph: Graph, num_fragments: int) -> Dict[Node, int]:
        rows = 1
        while (rows + 1) ** 2 <= num_fragments:
            rows += 1
        cols = max(1, num_fragments // rows)
        assignment: Dict[Node, int] = {}
        for v in graph.nodes():
            r = stable_hash(v) % rows
            nbrs = list(graph.successors(v))
            anchor = min(nbrs, key=repr) if nbrs else v
            c = stable_hash(anchor) % cols
            assignment[v] = min(r * cols + c, num_fragments - 1)
        return assignment


class StreamingPartition(PartitionStrategy):
    """Linear deterministic greedy streaming partitioner (Stanton–Kliot).

    Nodes arrive in a stream; each is placed on the fragment maximizing
    ``|N(v) ∩ P_i| * (1 - |P_i| / capacity)`` — neighbors already placed,
    damped by a load penalty.  The paper cites this as its "fast
    streaming-style strategy that assigns edges to high degree nodes to
    reduce cross edges".
    """

    name = "streaming"

    def __init__(self, slack: float = 1.1, seed: int = 0):
        self.slack = slack
        self.seed = seed

    def _rng(self) -> random.Random:
        """A fresh, explicitly seeded generator per assignment.

        Never the global ``random`` module: ambient ``random.seed(...)``
        calls elsewhere in the process (benchmarks, fuzzers, user code)
        must not change where nodes land — the serving layer caches
        fragmentations and ships fragments by content, so placement must
        be a pure function of ``(graph, strategy parameters)``.
        """
        return random.Random(self.seed)

    def assign(self, graph: Graph, num_fragments: int) -> Dict[Node, int]:
        n = graph.num_nodes
        capacity = max(1.0, self.slack * n / num_fragments)
        rng = self._rng()
        order = list(graph.nodes())
        rng.shuffle(order)
        assignment: Dict[Node, int] = {}
        sizes = [0] * num_fragments
        for v in order:
            placed_nbrs = [0] * num_fragments
            for u in graph.neighbors(v):
                fid = assignment.get(u)
                if fid is not None:
                    placed_nbrs[fid] += 1
            best_fid, best_score = 0, float("-inf")
            for fid in range(num_fragments):
                penalty = 1.0 - sizes[fid] / capacity
                score = placed_nbrs[fid] * penalty
                if score > best_score or (score == best_score
                                          and sizes[fid] < sizes[best_fid]):
                    best_fid, best_score = fid, score
            assignment[v] = best_fid
            sizes[best_fid] += 1
        return assignment


class MetisLikePartition(PartitionStrategy):
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


class VertexCutPartition(PartitionStrategy):
    """Greedy vertex-cut (edge partition), PowerGraph-style.

    Each edge is placed to maximize endpoint co-location: prefer fragments
    already holding both endpoints, then one, then the least-loaded.
    """

    name = "vertex-cut"

    def assign(self, graph: Graph, num_fragments: int) -> Dict[Node, int]:
        raise NotImplementedError(
            "vertex-cut partitions edges; use partition() directly")

    def partition(self, graph: Graph, num_fragments: int) -> Fragmentation:
        if num_fragments < 1:
            raise ValueError("need at least one fragment")
        seen: Dict[Node, Set[int]] = {}
        loads = [0] * num_fragments
        edge_assignment: Dict[Tuple[Node, Node], int] = {}
        for u, v, _w in graph.edges():
            su = seen.get(u, set())
            sv = seen.get(v, set())
            both = su & sv
            either = su | sv
            if both:
                fid = min(both, key=lambda f: (loads[f], f))
            elif either:
                fid = min(either, key=lambda f: (loads[f], f))
            else:
                fid = min(range(num_fragments), key=lambda f: (loads[f], f))
            edge_assignment[(u, v)] = fid
            loads[fid] += 1
            seen.setdefault(u, set()).add(fid)
            seen.setdefault(v, set()).add(fid)
        return build_vertex_cut_fragments(graph, edge_assignment,
                                          num_fragments,
                                          strategy_name=self.name)


STRATEGIES = {
    cls.name: cls for cls in (HashPartition, RangePartition, GridPartition,
                              StreamingPartition, MetisLikePartition,
                              VertexCutPartition)
}


def get_strategy(name: str, **kwargs) -> PartitionStrategy:
    """Look up a partition strategy by its registered name."""
    try:
        return STRATEGIES[name](**kwargs)
    except KeyError:
        raise ValueError(f"unknown partition strategy {name!r}; "
                         f"available: {sorted(STRATEGIES)}") from None
