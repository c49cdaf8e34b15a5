"""Built-in partition strategies (paper Section 6, "Graph partition").

The paper's Partition Manager offers METIS, vertex-cut and edge-cut
partitions, 1-D and 2-D partitions, and a streaming-style strategy
(Stanton–Kliot).  We provide the same menu less the 2-D partition, which
range beat on the road grid and the power-law graph alike in cut edges,
bytes and supersteps:

* :class:`HashPartition` — baseline edge-cut by node hash;
* :class:`RangePartition` — 1-D: contiguous node-id ranges;
* :class:`StreamingPartition` — linear deterministic greedy (LDG) of
  Stanton & Kliot, KDD 2012;
* :class:`MetisLikePartition` — multilevel heavy-edge-matching coarsening
  with greedy balanced seeding and Kernighan–Lin-style boundary refinement
  (the METIS algorithmic family);
* :class:`VertexCutPartition` — greedy edge placement minimizing replication
  (PowerGraph-style).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph, Node
from repro.partition.base import (Fragmentation, PartitionStrategy,
                                  build_vertex_cut_fragments)
from repro.runtime.message import stable_hash

__all__ = [
    "HashPartition",
    "RangePartition",
    "StreamingPartition",
    "MetisLikePartition",
    "VertexCutPartition",
    "get_strategy",
    "STRATEGIES",
]

Level = Tuple[np.ndarray, np.ndarray, np.ndarray]  # indptr, indices, weights


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

    Each level is a CSR table over dense ids whose rows list neighbours
    and add weights in the order an edge-by-edge dict of dicts would, so
    the assignment is the dict version's (visit order, ties, float sums).
    A refinement pass visits only nodes on the cut at its start or next
    to one it moved: any other has every neighbour at home and stays.
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
    @staticmethod
    def _heavy_edge_matching(level: Level) -> List[int]:
        """Match each node with its heaviest unmatched neighbor
        (deterministic: nodes visited in degree order, ties broken by
        adjacency order — no randomness in this phase); an unmatched
        node is its own partner."""
        indptr, cols, weights = level
        ptr, cols, weights = indptr.tolist(), cols.tolist(), weights.tolist()
        match = [-1] * (len(ptr) - 1)
        for v in np.argsort(np.diff(indptr), kind="stable").tolist():
            if match[v] < 0:
                best, best_w = v, -1.0
                for u, w in zip(cols[ptr[v]:ptr[v + 1]],
                                weights[ptr[v]:ptr[v + 1]]):
                    if match[u] < 0 and w > best_w:
                        best, best_w = u, w
                match[v], match[best] = best, v
        return match

    def _coarsen(self, level: Level) -> Tuple[Level, np.ndarray]:
        """One coarsening level: the coarse level and the fine -> coarse
        map (a pair's id ranks its first member in node order)."""
        indptr, cols, weights = level
        rep = np.minimum(np.arange(indptr.shape[0] - 1),
                         self._heavy_edge_matching(level))
        coarse_of = np.unique(rep, return_inverse=True)[1]
        rows = np.repeat(coarse_of, np.diff(indptr))
        keep = rows != coarse_of[cols]
        return _collapse(rows[keep], coarse_of[cols[keep]], weights[keep],
                         int(coarse_of.max(initial=-1)) + 1), coarse_of

    # -- initial partition ---------------------------------------------
    @staticmethod
    def _initial_partition(level: Level, names: Sequence, num_fragments: int,
                           rng: random.Random) -> Tuple[List[int], List[int]]:
        """Greedy balanced BFS growth from random seeds (free nodes in
        ``repr`` order of ``names``): the parts and the placing order."""
        ptr, cols = level[0].tolist(), level[1].tolist()
        n = len(ptr) - 1
        target = -(-n // num_fragments)
        by_repr = sorted(range(n), key=lambda v: repr(names[v]))
        part, placed = [-1] * n, []
        for fid in range(num_fragments):
            if len(placed) == n:
                break
            frontier = [rng.choice([v for v in by_repr if part[v] < 0])]
            size = 0
            while frontier and size < target:
                v = frontier.pop()
                if part[v] >= 0:
                    continue
                part[v] = fid
                placed.append(v)
                size += 1
                frontier.extend(u for u in cols[ptr[v]:ptr[v + 1]]
                                if part[u] < 0)
        for v in [u for u in range(n) if part[u] < 0]:
            part[v] = rng.randrange(num_fragments)
            placed.append(v)
        return part, placed

    # -- refinement ----------------------------------------------------
    def _refine(self, level: Level, part: List[int],
                num_fragments: int) -> None:
        """KL-style pass: move boundary nodes to the fragment where they
        have the largest connection gain, respecting a balance cap."""
        indptr, cols, weights = level
        n = len(part)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        # a node with all neighbours at home stays, unless weights < 0
        home = (weights >= 0).all()
        ptr, adj, wts = indptr.tolist(), cols.tolist(), weights.tolist()
        sizes = np.bincount(part, minlength=num_fragments).tolist()
        cap = max(2, int(1.05 * n / num_fragments) + 1)
        for _ in range(self.refine_passes):
            moved = 0
            at = np.array(part, dtype=np.int64)
            visit = np.zeros(n, dtype=bool)
            visit[rows[(at[rows] != at[cols]) | ~home]] = True
            visit = visit.tolist()  # compress reads it as the pass goes
            for v in itertools.compress(range(n), visit):
                cur = part[v]
                conn = [0.0] * num_fragments
                nbrs = adj[ptr[v]:ptr[v + 1]]
                for u, w in zip(nbrs, wts[ptr[v]:ptr[v + 1]]):
                    conn[part[u]] += w
                top = max(conn)  # the first best; a tie keeps ``cur``
                best = cur if conn[cur] == top else conn.index(top)
                if best != cur and sizes[best] < cap and sizes[cur] > 1:
                    part[v] = best
                    sizes[cur] -= 1
                    sizes[best] += 1
                    moved += 1
                    for u in nbrs:
                        visit[u] = True
            if not moved:
                break

    def assign(self, graph: Graph, num_fragments: int) -> Dict[Node, int]:
        # One explicitly seeded generator threaded through every phase
        # that draws randomness (initial-partition seeding/spill); the
        # coarsening and refinement phases are deterministic.
        rng = self._rng()
        snap = CSRGraph.from_graph(graph)
        n, cols = snap.n, snap.indices
        rows = np.repeat(np.arange(n), np.diff(snap.indptr))
        # the cut objective's weighted adjacency, symmetrized edge by edge
        # (an undirected edge once, from its earlier row)
        keep = np.flatnonzero(rows != cols if graph.directed else rows < cols)
        pairs = np.stack((rows[keep], cols[keep]), axis=1)
        current = _collapse(pairs.ravel(), pairs[:, ::-1].ravel(),
                            np.repeat(snap.weights[keep], 2), n)
        levels = []  # (level, fine -> coarse map)
        while n > max(self.coarsen_until, 4 * num_fragments):
            coarse, mapping = self._coarsen(current)
            if coarse[0].shape[0] - 1 >= n:  # no progress (all isolated)
                break
            levels.append((current, mapping))
            current, n = coarse, coarse[0].shape[0] - 1

        part, placed = self._initial_partition(
            current, range(n) if levels else snap.node_of, num_fragments, rng)
        self._refine(current, part, num_fragments)

        # Project back through the levels, refining at each.
        for fine, mapping in reversed(levels):
            part = np.array(part, dtype=np.int64)[mapping].tolist()
            self._refine(fine, part, num_fragments)
        return {snap.node_of[v]: part[v]
                for v in (range(snap.n) if levels else placed)}


def _collapse(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
              n: int) -> Level:
    """The level of ``n`` nodes a dict of dicts filled with the entries
    ``(rows, cols, weights)`` in order would hold: columns by first entry,
    repeats added from ``0.0`` in entry order (``ufunc.at`` is in order)."""
    width = max(n, 1)
    uniq, first, inverse = np.unique(rows * width + cols, return_index=True,
                                     return_inverse=True)
    summed = np.zeros(uniq.shape[0])
    np.add.at(summed, inverse, weights)
    order = np.argsort(uniq // width * rows.shape[0] + first)
    return (np.searchsorted(uniq // width, np.arange(n + 1)),
            (uniq % width)[order], summed[order])


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
    cls.name: cls for cls in (HashPartition, RangePartition,
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
