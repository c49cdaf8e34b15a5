"""Vectorized decrease-only relaxation over a CSR snapshot: SSSP and BFS.

One frontier loop serves both.  Each round gathers the out-edges of the
nodes whose value improved in the previous round, offers every head
``value + cost`` — the edge's weight for shortest paths, one for hop
counts — and folds the candidates in place with ``np.minimum.at``; the
improved heads form the next frontier.  For SSSP this is frontier
Bellman–Ford, the single-bucket degenerate case of delta-stepping; for
BFS it is the level-synchronous expansion.  On the low-diameter graphs of
the paper's Figure 6 workloads it converges in a handful of rounds, each
one a few numpy gathers over the frontier's edges.

The fixpoint is bitwise-identical to the sequential algorithms': at
convergence every value satisfies ``value[v] = min over in-edges of
value[u] + cost`` with the same IEEE-754 additions Dijkstra performs, so
float distances (not just their order) match
:func:`repro.sequential.sssp.dijkstra` exactly; hop counts are integers,
so equality with the queue-based BFS holds by construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.graph.csr import edge_positions

__all__ = ["csr_sssp", "csr_bfs", "UNREACHED_HOPS"]

#: sentinel for "not reached" (matches the dict path's ``1 << 60`` bound)
UNREACHED_HOPS = 1 << 60

Seeds = Union[Dict[int, float], Tuple[np.ndarray, np.ndarray]]


def _seed_frontier(seeds: Seeds, values: np.ndarray) -> np.ndarray:
    """Fold candidate ``seeds`` into ``values`` (in place, keeping the
    minimum) and return the dense ids that improved — the first frontier
    of a decrease-only relaxation.

    ``seeds`` is a ``{id: candidate}`` dict or a pair of parallel
    ``(ids, candidates)`` arrays whose ids are unique (an array
    parameter block names each border node once).
    """
    if isinstance(seeds, dict):
        frontier_list = []
        for vid, value in seeds.items():
            if value < values[vid]:
                values[vid] = value
                frontier_list.append(vid)
        return np.array(frontier_list, dtype=np.int64)
    ids, candidates = seeds
    better = candidates < values[ids]
    frontier = ids[better].astype(np.int64, copy=False)
    values[frontier] = candidates[better]
    return frontier


def _relax(csr, seeds: Seeds, values: np.ndarray,
           weights: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Fold ``seeds`` into ``values`` (in place) and relax to a fixpoint
    along edges that cost ``weights[pos]``, or one when ``weights`` is
    ``None``.  Returns ``(values, changed)`` with ``changed`` the sorted
    dense ids whose value improved — the affected area ``AFF``."""
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    changed = np.zeros(n, dtype=bool)
    frontier = _seed_frontier(seeds, values)
    changed[frontier] = True

    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        pos = edge_positions(starts, counts)
        if not pos.size:
            break
        cand = np.repeat(values[frontier], counts) \
            + (1 if weights is None else weights[pos])
        dst = indices[pos]
        if dst.size * 8 >= n:
            # Dense round: one O(n) compare beats sorting the touched
            # destinations (np.unique is O(E_round log E_round)).
            before_all = values.copy()
            np.minimum.at(values, dst, cand)
            frontier = np.nonzero(values < before_all)[0]
        else:
            # Sparse round (the high-diameter regime, where a full scan
            # per round would cost O(n * rounds)): compare only the
            # touched destinations.  Every duplicate of a destination
            # gathers the same pre-fold value, so the improved test
            # agrees across duplicates; both branches yield the same
            # sorted unique frontier.
            before = values[dst]
            np.minimum.at(values, dst, cand)
            frontier = np.unique(dst[values[dst] < before])
        changed[frontier] = True
    return values, np.nonzero(changed)[0]


def csr_sssp(csr, seeds: Seeds, dist: Optional[np.ndarray] = None
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Relax ``seeds`` (dense id -> candidate distance) to a fixpoint.

    Parameters
    ----------
    csr:
        A :class:`~repro.graph.csr.CSRGraph`.
    seeds:
        Candidate distances, as a dict or as parallel ``(ids, values)``
        arrays with unique ids; only improvements over ``dist`` are
        applied (the monotonic decrease-only discipline of IncEval).
    dist:
        Existing float64 estimates, mutated in place; ``None`` starts
        from all-infinite.

    Returns
    -------
    ``(dist, changed)`` — the distance array and the (sorted) dense ids
    whose distance improved, the affected area ``AFF``.
    """
    # Validated once per snapshot (a cached minimum), not per round.
    if csr.min_weight < 0:
        bad = int(np.argmax(csr.weights < 0))
        src = int(np.searchsorted(csr.indptr, bad, side="right")) - 1
        raise ValueError(
            f"negative edge weight on "
            f"({csr.node_of[src]}, {csr.node_of[int(csr.indices[bad])]})")
    if dist is None:
        dist = np.full(csr.n, np.inf, dtype=np.float64)
    return _relax(csr, seeds, dist, csr.weights)


def csr_bfs(csr, seeds: Seeds, hops: Optional[np.ndarray] = None
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Expand ``seeds`` (dense id -> hop count, as a dict or as parallel
    ``(ids, values)`` arrays with unique ids) to a fixpoint.

    ``hops`` is an int64 array (``UNREACHED_HOPS`` = unreached), mutated
    in place; ``None`` starts all-unreached.  Returns ``(hops, changed)``
    with ``changed`` the sorted dense ids whose hop count improved.
    """
    if hops is None:
        hops = np.full(csr.n, UNREACHED_HOPS, dtype=np.int64)
    return _relax(csr, seeds, hops, None)
