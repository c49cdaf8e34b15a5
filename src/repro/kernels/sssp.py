"""Vectorized single-source shortest paths over a CSR snapshot.

Frontier-based Bellman–Ford: each round relaxes every out-edge of the
nodes whose distance improved in the previous round, with
``np.minimum.at`` folding candidate distances in place.  This is the
single-bucket degenerate case of delta-stepping; on the low-diameter
graphs of the paper's Figure 6 workloads it converges in a handful of
rounds, each one a few numpy gathers over the frontier's edges.

The fixpoint is bitwise-identical to Dijkstra's: at convergence every
distance satisfies ``dist[v] = min over in-edges of dist[u] + w`` with
the same IEEE-754 additions the sequential algorithm performs, so the
values (not just their order) match :func:`repro.sequential.sssp.dijkstra`
exactly.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.kernels._segments import edge_positions, seed_frontier

__all__ = ["csr_sssp", "csr_sssp_affected", "csr_sssp_reseed"]


def csr_sssp(csr, seeds: Union[Dict[int, float],
                              Tuple[np.ndarray, np.ndarray]],
             dist: Optional[np.ndarray] = None
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
    n = csr.n
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    # Validated once per snapshot (a cached minimum), not per round.
    if csr.min_weight < 0:
        bad = int(np.argmax(weights < 0))
        src = int(np.searchsorted(indptr, bad, side="right")) - 1
        raise ValueError(
            f"negative edge weight on "
            f"({csr.node_of[src]}, {csr.node_of[int(indices[bad])]})")
    if dist is None:
        dist = np.full(n, np.inf, dtype=np.float64)
    changed = np.zeros(n, dtype=bool)
    frontier = seed_frontier(seeds, dist)
    changed[frontier] = True

    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        pos = edge_positions(starts, counts)
        if not pos.size:
            break
        cand = np.repeat(dist[frontier], counts) + weights[pos]
        dst = indices[pos]
        if dst.size * 8 >= n:
            # Dense round: one O(n) compare beats sorting the touched
            # destinations (np.unique is O(E_round log E_round)).
            before_all = dist.copy()
            np.minimum.at(dist, dst, cand)
            frontier = np.nonzero(dist < before_all)[0]
        else:
            # Sparse round (the high-diameter regime, where a full scan
            # per round would cost O(n * rounds)): compare only the
            # touched destinations.  Every duplicate of a destination
            # gathers the same pre-fold value, so the improved test
            # agrees across duplicates; both branches yield the same
            # sorted unique frontier.
            before = dist[dst]
            np.minimum.at(dist, dst, cand)
            frontier = np.unique(dst[dist[dst] < before])
        changed[frontier] = True
    return dist, np.nonzero(changed)[0]


def csr_sssp_affected(csr, dist: np.ndarray, seeds) -> np.ndarray:
    """Forward closure of a shortest-path invalidation (delete-aware
    IncEval, Ramalingam & Reps).

    ``seeds`` are dense ids whose converged distance is known to be
    invalidated (their parent edge was deleted or raised); the closure
    adds every id whose *current* distance is supported by an affected
    in-neighbor — ``dist[x] == dist[y] + w`` is exactly the provenance
    relation the converged distances encode, tested edge-parallel over
    the snapshot.  Returns the sorted affected ids, seeds included.
    Ties over-approximate, which is safe: the re-seeded re-convergence
    restores any value that was also supported elsewhere.
    """
    n = csr.n
    affected = np.zeros(n, dtype=bool)
    seeds = np.asarray(sorted(seeds), dtype=np.int64)
    if not seeds.size:
        return seeds
    affected[seeds] = True
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    frontier = seeds[np.isfinite(dist[seeds])]
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        pos = edge_positions(starts, counts)
        if not pos.size:
            break
        cand = np.repeat(dist[frontier], counts) + weights[pos]
        dst = indices[pos]
        hit = (dist[dst] == cand) & ~affected[dst]
        frontier = np.unique(dst[hit])
        affected[frontier] = True
    return np.nonzero(affected)[0]


def csr_sssp_reseed(csr, dist: np.ndarray, affected) -> Dict[int, float]:
    """Boundary re-seeding after a region reset.

    For every affected id, the best candidate through an *unaffected*
    in-neighbor (``dist[y] + w`` over the reverse/CSC structure) — the
    surviving boundary the re-convergence restarts from.  ``dist`` must
    already be neutralized (``inf``) on the affected ids.  Returns a
    seed dict fit for :func:`csr_sssp`; candidates are the same IEEE-754
    sums the dict path computes, so the fixpoint stays bitwise-equal.
    """
    affected = np.asarray(sorted(affected), dtype=np.int64)
    if not affected.size:
        return {}
    mask = np.zeros(csr.n, dtype=bool)
    mask[affected] = True
    starts = csr.rev_indptr[affected]
    counts = csr.rev_indptr[affected + 1] - starts
    pos = edge_positions(starts, counts)
    if not pos.size:
        return {}
    src = csr.rev_indices[pos]
    keep = ~mask[src]
    dst = np.repeat(affected, counts)[keep]
    cand = dist[src[keep]] + csr.rev_weights[pos][keep]
    finite = np.isfinite(cand)
    dst, cand = dst[finite], cand[finite]
    if not dst.size:
        return {}
    best = np.full(csr.n, np.inf, dtype=np.float64)
    np.minimum.at(best, dst, cand)
    return {int(i): float(best[i]) for i in np.unique(dst).tolist()}
