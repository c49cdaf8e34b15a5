"""Vectorized BFS hop levels over a CSR snapshot.

Level-synchronous frontier expansion: each round gathers the out-edges of
the frontier, folds ``hop + 1`` candidates with ``np.minimum.at``, and
the improved nodes form the next frontier.  Hop counts are integers, so
equality with the queue-based sequential BFS is exact by construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.kernels._segments import edge_positions, seed_frontier

__all__ = ["csr_bfs", "csr_bfs_affected", "csr_bfs_reseed", "UNREACHED_HOPS"]

#: sentinel for "not reached" (matches the dict path's ``1 << 60`` bound)
UNREACHED_HOPS = 1 << 60


def csr_bfs(csr, seeds: Union[Dict[int, int],
                             Tuple[np.ndarray, np.ndarray]],
            hops: Optional[np.ndarray] = None
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Expand ``seeds`` (dense id -> hop count, as a dict or as parallel
    ``(ids, values)`` arrays with unique ids) to a fixpoint.

    ``hops`` is an int64 array (``UNREACHED_HOPS`` = unreached), mutated
    in place; ``None`` starts all-unreached.  Returns ``(hops, changed)``
    with ``changed`` the sorted dense ids whose hop count improved.
    """
    n = csr.n
    if hops is None:
        hops = np.full(n, UNREACHED_HOPS, dtype=np.int64)
    changed = np.zeros(n, dtype=bool)
    frontier = seed_frontier(seeds, hops)
    changed[frontier] = True

    indptr, indices = csr.indptr, csr.indices
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        pos = edge_positions(starts, counts)
        if not pos.size:
            break
        cand = np.repeat(hops[frontier], counts) + 1
        # Dense levels scan the whole array once; sparse levels compare
        # only the touched destinations (see csr_sssp for the rationale
        # and the duplicate-destination argument).
        dst = indices[pos]
        if dst.size * 8 >= n:
            before_all = hops.copy()
            np.minimum.at(hops, dst, cand)
            frontier = np.nonzero(hops < before_all)[0]
        else:
            before = hops[dst]
            np.minimum.at(hops, dst, cand)
            frontier = np.unique(dst[hops[dst] < before])
        changed[frontier] = True
    return hops, np.nonzero(changed)[0]


def csr_bfs_affected(csr, hops: np.ndarray, seeds) -> np.ndarray:
    """Forward closure of a BFS-tree invalidation (delete-aware IncEval).

    Integer analog of :func:`repro.kernels.sssp.csr_sssp_affected`: every
    node whose current hop count is supported by an affected in-neighbor
    (``hops[x] == hops[y] + 1``) joins the region.  Returns the sorted
    affected dense ids, seeds included.
    """
    n = csr.n
    affected = np.zeros(n, dtype=bool)
    seeds = np.asarray(sorted(seeds), dtype=np.int64)
    if not seeds.size:
        return seeds
    affected[seeds] = True
    indptr, indices = csr.indptr, csr.indices
    frontier = seeds[hops[seeds] < UNREACHED_HOPS]
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        pos = edge_positions(starts, counts)
        if not pos.size:
            break
        cand = np.repeat(hops[frontier], counts) + 1
        dst = indices[pos]
        hit = (hops[dst] == cand) & ~affected[dst]
        frontier = np.unique(dst[hit])
        affected[frontier] = True
    return np.nonzero(affected)[0]


def csr_bfs_reseed(csr, hops: np.ndarray, affected) -> Dict[int, int]:
    """Boundary re-seeding after a region reset: for every affected id,
    the best hop candidate through an *unaffected* in-neighbor
    (``hops[y] + 1`` over the reverse structure).  ``hops`` must already
    be neutralized (``UNREACHED_HOPS``) on the affected ids; returns a
    seed dict fit for :func:`csr_bfs`.
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
    cand = hops[src[keep]] + 1
    reached = cand < UNREACHED_HOPS
    dst, cand = dst[reached], cand[reached]
    if not dst.size:
        return {}
    best = np.full(csr.n, UNREACHED_HOPS, dtype=np.int64)
    np.minimum.at(best, dst, cand)
    return {int(i): int(best[i]) for i in np.unique(dst).tolist()}
