"""Shared segment-gather helper for the CSR kernels.

A CSR row subset is a set of ``(start, count)`` segments into the flat
``indices`` / ``weights`` arrays; :func:`edge_positions` expands those
segments into the flat positions of every edge they cover, fully
vectorized.  The expansion preserves segment order and within-segment
order, which is what lets the kernels replay the dict path's exact edge
iteration (and therefore its exact float-accumulation order).
"""

from __future__ import annotations

import numpy as np

__all__ = ["edge_positions", "seed_frontier"]


def edge_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat edge positions covered by ``(starts[i], counts[i])`` segments.

    Equivalent to ``np.concatenate([np.arange(s, s + c) for s, c in
    zip(starts, counts)])`` without the Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + within


def seed_frontier(seeds, values: np.ndarray) -> np.ndarray:
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
