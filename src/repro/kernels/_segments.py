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

__all__ = ["edge_positions"]


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
