"""Vectorized connected components over a CSR snapshot.

Min-label hooking with pointer jumping (FastSV-style): every node starts
labeled with its own dense id; each round lowers, across every edge, both
the endpoint's label and the label of the endpoint's *representative*
(``np.minimum.at``) and then shortcuts chains (``comp = comp[comp]``)
until stable.  Hooking the representatives merges whole trees per round
instead of moving labels one vertex at a time, so the loop converges in
O(log n) rounds whatever order the dense ids are in.  Labels only
decrease and are bounded below by the component minimum, so the fixpoint
is ``comp[v] =`` the smallest dense id in ``v``'s component — edge
direction ignored, matching the paper's undirected CC semantics.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csr_components"]


def csr_components(csr) -> np.ndarray:
    """Component representative (minimum dense id) for every node."""
    comp = np.arange(csr.n, dtype=np.int64)
    src, dst = np.repeat(comp, np.diff(csr.indptr)), csr.indices
    while src.size:
        new = comp.copy()
        low = comp[src]
        np.minimum.at(new, dst, low)
        np.minimum.at(new, comp[dst], low)
        if csr.directed:
            # (an undirected snapshot lists every edge in both
            # directions, so hooking one way covers the other)
            low = comp[dst]
            np.minimum.at(new, src, low)
            np.minimum.at(new, comp[src], low)
        # Pointer jumping: labels satisfy comp[v] <= v, so chasing
        # labels-of-labels strictly decreases until stable.
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, comp):
            break
        comp = new
    return comp
