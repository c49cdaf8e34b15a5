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

from typing import List

import numpy as np

from repro.kernels._segments import edge_positions

__all__ = ["csr_components", "csr_region_components"]


def _hook_to_fixpoint(comp: np.ndarray, src: np.ndarray, dst: np.ndarray,
                      mirrored: bool) -> np.ndarray:
    """Lower ``comp`` (idempotent: ``comp[comp] == comp``) across the
    edges ``src -> dst`` until no label moves.  ``mirrored`` says every
    edge is listed in both directions (an undirected snapshot), so
    hooking one way covers the other."""
    while src.size:
        new = comp.copy()
        low = comp[src]
        np.minimum.at(new, dst, low)
        np.minimum.at(new, comp[dst], low)
        if not mirrored:
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


def csr_components(csr) -> np.ndarray:
    """Component representative (minimum dense id) for every node."""
    n = csr.n
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    return _hook_to_fixpoint(np.arange(n, dtype=np.int64), src, csr.indices,
                             not csr.directed)


def csr_region_components(csr, region) -> List[np.ndarray]:
    """Components of the subgraph induced on the ``region`` dense ids.

    The delete-aware CC path condemns whole components and rebuilds them
    from the mutated snapshot: only edges with *both* endpoints inside
    the region participate (the condemned components were closed, so no
    surviving edge crosses the boundary).  Same min-label + pointer
    jumping as :func:`csr_components`, restricted to the region's edges.
    Returns the region partitioned into groups of dense ids.
    """
    region = np.asarray(sorted(region), dtype=np.int64)
    if not region.size:
        return []
    mask = np.zeros(csr.n, dtype=bool)
    mask[region] = True
    starts = csr.indptr[region]
    counts = csr.indptr[region + 1] - starts
    pos = edge_positions(starts, counts)
    src = np.repeat(region, counts)
    dst = csr.indices[pos]
    keep = mask[dst]
    comp = _hook_to_fixpoint(np.arange(csr.n, dtype=np.int64), src[keep],
                             dst[keep], not csr.directed)
    labels = comp[region]
    order = np.argsort(labels, kind="stable")
    bounds = np.nonzero(np.diff(labels[order]))[0] + 1
    return [region[idx] for idx in np.split(order, bounds)]
