"""Vectorized PageRank push over a CSR snapshot.

One power-iteration push: every owned node with out-edges divides its
rank by its out-degree and adds the share to each successor.  The dict
path accumulates ``incoming[w] += share`` edge by edge; ``np.add.at``
performs the same left fold in the same order (owned nodes in the
local graph's node order, successors in adjacency order), so the resulting
float sums are bitwise-identical — the distributed power iteration is
unchanged, only vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import edge_positions

__all__ = ["csr_pagerank_push"]


def csr_pagerank_push(csr, rank: np.ndarray,
                      owned_ids: np.ndarray) -> np.ndarray:
    """Incoming rank mass per dense id after one push from ``owned_ids``.

    ``rank`` holds the current rank per dense id (zero for non-owned
    nodes); ``owned_ids`` lists the pushing nodes in the exact order the
    dict path iterates them.  Nodes without out-edges push nothing
    (their mass is handled by the teleport term, as in the dict path).
    """
    indptr = csr.indptr
    counts = indptr[owned_ids + 1] - indptr[owned_ids]
    has_out = counts > 0
    pushers = owned_ids[has_out]
    counts = counts[has_out]
    incoming = np.zeros(csr.n, dtype=np.float64)
    if not pushers.size:
        return incoming
    pos = edge_positions(indptr[pushers], counts)
    shares = np.repeat(rank[pushers] / counts, counts)
    np.add.at(incoming, csr.indices[pos], shares)
    return incoming
