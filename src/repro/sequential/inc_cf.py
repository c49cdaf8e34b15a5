"""Incremental SGD for collaborative filtering (ISGD; Vinagre et al. 2014).

GRAPE's ``IncEval`` for CF (paper Section 5.3): upon receiving updated
factor vectors for border nodes, re-fit *only* the ratings touching the
affected nodes — "modifies affected factor vectors based solely on the new
observations" — instead of a full epoch.
"""

from __future__ import annotations

from typing import Sequence, Set

from repro.graph.graph import Node
from repro.sequential.cf import FactorModel, Rating

__all__ = ["isgd_update"]


def isgd_update(ratings: Sequence[Rating], model: FactorModel,
                affected: Set[Node], *, lr: float = 0.02, reg: float = 0.05,
                timestamp: int = 0, passes: int = 1) -> int:
    """Re-fit ratings incident to ``affected`` nodes (in place).

    Parameters
    ----------
    ratings:
        The local training set.
    affected:
        Nodes whose factor vectors changed (border updates from messages).
    passes:
        Number of ISGD passes over the affected ratings.

    Returns
    -------
    Number of rating examples processed — the incremental cost, which is
    proportional to the affected area, not to ``len(ratings)``.
    """
    touched = [(u, p, r) for u, p, r in ratings
               if u in affected or p in affected]
    for _ in range(passes):
        for u, p, r in touched:
            uf = model.get(u)
            pf = model.get(p)
            err = r - float(uf @ pf)
            model.set(u, uf + lr * (err * pf - reg * uf), timestamp)
            model.set(p, pf + lr * (err * uf - reg * pf), timestamp)
    return len(touched) * passes
