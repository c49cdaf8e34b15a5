"""PIE program for breadth-first search (hop distances).

One of the stock applications the GRAPE lineage ships (libgrape-lite's
``bfs``): identical structure to SSSP with unit weights, but the
sequential algorithms are the textbook queue-based BFS and its resume-
from-frontier incremental variant — another illustration that plugging in
a different sequential pair is all a new query class needs
(:class:`~repro.pie_programs._blocks.DecreaseOnlyProgram` holds what the
two have in common).

With ``use_csr`` on (the default) both functions run as level-synchronous
frontier expansions over the fragment's CSR snapshot
(:func:`repro.kernels.csr_bfs`, the relaxation SSSP runs with unit edge
cost) — hop counts are integers, so the paths are trivially identical —
and the int64 hop array is the fragment's state; ``hops`` is its dict
view (absent = unreached), which is what a standing query's maintenance
works on.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Set

import numpy as np

from repro.graph.graph import Node
from repro.kernels import UNREACHED_HOPS, csr_bfs
from repro.partition.base import Fragment
from repro.pie_programs._blocks import DecreaseOnlyProgram, ValueState

__all__ = ["BFSProgram", "BFSState"]

UNREACHED = -1  # hop count sentinel (kept integral, unlike SSSP's inf)

_FAR = UNREACHED_HOPS  # internal "not reached" bound, the kernel's sentinel


class BFSState(ValueState):
    """Per-fragment state: hop counts, as an int64 array over the
    snapshot's vertices; ``hops`` is its dict view (absent = unreached)."""

    neutral = _FAR
    dtype = np.int64
    sparse = True
    hops = ValueState.view


def _bfs_from(fragment: Fragment, hops: Dict[Node, int],
              frontier) -> Set[Node]:
    """Queue-based BFS resuming from ``frontier`` (in place); returns
    the nodes whose hop count improved."""
    graph = fragment.graph
    changed: Set[Node] = set()
    dq = deque((v, hops[v]) for v in frontier if graph.has_node(v))
    while dq:
        v, d = dq.popleft()
        if d > hops.get(v, _FAR):
            continue
        for w in graph.successors(v):
            if d + 1 < hops.get(w, _FAR):
                hops[w] = d + 1
                changed.add(w)
                dq.append((w, d + 1))
    return changed


def _bfs_decrease(fragment: Fragment, hops: Dict[Node, int],
                  updates: Dict[Node, int]) -> Set[Node]:
    """Apply the improving ``updates`` and resume the BFS from them."""
    frontier = [v for v, hop in updates.items() if hop < hops.get(v, _FAR)]
    hops.update((v, updates[v]) for v in frontier)
    return _bfs_from(fragment, hops, frontier).union(frontier)


class BFSProgram(DecreaseOnlyProgram):
    """Query: the source node.  Answer: ``{v: hop count}`` (-1 if
    unreached)."""

    name = "BFS"
    state_class = BFSState
    param_name = "hop"
    zero = 0
    unreached = UNREACHED
    # hop counts ignore weights: a reweight is a no-op
    weighted = False
    _kernel = staticmethod(csr_bfs)

    @staticmethod
    def _through(value: int, weight: float) -> int:
        return value + 1

    def _peval_dict(self, query: Node, fragment: Fragment,
                    state: BFSState) -> None:
        hops = state.hops
        if fragment.graph.has_node(query) and 0 < hops.get(query, _FAR):
            hops[query] = 0
        # Resume from everything known (covers both the first run and
        # NI-mode re-runs seeded by applied messages).
        _bfs_from(fragment, hops, list(hops))

    _decrease = staticmethod(_bfs_decrease)
