"""PIE program for single-source shortest paths (paper Figs. 3–4).

``PEval`` is Dijkstra's algorithm verbatim; ``IncEval`` is the bounded
incremental algorithm of Ramalingam & Reps; ``Assemble`` takes the union
of per-fragment distances.  The message preamble declares one
variable ``dist(s, v)`` per node with candidate set ``C_i = F_i.O`` and
``aggregateMsg = min``.

When ``use_csr`` is on (the default; see :mod:`repro.kernels`) both
sequential functions run as frontier Bellman–Ford relaxations over the
fragment's CSR snapshot instead — same fixpoint, bitwise-identical
distances, machine-speed inner loop — and the float64 distance array
they relax *is* the fragment's state
(:class:`~repro.pie_programs._blocks.ValueState`): on the array plane a
report is a gather of it at the ``F_i.O`` slots compared with what was
last sent, a message seeds the relaxation as two arrays, and Assemble
gathers it at the owned slots — no per-vertex Python anywhere.  The
``dist`` dict is a view, built when a dict consumer (the dict plane,
GRAPE-NI, session maintenance) first asks; a standing query is
maintained on it by the bounded dict algorithms, at constant work per
affected vertex, whether or not a snapshot is cached.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Set

import numpy as np

from repro.graph.graph import Node
from repro.kernels import csr_sssp
from repro.partition.base import Fragment
from repro.pie_programs._blocks import DecreaseOnlyProgram, ValueState
from repro.sequential.inc_sssp import incremental_sssp_decrease
from repro.sequential.sssp import dijkstra

__all__ = ["SSSPProgram", "SSSPState"]


class SSSPState(ValueState):
    """Per-fragment state: the declared ``dist(s, v)`` variables, as a
    float64 array over the snapshot's vertices (``inf`` = unreached).
    ``dist`` is its dict view — every local node, like Dijkstra's."""

    neutral = inf
    dtype = np.float64
    dist = ValueState.view


class SSSPProgram(DecreaseOnlyProgram):
    """Query: the source node ``s``.  Answer: ``{v: dist(s, v)}``."""

    name = "SSSP"
    state_class = SSSPState
    param_name = "dist"
    zero = 0.0
    unreached = inf
    _kernel = staticmethod(csr_sssp)

    @staticmethod
    def _through(value: float, weight: float) -> float:
        return value + weight

    def _peval_dict(self, query: Node, fragment: Fragment,
                    state: SSSPState) -> None:
        state.dist = dijkstra(fragment.graph, query, initial=state.dist)

    @staticmethod
    def _decrease(fragment: Fragment, view: Dict[Node, float],
                  updates: Dict[Node, float]) -> Set[Node]:
        return incremental_sssp_decrease(fragment.graph, view, updates)
