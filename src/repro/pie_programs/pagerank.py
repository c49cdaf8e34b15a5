"""PIE program for PageRank (power iteration).

Another stock GRAPE-lineage application (libgrape-lite's ``pagerank``).
Like CF, PageRank's update parameters are not naturally monotonic, so
termination follows the paper's CF recipe: a fixed iteration budget
and/or an L1-delta threshold, with ``(iteration, value)`` parameters
aggregated by lexicographic max.

Each fragment keeps ranks for its local nodes (including border copies);
an iteration pushes rank along local out-edges; copies' *contributions*
(rank mass flowing over cut edges) are the shipped parameters, folded in
by the owners next round — the standard distributed power iteration
expressed as a PIE program.

With ``use_csr`` on (the default) the push runs as one
:func:`repro.kernels.csr_pagerank_push` over the fragment's CSR snapshot
and the ranks live in one float64 vector aligned with the fragment's
owned nodes (``Fragment.owned_slots``), carried from one iteration to
the next; ``state.rank`` is the dict view of it, built when asked.
``np.add.at`` folds shares in the same order as the dict loop, so the
resulting ranks are bitwise-identical.  Every iteration refreshes all
non-zero contributions (their ``(iteration, value)`` tags always
advance), so ``read_changed_params`` is a constant-time staleness check
rather than a dict diff.  On the array plane (``block_spec``) the
contributions leave as a gather of the push's output at the ``F_i.O``
slots and arrive as one array per source fragment.

Contributions from different fragments to one node are summed in
ascending source-fragment order on every path, so ranks do not depend on
the order messages happened to be composed in; and owned nodes push in
the local graph's node order (``Fragment.owned_slots``), never in the
iteration order of the ``owned`` set, which a pickle round trip (the
process backend) changes — so ranks are bitwise the same on every
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.aggregators import MaxAggregator
from repro.core.pie import BlockSpec, ParamUpdates, PIEProgram
from repro.graph.csr import positions_in_sorted
from repro.graph.graph import Node
from repro.kernels import csr_pagerank_push
from repro.partition.base import Fragment, Fragmentation
from repro.pie_programs._blocks import ArrayState
from repro.runtime.wire import ParamBlock

__all__ = ["PageRankQuery", "PageRankProgram", "PageRankState"]


@dataclass(frozen=True)
class PageRankQuery:
    """PageRank configuration.

    damping: the usual 0.85;
    max_iterations: superstep budget;
    tolerance: optional early stop on the local L1 delta.
    """

    damping: float = 0.85
    max_iterations: int = 20
    tolerance: Optional[float] = None


class PageRankState(ArrayState):
    """Per-fragment state: the owned nodes' ranks — one float64 vector
    in ``Fragment.owned_slots`` order, ``rank`` its dict view — and the
    incoming cross-edge contributions."""

    _arrays = ("_vec",)
    rank = ArrayState.view

    def __init__(self) -> None:
        super().__init__()
        #: rank mass arriving over cut edges: node -> {source fragment:
        #: mass} (dict plane; the array plane keeps ``_ext``)
        self.external: Dict[Node, Dict[int, float]] = {}
        #: mass this fragment sends to each copy, refreshed per iteration
        #: (dict path; the CSR path keeps the push's output in
        #: ``_incoming``)
        self.outgoing: Dict[Node, float] = {}
        self.iteration = 0
        self.converged = False
        self.num_global_nodes = 0
        #: iteration whose contributions were last reported to the engine
        self._reported_iteration = -1
        #: CSR path: the last push's per-vertex incoming mass (dense ids)
        self._incoming: Optional[np.ndarray] = None
        #: array plane: mass received per source fragment, aligned with
        #: ``_inner_labels`` (the sorted labels of ``F_i.I`` — label-keyed,
        #: so it survives a restore onto another snapshot epoch)
        self._ext: Dict[int, np.ndarray] = {}
        self._inner_labels: Optional[np.ndarray] = None

    def _keys_of(self, fragment: Fragment) -> List[Node]:
        return fragment.owned_slots()[0]

    def _materialise(self) -> Dict[Node, float]:
        return dict(zip(self._keys, self._vec.tolist()))


def _ordered_sum(by_source: Dict[int, float]) -> float:
    """Left fold in ascending source-fragment order (an explicit loop:
    builtin ``sum`` switches to compensated summation on newer Pythons,
    which the array path's elementwise adds do not)."""
    total = 0.0
    for src in sorted(by_source):
        total += by_source[src]
    return total


class PageRankProgram(PIEProgram):
    """Query: :class:`PageRankQuery`.  Answer: ``{node: rank}`` summing
    to ~1 over the graph."""

    name = "PageRank"
    # (iteration, contribution) — newest iteration wins, value order
    # breaks ties; every real change advances the order (the CF recipe).
    aggregator = MaxAggregator()
    param_width = 16  # (int64 iteration, float64 contribution)
    route_to = "owner"

    def __init__(self, use_csr: bool = True):
        self.use_csr = use_csr

    @property
    def block_spec(self) -> Optional[BlockSpec]:
        return (BlockSpec(np.float64, 0.0, per_source=True)
                if self.use_csr else None)

    def init_state(self, query: PageRankQuery,
                   fragment: Fragment) -> PageRankState:
        return PageRankState()

    def preprocess(self, query: PageRankQuery,
                   fragmentation: Fragmentation) -> Dict[int, int]:
        """Broadcast |V| (needed for the uniform teleport term)."""
        n = len(fragmentation.gp)
        return {frag.fid: n for frag in fragmentation}

    def apply_preprocess(self, query: PageRankQuery, fragment: Fragment,
                         state: PageRankState, payload: int) -> None:
        state.num_global_nodes = payload

    # ------------------------------------------------------------------
    def _iterate(self, query: PageRankQuery, fragment: Fragment,
                 state: PageRankState) -> None:
        """One power-iteration step over the local fragment."""
        if self.use_csr:
            self._iterate_csr(query, fragment, state)
        else:
            self._iterate_dict(query, fragment, state)
        state.iteration += 1
        if state.iteration >= query.max_iterations:
            state.converged = True

    def _iterate_dict(self, query: PageRankQuery, fragment: Fragment,
                      state: PageRankState) -> None:
        graph = fragment.graph
        n = max(1, state.num_global_nodes)
        teleport = (1.0 - query.damping) / n
        rank = state.view_on(fragment)
        if not rank:
            rank = {v: 1.0 / n for v in fragment.owned}

        owned_list = fragment.owned_slots()[0]
        incoming: Dict[Node, float] = {v: 0.0 for v in graph.nodes()}
        for v in owned_list:
            out_deg = graph.out_degree(v)
            if out_deg == 0:
                continue
            share = rank.get(v, 0.0) / out_deg
            for w in graph.successors(v):
                incoming[w] = incoming.get(w, 0.0) + share

        new_rank: Dict[Node, float] = {}
        delta = 0.0
        for v in owned_list:
            external = _ordered_sum(state.external.get(v, {}))
            value = (teleport
                     + query.damping * (incoming.get(v, 0.0) + external))
            delta += abs(value - rank.get(v, 0.0))
            new_rank[v] = value
        # Contributions flowing to copies (owned elsewhere) this round.
        state.outgoing = {v: incoming.get(v, 0.0)
                          for v in fragment.outer}
        state.rank = new_rank
        self._check_tolerance(query, state, delta)

    def _iterate_csr(self, query: PageRankQuery, fragment: Fragment,
                     state: PageRankState) -> None:
        csr = fragment.csr()
        owned_list, owned_ids = fragment.owned_slots()
        n = max(1, state.num_global_nodes)
        teleport = (1.0 - query.damping) / n
        if state.current(fragment):
            old = state._vec
        else:  # the first iteration, or a dict algorithm wrote last
            rank = state.view
            old = (np.fromiter((rank.get(v, 0.0) for v in owned_list),
                               dtype=np.float64, count=len(owned_list))
                   if rank else np.full(len(owned_list), 1.0 / n))

        rank_arr = np.zeros(csr.n, dtype=np.float64)
        rank_arr[owned_ids] = old
        incoming = csr_pagerank_push(csr, rank_arr, owned_ids)

        if state._ext:
            received = np.zeros(len(state._inner_labels), dtype=np.float64)
            for src in sorted(state._ext):
                received += state._ext[src]
            by_vertex = np.zeros(csr.n, dtype=np.float64)
            by_vertex[csr.ids_of(state._inner_labels)] = received
            ext = by_vertex[owned_ids]
        elif state.external:  # dict plane
            external = state.external
            ext = np.fromiter((_ordered_sum(external[v]) if v in external
                               else 0.0 for v in owned_list),
                              dtype=np.float64, count=len(owned_list))
        else:
            ext = 0.0

        vals = teleport + query.damping * (incoming[owned_ids] + ext)
        state._incoming = incoming
        state.adopt(fragment, vals)
        if query.tolerance is not None:
            # Left-fold over Python floats: the dict path's exact sum.
            self._check_tolerance(query, state,
                                  sum(np.abs(vals - old).tolist()))

    def _check_tolerance(self, query: PageRankQuery, state: PageRankState,
                         delta: float) -> None:
        if query.tolerance is not None and delta <= query.tolerance:
            state.converged = True

    def peval(self, query: PageRankQuery, fragment: Fragment,
              state: PageRankState) -> None:
        if state.converged:
            return
        if not (fragment.inner or fragment.outer):
            # No external input will ever arrive: partial evaluation IS
            # complete evaluation — iterate to convergence locally.
            while not state.converged:
                self._iterate(query, fragment, state)
        else:
            self._iterate(query, fragment, state)

    def inceval(self, query: PageRankQuery, fragment: Fragment,
                state: PageRankState, message: ParamUpdates) -> None:
        if state.converged:
            return
        for (v, name), (_t, contribution) in message.items():
            _tag, src = name
            state.external.setdefault(v, {})[src] = contribution
        self._iterate(query, fragment, state)

    def apply_message(self, query: PageRankQuery, fragment: Fragment,
                      state: PageRankState, message: ParamUpdates) -> None:
        for (v, name), (_t, contribution) in message.items():
            _tag, src = name
            state.external.setdefault(v, {})[src] = contribution

    def inceval_block(self, query: PageRankQuery, fragment: Fragment,
                      state: PageRankState, block: ParamBlock) -> None:
        if state.converged:
            return
        labels = state._inner_labels
        if labels is None:
            labels = np.fromiter(fragment.inner, dtype=np.int64,
                                 count=len(fragment.inner))
            labels.sort()
            state._inner_labels = labels
        # Contributions reach a node at its owner, where it is in F_i.I.
        slots = positions_in_sorted(labels, block.ids)
        for src in np.unique(block.src).tolist():
            mine = block.src == src
            received = state._ext.get(src)
            if received is None:
                received = state._ext[src] = np.zeros(len(labels),
                                                      dtype=np.float64)
            received[slots[mine]] = block.vals[mine]
        self._iterate(query, fragment, state)

    # ------------------------------------------------------------------
    def read_update_params(self, query: PageRankQuery, fragment: Fragment,
                           state: PageRankState) -> ParamUpdates:
        # Per-source keys: owners must *sum* contributions from different
        # fragments, so each sender's mass is its own parameter.
        if state._incoming is not None:
            outer = list(fragment.outer)
            ids = np.fromiter(map(fragment.csr().id_of.__getitem__, outer),
                              dtype=np.int64, count=len(outer))
            outgoing = zip(outer, state._incoming[ids].tolist())
        else:
            outgoing = state.outgoing.items()
        return {(v, ("contrib", fragment.fid)): (state.iteration, value)
                for v, value in outgoing if value > 0.0}

    def read_changed_params(self, query: PageRankQuery, fragment: Fragment,
                            state: PageRankState) -> ParamUpdates:
        # The iteration tag advances with every real step, so either
        # nothing ran since the last read (nothing changed) or every
        # non-zero contribution is fresh (the full current dict).
        if state.iteration == state._reported_iteration:
            return {}
        state._reported_iteration = state.iteration
        return self.read_update_params(query, fragment, state)

    def read_changed_block(self, query: PageRankQuery, fragment: Fragment,
                           state: PageRankState) -> Optional[ParamBlock]:
        # as read_changed_params: nothing ran, or everything is fresh
        if state.iteration == state._reported_iteration:
            return None
        state._reported_iteration = state.iteration
        labels, vids = fragment.outer_slots()
        mass = state._incoming[vids]
        sent = mass > 0.0
        if not sent.any():
            return None
        return ParamBlock(labels[sent], mass[sent])

    def assemble(self, query: PageRankQuery, fragmentation: Fragmentation,
                 states: Dict[int, PageRankState]) -> Dict[Node, float]:
        answer: Dict[Node, float] = {}
        for frag in fragmentation:
            state = states[frag.fid]
            answer.update(zip(state._keys, state._vec.tolist())
                          if state.current(frag) else state.rank)
        return answer
