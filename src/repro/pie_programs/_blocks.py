"""The array/dict duality of the CSR programs, written once.

Paper Section 6 lets PEval / IncEval use "any representation effective
for the sequential algorithm".  For SSSP, BFS, CC and PageRank that
representation is an array over the fragment's CSR snapshot, and the
array **is** the per-fragment state: :class:`ArrayState` is ``(snapshot
epoch, array(s))``.  The dict the sequential algorithms of
:mod:`repro.sequential` and the dict-plane hooks work on is a *view*,
materialised from the arrays the first time somebody asks — a served
query on the array plane never does — and from then on a party to every
write: a kernel call mirrors what it changed into the view, and a dict
algorithm that writes the view drops the arrays for good — from there
the view is the state, and nothing rebuilds an array from it.

Which representation serves which path is fixed, not a function of what
happens to be cached: **a query runs on arrays, a standing query's
maintenance runs the bounded dict algorithms on the view.**  The
maintenance hooks (``affected_seeds``, ``expand_affected``,
``apply_nonmonotone``) never look at the fragment's snapshot; dict-plane
``inceval``, which queries and maintenance rounds share, calls the
kernel while the arrays are the state on a live snapshot and the dict
algorithm after a dict algorithm wrote.

:class:`ValueState` / :class:`DecreaseOnlyProgram` are everything SSSP
and BFS share — one value per vertex that only ever decreases, reported
at the ``F_i.O`` copies, aggregated by ``min``, routed to the owner — so
that a float64 distance and an int64 hop count differ by a handful of
class attributes and their textbook dict algorithms.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.aggregators import MinAggregator
from repro.core.pie import BlockSpec, Maintenance, ParamUpdates
from repro.graph.graph import Node
from repro.partition.base import TOMBSTONE, Fragment, Fragmentation
from repro.resilience.errors import StateSnapshotMismatch
from repro.runtime.wire import ParamBlock

__all__ = ["ArrayState", "DecreaseOnlyProgram", "ValueState"]


class ArrayState:
    """``(snapshot epoch, arrays)`` with a dict view derived on demand.

    The arrays (named by ``_arrays``, all set or all ``None``) are
    addressed through ``_keys`` — for a per-vertex array the fragment's
    id table, no view showing its tombstones — and are *current* while
    ``_epoch`` equals the fragment's ``csr_epoch``; only current arrays
    are ever read.  A state that crossed a process boundary (a
    checkpoint, ``collect_states``) carries its arrays and no binding:
    the first hook that hands it a fragment binds it, by the id table.
    """

    _arrays: Tuple[str, ...] = ()

    def __init__(self) -> None:
        for name in self._arrays:
            setattr(self, name, None)
        self._epoch: Optional[int] = None
        self._keys: Optional[List[Node]] = None
        self._view: Any = None
        #: dict plane: border nodes whose value moved since the last
        #: report; ``None`` until the first one — everything is new
        self.dirty: Optional[Set[Node]] = None
        #: array plane: the values last reported, in slot order
        self._sent: Optional[np.ndarray] = None
        #: times a dict view was built from the arrays
        #: (``RunMetrics.dict_views_materialised``)
        self.views_materialised = 0

    @property
    def has_arrays(self) -> bool:
        return getattr(self, self._arrays[0]) is not None

    def current(self, fragment: Fragment) -> bool:
        """Whether the arrays are the state on ``fragment``'s snapshot
        as it is now (binding them first if they arrived by pickle)."""
        if not self.has_arrays:
            return False
        if self._epoch is None:
            keys = self._keys_of(fragment)
            size = getattr(self, self._arrays[0]).shape[0]
            if len(keys) != size:
                raise StateSnapshotMismatch(
                    f"{type(self).__name__} holds arrays over {size} "
                    f"entries; fragment {fragment.fid} has {len(keys)}")
            self._epoch, self._keys = fragment.csr_epoch, keys
        return self._epoch == fragment.csr_epoch

    def _keys_of(self, fragment: Fragment) -> List[Node]:
        return fragment.keys()  # (the id table builds no graph)

    def adopt(self, fragment: Fragment, *arrays) -> None:
        """Freshly computed arrays become the state."""
        for name, array in zip(self._arrays, arrays):
            setattr(self, name, array)
        self._epoch, self._view = fragment.csr_epoch, None
        self._keys = self._keys_of(fragment)

    def drop_arrays(self) -> None:
        """A dict algorithm wrote the view: it alone is the state now.
        (Read the view *before* dropping what it is derived from.)"""
        for name in self._arrays:
            setattr(self, name, None)

    @property
    def view(self) -> Any:
        view = self._view
        if view is None:
            if self.has_arrays:
                if self._keys is None:
                    raise StateSnapshotMismatch(
                        "state not bound to a fragment yet: hand it to "
                        "a program hook before reading its view")
                view = self._materialise()
                self.views_materialised += 1
            else:
                view = self._empty_view()
            self._view = view
        return view

    @view.setter
    def view(self, value: Any) -> None:
        self._view = value
        self.drop_arrays()

    def view_on(self, fragment: Fragment) -> Any:
        """The view, from a hook (binding arrays that came by pickle)."""
        self.current(fragment)
        return self.view

    def _materialise(self) -> Any:
        raise NotImplementedError

    def _empty_view(self) -> Any:
        return {}

    def mark(self, fragment: Fragment, changed: Iterable[Node]) -> None:
        """Dict plane: ``changed`` values moved; the ``F_i.O`` ones are
        due in the next report."""
        if self.dirty is not None:
            self.dirty.update(fragment.outer.intersection(changed))

    def __getstate__(self) -> Dict[str, Any]:
        # The binding means nothing in another process, and beside
        # arrays the view is derived: never pickle a per-vertex dict.
        state = dict(self.__dict__, _epoch=None, _keys=None)
        if self.has_arrays:
            state["_view"] = None
        return state


class ValueState(ArrayState):
    """One value per local vertex (``_arr``, by snapshot vertex id);
    the view is ``{node: value}``, ``sparse`` ones leaving unreached
    (``neutral``) vertices out as the dict algorithm would."""

    _arrays = ("_arr",)
    neutral: Any = None
    dtype: Any = None
    sparse = False

    def _materialise(self) -> Dict[Node, Any]:
        view = dict(zip(self._keys, self._arr.tolist()))
        view.pop(TOMBSTONE, None)
        if self.sparse:
            neutral = self.neutral
            view = {v: x for v, x in view.items() if x < neutral}
        return view

    def array(self, fragment: Fragment) -> np.ndarray:
        """The value array, for a kernel call or an array-plane report:
        read only while it is the state on ``fragment``'s snapshot,
        never rebuilt from the view."""
        if not self.current(fragment):
            raise StateSnapshotMismatch(
                f"{type(self).__name__} on fragment {fragment.fid}: the "
                "snapshot moved or a dict algorithm wrote last — the view "
                "is the state")
        return self._arr

    def relax(self, fragment: Fragment, kernel, seeds) -> None:
        """One kernel call on the value array; a materialised view (and
        with it the dict plane's dirty set) is kept in step."""
        csr = fragment.csr()
        arr = self.array(fragment)
        _arr, changed_ids = kernel(csr, seeds, arr)
        view = self._view
        if view is not None and changed_ids.size:
            node_of = csr.node_of
            changed = [node_of[i] for i in changed_ids.tolist()]
            view.update(zip(changed, arr[changed_ids].tolist()))
            self.mark(fragment, changed)

    def relax_message(self, fragment: Fragment, kernel,
                      updates: Dict[Node, Any]) -> None:
        """Dict-plane IncEval on the kernel.  An estimate for a node the
        local graph does not have is recorded in the view without
        propagation, as the dict algorithm records it."""
        view, neutral = self.view_on(fragment), self.neutral
        id_of = fragment.csr().id_of
        seeds: Dict[int, Any] = {}
        for node, value in updates.items():
            vid = id_of.get(node)
            if vid is None:
                if value < view.get(node, neutral):
                    view[node] = value
            elif value < seeds.get(vid, neutral):
                seeds[vid] = value
        self.relax(fragment, kernel, seeds)


class DecreaseOnlyProgram(Maintenance):
    """What SSSP and BFS share.  A subclass names its state class, its
    kernel, the parameter name, the value of the source
    (``zero``), what an unreached vertex reads in the answer
    (``unreached``), how a value travels along an edge (:meth:`_through`)
    and its two dict algorithms (:meth:`_peval_dict`,
    :meth:`_decrease`)."""

    aggregator = MinAggregator()
    param_width = 8
    # F_i.O copies carry no local out-edges, so updates only need to
    # reach the owning fragment (the paper routes dist to F_j.I owners).
    route_to = "owner"

    state_class: type = ValueState
    param_name = "value"
    zero: Any = 0
    unreached: Any = None
    #: whether edge weights reach the values (reweights can invalidate)
    weighted = True
    _kernel = None

    def __init__(self, use_csr: bool = True):
        self.use_csr = use_csr
        self.neutral = self.state_class.neutral

    @property
    def block_spec(self) -> Optional[BlockSpec]:
        return (BlockSpec(self.state_class.dtype, self.neutral)
                if self.use_csr else None)

    def init_state(self, query: Node, fragment: Fragment) -> ValueState:
        # every value starts neutral (represented by absence)
        return self.state_class()

    @staticmethod
    def _through(value: Any, weight: float) -> Any:
        """The candidate an edge of ``weight`` offers its head when its
        tail holds ``value``."""
        raise NotImplementedError

    def _peval_dict(self, query: Node, fragment: Fragment,
                    state: ValueState) -> None:
        """The textbook batch algorithm on the dict graph and view."""
        raise NotImplementedError

    @staticmethod
    def _decrease(fragment: Fragment, view: Dict[Node, Any],
                  updates: Dict[Node, Any]) -> Set[Node]:
        """The textbook bounded incremental algorithm: apply improving
        ``updates`` to ``view`` in place, propagate, return what moved."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def peval(self, query: Node, fragment: Fragment,
              state: ValueState) -> None:
        # On a fresh state there is nothing to compare with: every
        # finite F_i.O value is new, which is what the first report —
        # ``dirty is None`` / ``_sent is None`` — says.  Otherwise (an
        # NI-mode re-run, a failure replay) resume from what is known.
        old = before = None
        if state.has_arrays or state._view:
            old = state.view_on(fragment)
            before = {v: old[v] for v in fragment.outer if v in old}
        if self.use_csr:
            csr = fragment.csr()
            id_of, neutral = csr.id_of, self.neutral
            # id_of.get: estimates recorded for locally-unknown nodes are
            # ignored, as the dict algorithm's initial filter ignores them
            seeds = {id_of[v]: d for v, d in (old or {}).items()
                     if d < neutral and v in id_of}
            if query in id_of:
                sid = id_of[query]
                seeds[sid] = min(seeds.get(sid, neutral), self.zero)
            arr, _changed = self._kernel(csr, seeds)
            state.adopt(fragment, arr)
        else:
            self._peval_dict(query, fragment, state)
            state.drop_arrays()
        if before is not None:
            now, neutral = state.view_on(fragment), self.neutral
            state.mark(fragment, [v for v in fragment.outer
                                  if now.get(v, neutral)
                                  != before.get(v, neutral)])

    def inceval(self, query: Node, fragment: Fragment, state: ValueState,
                message: ParamUpdates) -> None:
        updates = {node: value for (node, _name), value in message.items()}
        # The kernel only while the arrays are the state on a live
        # snapshot — never an array rebuilt from the view (use_csr off:
        # there are no arrays) to relax a handful of border values.
        if fragment.csr_cached and state.current(fragment):
            state.relax_message(fragment, self._kernel, updates)
        else:
            changed = self._decrease(fragment, state.view_on(fragment),
                                     updates)
            state.drop_arrays()
            state.mark(fragment, changed)

    def inceval_block(self, query: Node, fragment: Fragment,
                      state: ValueState, block: ParamBlock) -> None:
        state.relax(fragment, self._kernel,
                    (fragment.csr().ids_of(block.ids), block.vals))

    def read_changed_block(self, query: Node, fragment: Fragment,
                           state: ValueState) -> Optional[ParamBlock]:
        # A gather at the F_i.O slots compared with what was last sent:
        # the entries the dict protocol's dirty set would name
        # (``_sent is None``: every non-neutral one).  Which way they
        # moved is the coordinator's to judge (``check_monotonic``).
        if state.dirty:
            state.dirty.clear()  # the array diff subsumes it
        labels, vids = fragment.outer_slots()
        vals = state.array(fragment)[vids]
        sent = state._sent
        changed = vals != (self.neutral if sent is None else sent)
        if not changed.any():
            return None
        state._sent = vals
        return ParamBlock(labels[changed], vals[changed])

    def apply_message(self, query: Node, fragment: Fragment,
                      state: ValueState, message: ParamUpdates) -> None:
        # NI mode: take improved values, no propagation (PEval follows).
        view, neutral = state.view_on(fragment), self.neutral
        for (node, _name), value in message.items():
            if value < view.get(node, neutral):
                view[node] = value
        state.drop_arrays()

    # ------------------------------------------------------------------
    # Bounded maintenance (delete-aware IncEval)
    # ------------------------------------------------------------------
    def affected_seeds(self, query: Node, fragment: Fragment,
                       state: ValueState, delta) -> Set[Node]:
        """Direct hits: heads of deleted (and, for weighted programs,
        reweighted) edges whose converged value was exactly supported by
        that edge — tested with the *old* weight, on the values the edge
        helped converge — plus retired mirror copies holding stale
        estimates.  *Every* reweight seeds, not just increases: a
        decreased edge in the same non-monotone batch makes the old
        support equality unrecognizable to the closure (the stored
        weight moved), so its head could otherwise keep a stale value
        whose upstream support was raised.  Conservative resets are safe
        — the re-seeding re-derives the value.  For undirected fragments
        both orientations are tested (a local deletion removes both
        stored directions but records one triple)."""
        view, neutral = state.view_on(fragment), self.neutral
        through = self._through
        undirected = not fragment.graph.directed
        seeds: Set[Node] = set()

        def hit(u: Node, v: Node, w: float) -> bool:
            du = view.get(u, neutral)
            return du < neutral and view.get(v, neutral) == through(du, w)

        edges = list(delta.deletions)
        if self.weighted:
            edges += [(u, v, old) for u, v, old, _new
                      in delta.weight_changes]
        for u, v, w in edges:
            if hit(u, v, w):
                seeds.add(v)
            if undirected and hit(v, u, w):
                seeds.add(u)
        seeds.update(delta.retired_nodes)
        return seeds

    def expand_affected(self, query: Node, fragment: Fragment,
                        state: ValueState, nodes: Set[Node]) -> Set[Node]:
        """Close the region along still-standing support chains: a
        vertex whose current value equals what an affected in-neighbor
        offers it over the (current) edge may have lost its support too.
        Mutated edges need no closure step of their own — their heads
        are direct hits of :meth:`affected_seeds`.  Unreached vertices
        are never expanded through (``neutral`` is not a support)."""
        view, neutral = state.view_on(fragment), self.neutral
        through, graph = self._through, fragment.graph
        affected = {v for v in nodes if v in view or graph.has_node(v)}
        dq = deque(v for v in affected
                   if graph.has_node(v) and view.get(v, neutral) < neutral)
        while dq:
            y = dq.popleft()
            dy = view[y]
            for x, w in graph.successors_with_weights(y):
                if x not in affected \
                        and view.get(x, neutral) == through(dy, w):
                    affected.add(x)
                    dq.append(x)
        return affected

    def apply_nonmonotone(self, query: Node, fragment: Fragment,
                          state: ValueState, delta,
                          affected: Set[Node]) -> None:
        """Reset the affected vertices to neutral, re-seed them from
        *unaffected* in-neighbors on the mutated graph, fold the batch's
        monotone part, and re-converge locally.  Every seed is a real
        path value, so the monotone relaxation from here reaches the
        exact (bitwise) fixpoint."""
        graph, view = fragment.graph, state.view_on(fragment)
        neutral, through = self.neutral, self._through
        # The graph was (possibly) mutated and the pops below bypass the
        # kernels, so any value array is stale either way.
        state.drop_arrays()
        for v in affected:
            view.pop(v, None)
        if delta is not None:
            for v in delta.retired_nodes:
                view.pop(v, None)
        seeds: Dict[Node, Any] = {}

        def offer(v: Node, d: Any) -> None:
            if d < min(view.get(v, neutral), seeds.get(v, neutral)):
                seeds[v] = d

        if graph.has_node(query) and query in affected:
            offer(query, self.zero)
        for x in affected:
            if not graph.has_node(x):
                continue
            for y, w in graph.predecessors_with_weights(x):
                if y not in affected:
                    dy = view.get(y, neutral)
                    if dy < neutral:
                        offer(x, through(dy, w))
        for u, v, w in (delta.as_insertions if delta is not None else ()):
            offer(v, through(self.zero if u == query
                             else view.get(u, neutral), w))
        state.mark(fragment, self._decrease(fragment, view, seeds))

    # ------------------------------------------------------------------
    def read_update_params(self, query: Node, fragment: Fragment,
                           state: ValueState) -> ParamUpdates:
        # C_i = F_i.O; neutral estimates carry no information and are
        # never shipped.
        return self.report_entries(query, fragment, state, fragment.outer)

    def report_entries(self, query: Node, fragment: Fragment,
                       state: ValueState, nodes: Set[Node]) -> ParamUpdates:
        """Per-node restriction of :meth:`read_update_params` — the
        session's incremental rebaseline probes exactly the vertices a
        non-monotone batch could have touched."""
        view, neutral = state.view_on(fragment), self.neutral
        name, outer = self.param_name, fragment.outer
        return {(v, name): view[v] for v in nodes
                if v in outer and view.get(v, neutral) < neutral}

    def read_changed_params(self, query: Node, fragment: Fragment,
                            state: ValueState) -> ParamUpdates:
        dirty, state.dirty = state.dirty, set()
        if dirty is None:  # the first report: every finite value is new
            dirty = fragment.outer
        elif not dirty:
            return {}
        return self.report_entries(query, fragment, state, dirty)

    def assemble(self, query: Node, fragmentation: Fragmentation,
                 states: Dict[int, ValueState]) -> Dict[Node, Any]:
        answer: Dict[Node, Any] = {}
        neutral, unreached = self.neutral, self.unreached
        for frag in fragmentation:
            state = states[frag.fid]
            if state.current(frag):
                nodes, ids = frag.owned_slots()
                vals = state._arr[ids]
                if unreached != neutral:
                    vals = np.where(vals < neutral, vals, unreached)
                answer.update(zip(nodes, vals.tolist()))
            else:  # a dict algorithm wrote last (maintenance)
                view = state.view
                answer.update((v, view.get(v, unreached))
                              for v in frag.owned)
        return answer
