"""PIE program for connected components (paper Section 5.2).

``PEval`` computes fragment-local components and links every member to a
component root; ``IncEval`` lowers component ids by following the root
links (the paper's bounded incremental step); ``Assemble`` buckets nodes
by final component id.

With ``use_csr`` on (the default, for integer-labelled graphs) the state
is two arrays over the fragment's CSR snapshot: ``comp``, the
representative :func:`repro.kernels.csr_components` found for every
vertex, and ``lab``, the current component id of every representative —
a vertex's cid is ``lab[comp[v]]``.  ``IncEval`` is one
``np.minimum.at`` on ``lab``, a report is a gather at the border slots
compared with what was last sent, and ``Assemble`` is one
argsort-split.  The dict structure of the textbook algorithm
(:class:`~repro.sequential.wcc.LocalComponents`, ``state.comps``) is a
view built from ``(comp, lab)`` when somebody asks for it — every
dict-plane hook does, and session maintenance, whose ``add_edge`` /
``drop_components`` / ``rebuild_region`` need member lists — and from
then on it is the state: the arrays are dropped, not mirrored.  No
maintenance hook looks at the snapshot: a condemned region is
re-discovered by a BFS over the mutated dict graph, ``O(|region|)``.

Message preamble: integer ``v.cid`` per node, candidate set = the border
nodes, ``aggregateMsg = min``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.aggregators import MinAggregator
from repro.core.pie import BlockSpec, Maintenance, ParamUpdates
from repro.graph.graph import Node
from repro.kernels import csr_components
from repro.partition.base import TOMBSTONE, Fragment, Fragmentation
from repro.pie_programs._blocks import ArrayState
from repro.runtime.wire import ParamBlock
from repro.sequential.wcc import LocalComponents

__all__ = ["CCProgram", "CCState"]

_NO_CID = np.iinfo(np.int64).max


def _components_view(comp: np.ndarray, nodes: List[Node],
                     lab: Optional[np.ndarray] = None) -> LocalComponents:
    """The dict structure of the partition ``comp`` (representative per
    dense id) over ``nodes`` (a tombstone's is empty), every component
    lowered to its ``lab`` where one was learned."""
    order = np.argsort(comp, kind="stable")
    if not order.size:
        return LocalComponents.from_partition([])
    bounds = np.flatnonzero(np.diff(comp[order])) + 1
    groups = [[nodes[i] for i in idx.tolist() if nodes[i] is not TOMBSTONE]
              for idx in np.split(order, bounds)]
    comps = LocalComponents.from_partition(groups)
    if lab is not None:
        reps = comp[order[np.concatenate(([0], bounds))]]
        for group, cid in zip(groups, lab[reps].tolist()):
            if group:
                comps.lower_cid(group[0], cid)
    return comps


class CCState(ArrayState):
    """Per-fragment state: ``(comp, lab)`` over the snapshot's vertices,
    or — once ``comps`` was asked for — the component structure."""

    _arrays = ("_comp", "_lab")

    def __init__(self) -> None:
        super().__init__()
        #: ``fragment.border_slots()`` as PEval found them (read by the
        #: block hooks of one run: every dict-plane hook asks for ``comps``)
        self._slots: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _empty_view(self) -> None:
        return None

    def _materialise(self) -> LocalComponents:
        return _components_view(self._comp, self._keys, self._lab)

    @property
    def comps(self) -> Optional[LocalComponents]:
        """The component structure; asking makes it the state.  What
        moved since the last array report becomes the dirty set."""
        comps = self.view
        if self.has_arrays:
            if self._sent is not None:
                labels, ids = self._slots
                now = self._lab[self._comp[ids]]
                self.dirty = set(labels[now != self._sent].tolist())
            self.drop_arrays()
        return comps

    @comps.setter
    def comps(self, value: LocalComponents) -> None:
        self.view = value

    def comps_on(self, fragment: Fragment) -> Optional[LocalComponents]:
        self.current(fragment)
        return self.comps

    def arrays_on(self, fragment: Fragment
                  ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(comp, lab)`` while they are the state on ``fragment``'s
        live snapshot; ``None`` when the component structure is (made
        so, if the snapshot moved or was never built here)."""
        if self.current(fragment) and fragment.csr_cached:
            return self._comp, self._lab
        _structure = self.comps  # the transition, if there are arrays
        return None

    def mark(self, fragment: Fragment, changed: Iterable[Node]) -> None:
        if self.dirty is not None:
            inner, outer = fragment.inner, fragment.outer
            self.dirty.update(m for m in changed
                              if m in inner or m in outer)


class CCProgram(Maintenance):
    """Query: ignored (CC is a whole-graph computation).

    Answer: ``{component id: set of nodes}``.
    """

    name = "CC"
    aggregator = MinAggregator()
    param_width = 8  # one int64 component id (a node label)
    route_to = "holders"

    def __init__(self, use_csr: bool = True):
        self.use_csr = use_csr

    @property
    def block_spec(self) -> Optional[BlockSpec]:
        return (BlockSpec(np.int64, np.iinfo(np.int64).max)
                if self.use_csr else None)

    def init_state(self, query, fragment: Fragment) -> CCState:
        return CCState()

    def peval(self, query, fragment: Fragment, state: CCState) -> None:
        csr = fragment.csr() if self.use_csr else None
        old = state.arrays_on(fragment)
        if (csr is None or csr.int_labels is None
                or state._view is not None):
            return self._peval_dict(fragment, state)
        comp = csr_components(csr)
        lab = np.full(csr.n, _NO_CID, dtype=np.int64)
        np.minimum.at(lab, comp, csr.int_labels)
        if old is not None:
            # NI-mode re-run / failure replay: never regress below ids
            # already learned from other fragments (monotonicity).
            np.minimum.at(lab, comp, old[1][old[0]])
        state.adopt(fragment, comp, lab)
        state._slots = fragment.border_slots()

    def _peval_dict(self, fragment: Fragment, state: CCState) -> None:
        """PEval into the component structure (``use_csr=False``, labels
        that are not array values, or a state that already is one)."""
        old = state.comps_on(fragment)
        if self.use_csr:
            csr = fragment.csr()
            comps = _components_view(csr_components(csr), fragment.keys())
        else:
            comps = LocalComponents(fragment.graph)
        state.comps = comps
        if old is None:
            return  # the first report names every border node
        cids = comps.cid
        for v, c in old.cid.items():
            if c < cids.get(v, c):
                comps.lower_cid(v, c)  # as above: never regress
        state.mark(fragment, [v for v in fragment.border_nodes
                              if cids[v] != old.cid.get(v)])

    def inceval(self, query, fragment: Fragment, state: CCState,
                message: ParamUpdates) -> None:
        self._lower(fragment, state,
                    ((v, cid) for (v, _name), cid in message.items()))

    def inceval_block(self, query, fragment: Fragment, state: CCState,
                      block: ParamBlock) -> None:
        arrays = state.arrays_on(fragment)
        if arrays is None:
            return self._lower(fragment, state, zip(block.ids.tolist(),
                                                    block.vals.tolist()))
        comp, lab = arrays
        np.minimum.at(lab, comp[fragment.csr().ids_of(block.ids)],
                      block.vals)

    @staticmethod
    def _lower(fragment: Fragment, state: CCState, pairs) -> None:
        """The bounded IncEval step on the component structure: lower
        each named border node's component to the incoming id, following
        the root links."""
        comps = state.comps_on(fragment)
        for v, cid in pairs:
            state.mark(fragment, comps.lower_cid(v, cid))

    def apply_message(self, query, fragment: Fragment, state: CCState,
                      message: ParamUpdates) -> None:
        # NI mode: record incoming ids; the PEval re-run folds them in.
        comps = state.comps_on(fragment)
        for (v, _name), cid in message.items():
            if comps is not None and cid < comps.cid.get(v, cid):
                comps.cid[v] = cid
                state.mark(fragment, (v,))

    # ------------------------------------------------------------------
    # Bounded maintenance (delete-aware IncEval)
    # ------------------------------------------------------------------
    def affected_seeds_global(self, query, fragments, states,
                              touched) -> Dict[int, Set[Node]]:
        """Coordinator-side batch seeding: exact split detection.  Only
        deletions can split a component — CC ignores weights, so a
        batch without deletions seeds nothing.

        Whether a deletion splits a component is a *global* question —
        a pair severed inside one fragment is routinely still connected
        through a path crossing other fragments, and condemning on
        local evidence resets (and re-labels) the whole old component
        for nothing.  Bounded maintenance runs on the driver with every
        fragment in reach, so the question is answered exactly: a
        deleted edge seeds only when its endpoints are disconnected in
        the union adjacency of all fragments (checked once per distinct
        edge, not per recording fragment).  Skipped deletions leave the
        local component structures coarser than the mutated graph,
        which is safe — every stored component remains a subset of one
        true global component, so cid propagation stays exact and a
        later real split still condemns (conservatively coarsely) and
        rebuilds exactly.
        """
        severed: Dict[frozenset, bool] = {}
        for fid, delta in touched.items():
            for u, v, _w in delta.deletions:
                pair = frozenset((u, v))
                if pair not in severed:
                    severed[pair] = not self._globally_reconnected(
                        fragments, u, v)
        seeds: Dict[int, Set[Node]] = {}
        for fid, delta in touched.items():
            found: Set[Node] = set()
            comps = states[fid].comps_on(fragments[fid])
            graph = fragments[fid].graph
            for u, v, _w in delta.deletions:
                if not severed[frozenset((u, v))]:
                    continue
                for x in (u, v):
                    if comps is not None and x in comps.cid:
                        found.update(comps.component_members(x))
                    elif graph.has_node(x):
                        found.add(x)
            # Retired mirrors are *not* seeded here: with split
            # detection exact, a surviving component keeps its cids and
            # the departed copy is merely detached from the local
            # structure (apply_nonmonotone); its border claim retracts
            # through the rebaseline tombstone.
            seeds[fid] = found
        return seeds

    @staticmethod
    def _globally_reconnected(fragments, u: Node, v: Node) -> bool:
        """Bidirectional BFS between ``u`` and ``v`` on the union
        adjacency of all fragments, expanding the smaller frontier
        first.  Reconnected pairs meet after exploring a small ball
        around each endpoint; severed pairs exhaust the smaller side of
        the cut — typically the pendant piece a bridge cuts off — so
        both verdicts stay far below one component sweep."""
        if u == v:
            return True
        holders = [f.graph for f in fragments]

        def neighbors(x: Node):
            for g in holders:
                if g.has_node(x):
                    yield from g.neighbors(x)

        side_u, side_v = {u}, {v}
        frontier_u, frontier_v = [u], [v]
        while frontier_u and frontier_v:
            if len(frontier_u) <= len(frontier_v):
                frontier, side, other = frontier_u, side_u, side_v
            else:
                frontier, side, other = frontier_v, side_v, side_u
            fresh: list = []
            for x in frontier:
                for y in neighbors(x):
                    if y in other:
                        return True
                    if y not in side:
                        side.add(y)
                        fresh.append(y)
            if frontier is frontier_u:
                frontier_u = fresh
            else:
                frontier_v = fresh
        return False

    def expand_affected(self, query, fragment: Fragment, state: CCState,
                        nodes: Set[Node]) -> Set[Node]:
        """A vertex condemned anywhere condemns its whole local
        component here: local components are closed under local edges,
        and shared border copies chain the closure across fragments
        until the old global component is covered.  A node already in
        ``grown`` had its whole component enumerated (member lists are
        closed), so each distinct component is walked once — the
        closure costs ``O(|nodes| + |region|)``, not
        ``O(|nodes| * |region|)``.  The dedup is by membership, not by
        cid: distinct local components routinely share one *global*
        label."""
        comps = state.comps_on(fragment)
        grown: Set[Node] = set()
        for v in nodes:
            if comps is not None and v in comps.cid:
                if v not in grown:
                    grown.update(comps.component_members(v))
            elif fragment.graph.has_node(v):
                grown.add(v)
        return grown

    def apply_nonmonotone(self, query, fragment: Fragment, state: CCState,
                          delta, affected: Set[Node]) -> None:
        """Drop the condemned components, re-discover components inside
        the region on the mutated graph (fresh local-minimum cids — the
        retraction of any split-off global minimum), then fold the
        batch's insertions; the resumed message fixpoint re-derives the
        global minima."""
        comps = state.comps_on(fragment)
        if comps is None:
            comps = state.comps = LocalComponents(fragment.graph)
        comps.drop_components(affected)
        if delta is not None:
            # Retired copies outside the condemned region (their
            # component survived the batch globally) leave quietly.
            for v in delta.retired_nodes:
                if v not in affected:
                    comps.detach(v)
        comps.rebuild_region(fragment.graph, affected)
        if delta is not None:
            for u, v, _w in delta.insertions:
                state.mark(fragment, comps.add_edge(u, v))

    def read_update_params(self, query, fragment: Fragment,
                           state: CCState) -> ParamUpdates:
        return self.report_entries(query, fragment, state,
                                   fragment.border_nodes)

    def report_entries(self, query, fragment: Fragment, state: CCState,
                       nodes: Set[Node]) -> ParamUpdates:
        """Per-node restriction of :meth:`read_update_params` — the
        session's incremental rebaseline probes exactly the vertices a
        non-monotone batch could have touched."""
        comps = state.comps_on(fragment)
        cids = comps.cid if comps is not None else {}
        inner, outer = fragment.inner, fragment.outer
        # .get(v, v): a node that joined via a graph update without any
        # local edge is locally its own singleton component.
        return {(v, "cid"): cids.get(v, v) for v in nodes
                if v in inner or v in outer}

    def read_changed_params(self, query, fragment: Fragment,
                            state: CCState) -> ParamUpdates:
        state.comps_on(fragment)  # (what the arrays owed becomes dirty)
        dirty, state.dirty = state.dirty, set()
        if dirty is None:  # the first report names every border node
            dirty = fragment.border_nodes
        return self.report_entries(query, fragment, state, dirty)

    def read_changed_block(self, query, fragment: Fragment,
                           state: CCState) -> Optional[ParamBlock]:
        arrays = state.arrays_on(fragment)
        if arrays is None:
            params = self.read_changed_params(query, fragment, state)
            if not params:
                return None
            return ParamBlock(
                np.array([v for v, _name in params], dtype=np.int64),
                np.array(list(params.values()), dtype=np.int64))
        comp, lab = arrays
        labels, ids = state._slots
        vals = lab[comp[ids]]
        # what moved, either way; nothing sent yet: every border node
        moved = vals != (_NO_CID if state._sent is None else state._sent)
        if not moved.any():
            return None
        state._sent = vals
        return ParamBlock(labels[moved], vals[moved])

    def assemble(self, query, fragmentation: Fragmentation,
                 states: Dict[int, CCState]) -> Dict[Node, Set[Node]]:
        buckets: Dict[Node, Set[Node]] = {}
        cids, members, loose = [], [], []
        for frag in fragmentation:
            state = states[frag.fid]
            if state.current(frag):
                nodes, ids = frag.owned_slots()
                cids.append(state._lab[state._comp[ids]])
                members.append(frag.csr().int_labels[ids] if frag.csr_cached
                               else np.array(nodes, dtype=np.int64))
            else:
                loose.append((frag, state.comps.cid))
        if cids:
            cid, member = np.concatenate(cids), np.concatenate(members)
            order = np.argsort(cid, kind="stable")
            cid, member = cid[order], member[order]
            bounds = np.flatnonzero(np.diff(cid)) + 1
            if cid.size:
                for c, group in zip(cid[np.concatenate(([0], bounds))].tolist(),
                                    np.split(member, bounds)):
                    buckets[c] = set(group.tolist())
        for frag, cid_of in loose:
            for v in frag.owned:
                buckets.setdefault(cid_of.get(v, v), set()).add(v)
        return buckets
