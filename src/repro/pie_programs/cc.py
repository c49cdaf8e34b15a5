"""PIE program for connected components (paper Section 5.2).

``PEval`` computes fragment-local components and links every member to a
component root; ``IncEval`` lowers component ids in ``O(|AFF|)`` by
following the root links (the paper's bounded incremental step);
``Assemble`` buckets nodes by final component id.

With ``use_csr`` on (the default) ``PEval`` finds the local components by
min-label propagation over the fragment's CSR snapshot
(:func:`repro.kernels.csr_components`) instead of a Python BFS; the
root/member bookkeeping and the bounded ``IncEval`` relabeling are shared
— ``lower_cid`` is already O(|affected component|), so only the
whole-fragment batch pass gains from vectorization.  Changed border cids
are tracked as a dirty set feeding ``read_changed_params``.

Message preamble: integer ``v.cid`` per node, candidate set = the border
nodes, ``aggregateMsg = min``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from repro.core.aggregators import MinAggregator
from repro.core.pie import BlockSpec, ParamUpdates, PIEProgram
from repro.graph.graph import Node
from repro.kernels import csr_components, csr_region_components
from repro.partition.base import Fragment, Fragmentation
from repro.runtime.wire import ParamBlock
from repro.sequential.wcc import LocalComponents

__all__ = ["CCProgram", "CCState"]


@dataclass
class CCState:
    """Per-fragment state: the local component structure."""

    comps: Optional[LocalComponents] = None
    #: border nodes whose cid changed since the last report
    dirty: Set[Node] = field(default_factory=set)


class CCProgram(PIEProgram):
    """Query: ignored (CC is a whole-graph computation).

    Answer: ``{component id: set of nodes}``.
    """

    name = "CC"
    aggregator = MinAggregator()
    supports_csr = True
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
        old_cids = state.comps.cid if state.comps is not None else None
        if self.use_csr:
            state.comps = self._local_components_csr(fragment)
        else:
            state.comps = LocalComponents(fragment.graph)
        if old_cids:
            # NI-mode re-run / failure replay: never regress below ids
            # already learned from other fragments (monotonicity).
            for v, c in old_cids.items():
                if c < state.comps.cid.get(v, c):
                    state.comps.lower_cid(v, c)
        cids = state.comps.cid
        for v in fragment.inner:
            if old_cids is None or cids[v] != old_cids.get(v):
                state.dirty.add(v)
        for v in fragment.outer:
            if old_cids is None or cids[v] != old_cids.get(v):
                state.dirty.add(v)

    @staticmethod
    def _local_components_csr(fragment: Fragment) -> LocalComponents:
        csr = fragment.csr()
        if not csr.n:
            return LocalComponents.from_partition([])
        comp = csr_components(csr)
        order = np.argsort(comp, kind="stable")
        boundaries = np.nonzero(np.diff(comp[order]))[0] + 1
        node_of = csr.node_of
        groups = [[node_of[i] for i in idx.tolist()]
                  for idx in np.split(order, boundaries)]
        return LocalComponents.from_partition(groups)

    def inceval(self, query, fragment: Fragment, state: CCState,
                message: ParamUpdates) -> None:
        self._lower(fragment, state,
                    ((v, cid) for (v, _name), cid in message.items()))

    def inceval_block(self, query, fragment: Fragment, state: CCState,
                      block: ParamBlock) -> None:
        self._lower(fragment, state,
                    zip(block.ids.tolist(), block.vals.tolist()))

    @staticmethod
    def _lower(fragment: Fragment, state: CCState, pairs) -> None:
        """The bounded IncEval step: lower each named border node's
        component to the incoming id, following the root links."""
        inner, outer = fragment.inner, fragment.outer
        for v, cid in pairs:
            for m in state.comps.lower_cid(v, cid):
                if m in inner or m in outer:
                    state.dirty.add(m)

    def apply_message(self, query, fragment: Fragment, state: CCState,
                      message: ParamUpdates) -> None:
        # NI mode: record incoming ids; the PEval re-run folds them in.
        for (v, _name), cid in message.items():
            if state.comps is not None and cid < state.comps.cid.get(v, cid):
                state.comps.cid[v] = cid
                if v in fragment.inner or v in fragment.outer:
                    state.dirty.add(v)

    def maintainable(self, delta) -> bool:
        """Every batch is maintainable: CC ignores weights entirely, so
        any reweight is answer-preserving; insertions merge through
        :meth:`on_graph_update`; deletions go through the bounded
        affected-region path (condemn + rebuild the touched
        components)."""
        return True

    def invalidates(self, delta) -> bool:
        """Only deletions (and the mirror retirements they cause) can
        split components; reweight-only batches stay on the monotone
        fold."""
        return delta.has_deletions

    def on_graph_update(self, query, fragment: Fragment, state: CCState,
                        delta) -> None:
        """Inserted edges merge local components (weighted union);
        reweights need no work at all."""
        edges = delta.insertions if hasattr(delta, "insertions") else delta
        for u, v, _w in edges:
            for m in state.comps.add_edge(u, v):
                if m in fragment.inner or m in fragment.outer:
                    state.dirty.add(m)

    # ------------------------------------------------------------------
    # Bounded non-monotone maintenance (delete-aware IncEval)
    # ------------------------------------------------------------------
    def affected_seeds(self, query, fragment: Fragment, state: CCState,
                       delta) -> Set[Node]:
        """Direct hits, filtered by a local reconnection check: a
        deleted edge whose endpoints are still connected on the
        (already-mutated) local graph cannot change any component —
        local connectivity implies global connectivity, so the old cids
        stay exact and the deletion seeds nothing.  Only deletions that
        genuinely sever their endpoints locally condemn, and membership
        carries no provenance to narrow the blast radius below the
        endpoint's whole *local* component (the cross-fragment closure
        grows this to the old global component, which is exactly
        ``AFF`` for CC).  ``Graph.neighbors`` is symmetric also on
        directed graphs, matching the weak-connectivity relation the
        component structure is built on, so the filter applies to both
        orientations."""
        comps = state.comps
        graph = fragment.graph
        seeds: Set[Node] = set()
        for u, v, _w in delta.deletions:
            if self._locally_reconnected(comps, graph, u, v):
                continue
            for x in (u, v):
                if comps is not None and x in comps.cid:
                    seeds.update(comps.component_members(x))
                else:
                    seeds.add(x)
        seeds.update(delta.retired_nodes)
        return seeds

    @staticmethod
    def _locally_reconnected(comps: Optional[LocalComponents], graph,
                             u: Node, v: Node) -> bool:
        """BFS from ``u`` toward ``v`` on the mutated local graph,
        restricted to the endpoints' old local component (the search may
        not leave it: the component was closed under local edges and the
        batch's insertions are folded separately).  Early exit on
        reaching ``v``; worst case — the endpoints really are severed —
        costs one sweep of the component about to be condemned anyway."""
        if comps is None or u not in comps.cid or v not in comps.cid:
            return False
        if not (graph.has_node(u) and graph.has_node(v)):
            return False
        target_cid = comps.cid[u]
        if comps.cid[v] != target_cid:
            return False
        cid = comps.cid
        seen = {u}
        dq = deque([u])
        while dq:
            x = dq.popleft()
            for y in graph.neighbors(x):
                if y == v:
                    return True
                if y not in seen and cid.get(y) == target_cid:
                    seen.add(y)
                    dq.append(y)
        return False

    def affected_seeds_global(self, query, fragments, states,
                              touched) -> Dict[int, Set[Node]]:
        """Driver-side batch seeding: exact split detection.

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
            comps = states[fid].comps
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
        comps = state.comps
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
        comps = state.comps
        if comps is None:
            comps = state.comps = LocalComponents(fragment.graph)
        comps.drop_components(affected)
        if delta is not None:
            # Retired copies outside the condemned region (their
            # component survived the batch globally) leave quietly.
            for v in delta.retired_nodes:
                if v not in affected:
                    comps.detach(v)
        region = {v for v in affected if fragment.graph.has_node(v)}
        if region:
            if self.use_csr and fragment.csr_cached:
                self._rebuild_region_csr(fragment, comps, region)
            else:
                comps.rebuild_region(fragment.graph, region)
        if delta is not None:
            inner, outer = fragment.inner, fragment.outer
            for u, v, _w in delta.insertions:
                for m in comps.add_edge(u, v):
                    if m in inner or m in outer:
                        state.dirty.add(m)

    @staticmethod
    def _rebuild_region_csr(fragment: Fragment, comps: LocalComponents,
                            region: Set[Node]) -> None:
        csr = fragment.csr()
        id_of = csr.id_of
        node_of = csr.node_of
        groups = csr_region_components(csr, [id_of[v] for v in region])
        for group in groups:
            comps.install([node_of[i] for i in group.tolist()])

    def read_update_params(self, query, fragment: Fragment,
                           state: CCState) -> ParamUpdates:
        # .get(v, v): a node that joined via a graph update without any
        # local edge is locally its own singleton component.
        cids = state.comps.cid
        return {(v, "cid"): cids.get(v, v) for v in fragment.border_nodes}

    def report_entries(self, query, fragment: Fragment, state: CCState,
                       nodes: Set[Node]) -> ParamUpdates:
        """Per-node restriction of :meth:`read_update_params` — the
        session's incremental rebaseline probes exactly the vertices a
        non-monotone batch could have touched."""
        cids = state.comps.cid if state.comps is not None else {}
        inner, outer = fragment.inner, fragment.outer
        return {(v, "cid"): cids.get(v, v) for v in nodes
                if v in inner or v in outer}

    def read_changed_params(self, query, fragment: Fragment,
                            state: CCState) -> ParamUpdates:
        if not state.dirty:
            return {}
        dirty, state.dirty = state.dirty, set()
        cids = state.comps.cid
        return {(v, "cid"): cids.get(v, v) for v in dirty}

    def read_changed_block(self, query, fragment: Fragment,
                           state: CCState) -> Optional[ParamBlock]:
        # The component structure is dict-based (LocalComponents), so the
        # block is gathered from the dirty set rather than a kernel array.
        if not state.dirty:
            return None
        dirty, state.dirty = list(state.dirty), set()
        cids = state.comps.cid
        return ParamBlock(
            np.array(dirty, dtype=np.int64),
            np.array([cids.get(v, v) for v in dirty], dtype=np.int64))

    def assemble(self, query, fragmentation: Fragmentation,
                 states: Dict[int, CCState]) -> Dict[Node, Set[Node]]:
        buckets: Dict[Node, Set[Node]] = {}
        for frag in fragmentation:
            cids = states[frag.fid].comps.cid
            for v in frag.owned:
                buckets.setdefault(cids.get(v, v), set()).add(v)
        return buckets
