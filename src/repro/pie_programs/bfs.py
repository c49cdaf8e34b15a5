"""PIE program for breadth-first search (hop distances).

One of the stock applications the GRAPE lineage ships (libgrape-lite's
``bfs``): identical structure to SSSP with unit weights, but the
sequential algorithms are the textbook queue-based BFS and its resume-
from-frontier incremental variant — another illustration that plugging in
a different sequential pair is all a new query class needs.

With ``use_csr`` on (the default) both functions run as level-synchronous
frontier expansions over the fragment's CSR snapshot
(:func:`repro.kernels.csr_bfs`) — hop counts are integers, so the paths
are trivially identical — and dirty border hops feed the engine's
incremental coordinator protocol via ``read_changed_params``, or, on the
array plane, as a gather of the hop array at the ``F_i.O`` slots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

import numpy as np

from repro.core.aggregators import MinAggregator
from repro.core.pie import BlockSpec, ParamUpdates, PIEProgram
from repro.graph.graph import Node
from repro.kernels import (UNREACHED_HOPS, csr_bfs, csr_bfs_affected,
                           csr_bfs_reseed)
from repro.partition.base import Fragment, Fragmentation
from repro.pie_programs._blocks import changed_outer_block, mirror_changes
from repro.runtime.wire import ParamBlock

__all__ = ["BFSProgram", "BFSState"]

UNREACHED = -1  # hop count sentinel (kept integral, unlike SSSP's inf)

_FAR = UNREACHED_HOPS  # internal "not reached" bound, the kernel's sentinel


@dataclass
class BFSState:
    """Per-fragment state: hop counts (absent = unreached)."""

    hops: Dict[Node, int] = field(default_factory=dict)
    #: outer border nodes whose hop count changed since the last report
    dirty: Set[Node] = field(default_factory=set)
    #: dense-id mirror of ``hops`` for the CSR kernel
    _arr: Optional[np.ndarray] = None
    _arr_epoch: int = -1
    #: array plane: the hops last reported for the fragment's sorted
    #: ``F_i.O`` labels (``Fragment.outer_slots`` order)
    _sent: Optional[np.ndarray] = None


def _bfs_from(fragment: Fragment, hops: Dict[Node, int],
              frontier: Iterable[Node]) -> Set[Node]:
    """Queue-based BFS resuming from ``frontier`` (in place); returns
    the nodes whose hop count improved."""
    graph = fragment.graph
    changed: Set[Node] = set()
    dq = deque((v, hops[v]) for v in frontier if v in hops)
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


class BFSProgram(PIEProgram):
    """Query: the source node.  Answer: ``{v: hop count}`` (-1 if
    unreached)."""

    name = "BFS"
    aggregator = MinAggregator()
    supports_csr = True
    param_width = 8  # one int64 hop count
    route_to = "owner"

    def __init__(self, use_csr: bool = True):
        self.use_csr = use_csr

    @property
    def block_spec(self) -> Optional[BlockSpec]:
        return BlockSpec(np.int64, _FAR) if self.use_csr else None

    def init_state(self, query: Node, fragment: Fragment) -> BFSState:
        return BFSState()

    def peval(self, query: Node, fragment: Fragment,
              state: BFSState) -> None:
        before = {v: state.hops[v] for v in fragment.outer
                  if v in state.hops}
        if self.use_csr:
            self._peval_csr(query, fragment, state)
        else:
            if fragment.graph.has_node(query) \
                    and 0 < state.hops.get(query, _FAR):
                state.hops[query] = 0
            if state.hops:
                # Resume from everything known (covers both the first run
                # and NI-mode re-runs seeded by applied messages).
                _bfs_from(fragment, state.hops, list(state.hops))
            state._arr = None
        for v in fragment.outer:
            if state.hops.get(v, _FAR) != before.get(v, _FAR):
                state.dirty.add(v)

    def _peval_csr(self, query: Node, fragment: Fragment,
                   state: BFSState) -> None:
        csr = fragment.csr()
        id_of = csr.id_of
        seeds = {id_of[v]: h for v, h in state.hops.items()}
        if fragment.graph.has_node(query):
            sid = id_of[query]
            seeds[sid] = min(seeds.get(sid, _FAR), 0)
        arr, _changed = csr_bfs(csr, seeds)
        state._arr = arr
        state._arr_epoch = fragment.csr_epoch
        state.hops = {v: h for v, h in zip(csr.node_of, arr.tolist())
                      if h < _FAR}

    def inceval(self, query: Node, fragment: Fragment, state: BFSState,
                message: ParamUpdates) -> None:
        if self.use_csr and fragment.csr_cached:
            changed = self._inceval_csr(fragment, state, message)
        else:
            frontier = []
            for (v, _name), hop in message.items():
                if hop < state.hops.get(v, _FAR):
                    state.hops[v] = hop
                    frontier.append(v)
            changed = _bfs_from(fragment, state.hops, frontier)
            changed.update(frontier)
        for v in changed:
            if v in fragment.outer:
                state.dirty.add(v)

    @staticmethod
    def _ensure_arr(fragment: Fragment, state: BFSState, csr) -> np.ndarray:
        """Dense-id mirror of ``state.hops``, rebuilt when the snapshot
        epoch moved or a dict mutation cleared the cache."""
        arr = state._arr
        if arr is None or state._arr_epoch != fragment.csr_epoch:
            arr = np.fromiter((state.hops.get(v, _FAR) for v in csr.node_of),
                              dtype=np.int64, count=csr.n)
            state._arr = arr
            state._arr_epoch = fragment.csr_epoch
        return arr

    def _inceval_csr(self, fragment: Fragment, state: BFSState,
                     message: ParamUpdates) -> Set[Node]:
        csr = fragment.csr()
        arr = self._ensure_arr(fragment, state, csr)
        id_of = csr.id_of
        seeds: Dict[int, int] = {}
        for (node, _name), hop in message.items():
            vid = id_of[node]
            seeds[vid] = min(hop, seeds.get(vid, _FAR))
        _arr, changed_ids = csr_bfs(csr, seeds, arr)
        node_of = csr.node_of
        changed: Set[Node] = set()
        for vid, h in zip(changed_ids.tolist(), arr[changed_ids].tolist()):
            node = node_of[vid]
            state.hops[node] = h
            changed.add(node)
        return changed

    def inceval_block(self, query: Node, fragment: Fragment,
                      state: BFSState, block: ParamBlock) -> None:
        csr = fragment.csr()
        arr = self._ensure_arr(fragment, state, csr)
        _arr, changed_ids = csr_bfs(
            csr, (csr.ids_of(block.ids), block.vals), arr)
        mirror_changes(state.hops, csr, arr, changed_ids)

    def read_changed_block(self, query: Node, fragment: Fragment,
                           state: BFSState) -> Optional[ParamBlock]:
        arr = self._ensure_arr(fragment, state, fragment.csr())
        return changed_outer_block(fragment, state, arr, _FAR)

    def apply_message(self, query: Node, fragment: Fragment,
                      state: BFSState, message: ParamUpdates) -> None:
        for (v, _name), hop in message.items():
            if hop < state.hops.get(v, _FAR):
                state.hops[v] = hop
        state._arr = None

    def maintainable(self, delta) -> bool:
        """Every batch is maintainable: insertions fold through
        :meth:`on_graph_update`, reweights are invisible to hop counts,
        and deletions go through the bounded affected-region path."""
        return True

    def invalidates(self, delta) -> bool:
        """Hop counts ignore weights, so only deletions (and the mirror
        retirements they cause) can raise a converged value; a
        reweight-only batch stays on the monotone fold."""
        return delta.has_deletions

    def on_graph_update(self, query: Node, fragment: Fragment,
                        state: BFSState, delta) -> None:
        """Fold a monotone delta in: each inserted edge may open a
        shorter hop path from its tail's current level."""
        edges = (delta.as_insertions if hasattr(delta, "as_insertions")
                 else delta)
        hops = state.hops
        frontier = []
        for u, v, _w in edges:
            hu = 0 if u == query else hops.get(u, _FAR)
            if hu + 1 < hops.get(v, _FAR):
                hops[v] = hu + 1
                frontier.append(v)
        if frontier:
            state._arr = None
            changed = _bfs_from(fragment, hops, frontier)
            changed.update(frontier)
            for v in changed:
                if v in fragment.outer:
                    state.dirty.add(v)

    # ------------------------------------------------------------------
    # Bounded non-monotone maintenance (delete-aware IncEval)
    # ------------------------------------------------------------------
    def affected_seeds(self, query: Node, fragment: Fragment,
                       state: BFSState, delta) -> Set[Node]:
        """Direct hits: heads of deleted edges whose converged hop count
        was exactly supported by that edge, plus retired mirror copies.
        Both orientations are tested on undirected fragments."""
        hops = state.hops
        undirected = not fragment.graph.directed
        seeds: Set[Node] = set()

        def hit(u: Node, v: Node) -> bool:
            hu = hops.get(u, _FAR)
            return hu < _FAR and hops.get(v, _FAR) == hu + 1

        for u, v, _w in delta.deletions:
            if hit(u, v):
                seeds.add(v)
            if undirected and hit(v, u):
                seeds.add(u)
        seeds.update(delta.retired_nodes)
        return seeds

    def expand_affected(self, query: Node, fragment: Fragment,
                        state: BFSState, nodes: Set[Node]) -> Set[Node]:
        """Close the region along BFS-tree support chains
        (``hops[x] == hops[y] + 1``)."""
        hops = state.hops
        graph = fragment.graph
        local = {v for v in nodes if v in hops or graph.has_node(v)}
        if not local:
            return local
        if self.use_csr and fragment.csr_cached:
            return self._expand_affected_csr(fragment, state, local)
        affected = set(local)
        dq = deque(v for v in local
                   if graph.has_node(v) and hops.get(v, _FAR) < _FAR)
        while dq:
            y = dq.popleft()
            hy = hops[y]
            for x in graph.successors(y):
                if x not in affected and hops.get(x, _FAR) == hy + 1:
                    affected.add(x)
                    dq.append(x)
        return affected

    def _expand_affected_csr(self, fragment: Fragment, state: BFSState,
                             local: Set[Node]) -> Set[Node]:
        csr = fragment.csr()
        arr = self._ensure_arr(fragment, state, csr)
        id_of = csr.id_of
        seed_ids = [id_of[v] for v in local if v in id_of]
        out = set(local)
        if seed_ids:
            aff = csr_bfs_affected(csr, arr, seed_ids)
            node_of = csr.node_of
            out.update(node_of[i] for i in aff.tolist())
        return out

    def apply_nonmonotone(self, query: Node, fragment: Fragment,
                          state: BFSState, delta,
                          affected: Set[Node]) -> None:
        """Reset the affected vertices to unreached, re-seed them from
        unaffected in-neighbors on the mutated graph, fold the batch's
        insertions, and re-converge locally."""
        graph = fragment.graph
        hops = state.hops
        state._arr = None
        for v in affected:
            hops.pop(v, None)
        if delta is not None:
            for v in delta.retired_nodes:
                hops.pop(v, None)
        if self.use_csr and fragment.csr_cached:
            self._apply_nonmonotone_csr(query, fragment, state, delta,
                                        affected)
            return
        seeds: Dict[Node, int] = {}

        def offer(v: Node, h: int) -> None:
            if h < min(hops.get(v, _FAR), seeds.get(v, _FAR)):
                seeds[v] = h

        if graph.has_node(query) and query in affected:
            offer(query, 0)
        for x in affected:
            if not graph.has_node(x):
                continue
            for y in graph.predecessors(x):
                if y not in affected:
                    hy = hops.get(y, _FAR)
                    if hy < _FAR:
                        offer(x, hy + 1)
        if delta is not None:
            for u, v, _w in delta.as_insertions:
                hu = 0 if u == query else hops.get(u, _FAR)
                if hu < _FAR:
                    offer(v, hu + 1)
        frontier = []
        for v, h in seeds.items():
            hops[v] = h
            frontier.append(v)
        changed = _bfs_from(fragment, hops, frontier)
        changed.update(frontier)
        outer = fragment.outer
        for v in changed:
            if v in outer:
                state.dirty.add(v)

    def _apply_nonmonotone_csr(self, query: Node, fragment: Fragment,
                               state: BFSState, delta,
                               affected: Set[Node]) -> None:
        csr = fragment.csr()
        arr = self._ensure_arr(fragment, state, csr)
        id_of = csr.id_of
        aff_ids = [id_of[v] for v in affected if v in id_of]
        seeds = csr_bfs_reseed(csr, arr, aff_ids)
        if fragment.graph.has_node(query) and query in affected:
            sid = id_of[query]
            seeds[sid] = min(seeds.get(sid, _FAR), 0)
        hops = state.hops
        if delta is not None:
            for u, v, _w in delta.as_insertions:
                hu = 0 if u == query else hops.get(u, _FAR)
                vid = id_of.get(v)
                if vid is not None and hu + 1 < min(int(arr[vid]),
                                                    seeds.get(vid, _FAR)):
                    seeds[vid] = hu + 1
        _arr, changed_ids = csr_bfs(csr, seeds, arr)
        node_of = csr.node_of
        outer = fragment.outer
        for vid, h in zip(changed_ids.tolist(), arr[changed_ids].tolist()):
            node = node_of[vid]
            hops[node] = h
            if node in outer:
                state.dirty.add(node)

    def read_update_params(self, query: Node, fragment: Fragment,
                           state: BFSState) -> ParamUpdates:
        return {(v, "hop"): state.hops[v] for v in fragment.outer
                if v in state.hops}

    def report_entries(self, query: Node, fragment: Fragment,
                       state: BFSState, nodes: Set[Node]) -> ParamUpdates:
        """Per-node restriction of :meth:`read_update_params` — the
        session's incremental rebaseline probes exactly the vertices a
        non-monotone batch could have touched."""
        hops = state.hops
        outer = fragment.outer
        return {(v, "hop"): hops[v] for v in nodes
                if v in outer and v in hops}

    def read_changed_params(self, query: Node, fragment: Fragment,
                            state: BFSState) -> ParamUpdates:
        if not state.dirty:
            return {}
        dirty, state.dirty = state.dirty, set()
        return {(v, "hop"): state.hops[v] for v in dirty
                if v in state.hops}

    def assemble(self, query: Node, fragmentation: Fragmentation,
                 states: Dict[int, BFSState]) -> Dict[Node, int]:
        answer: Dict[Node, int] = {}
        for frag in fragmentation:
            hops = states[frag.fid].hops
            for v in frag.owned:
                answer[v] = hops.get(v, UNREACHED)
        return answer
