"""PIE program for single-source shortest paths (paper Figs. 3–4).

``PEval`` is Dijkstra's algorithm verbatim; ``IncEval`` is the bounded
incremental algorithm of Ramalingam & Reps; ``Assemble`` takes the union
of per-fragment distances.  The message preamble declares one integer
variable ``dist(s, v)`` per node with candidate set ``C_i = F_i.O`` and
``aggregateMsg = min``.

When ``use_csr`` is on (the default; see :mod:`repro.kernels`) both
sequential functions run as frontier Bellman–Ford relaxations over the
fragment's CSR snapshot instead — same fixpoint, bitwise-identical
distances, machine-speed inner loop.  The program also implements the
incremental coordinator protocol: the relaxations know exactly which
distances they lowered, so ``read_changed_params`` hands the engine the
dirty border entries without a full-dict diff.  On the array plane
(``block_spec``) the report is a gather of the distance array at the
fragment's ``F_i.O`` slots compared with what was last sent, and an
incoming message seeds the relaxation as two arrays — no per-entry
Python on either side.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import inf
from typing import Dict, Optional, Set

import numpy as np

from repro.core.aggregators import MinAggregator
from repro.core.pie import BlockSpec, ParamUpdates, PIEProgram
from repro.graph.graph import Node
from repro.kernels import csr_sssp, csr_sssp_affected, csr_sssp_reseed
from repro.partition.base import Fragment, Fragmentation
from repro.pie_programs._blocks import changed_outer_block, mirror_changes
from repro.runtime.wire import ParamBlock
from repro.sequential.inc_sssp import incremental_sssp_decrease
from repro.sequential.sssp import dijkstra

__all__ = ["SSSPProgram", "SSSPState"]


@dataclass
class SSSPState:
    """Per-fragment state: the declared ``dist(s, v)`` variables."""

    dist: Dict[Node, float] = field(default_factory=dict)
    #: outer border nodes whose distance changed since the last report
    dirty: Set[Node] = field(default_factory=set)
    #: dense-id mirror of ``dist`` for the CSR kernels, rebuilt when the
    #: fragment's snapshot epoch moves or the dict was mutated directly
    _arr: Optional[np.ndarray] = None
    _arr_epoch: int = -1
    #: array plane: the values last reported for the fragment's sorted
    #: ``F_i.O`` labels (``Fragment.outer_slots`` order)
    _sent: Optional[np.ndarray] = None


class SSSPProgram(PIEProgram):
    """Query: the source node ``s``.  Answer: ``{v: dist(s, v)}``."""

    name = "SSSP"
    aggregator = MinAggregator()
    supports_csr = True
    param_width = 8  # one float64 distance
    # F_i.O copies carry no local out-edges, so updates only need to reach
    # the owning fragment (the paper routes dist to F_j.I owners).
    route_to = "owner"

    def __init__(self, use_csr: bool = True):
        self.use_csr = use_csr

    @property
    def block_spec(self) -> Optional[BlockSpec]:
        return BlockSpec(np.float64, inf) if self.use_csr else None

    def init_state(self, query: Node, fragment: Fragment) -> SSSPState:
        # dist(s, v) initialized to inf for every node (represented by
        # absence), except dist(s, s) = 0 — set lazily by Dijkstra.
        return SSSPState()

    def peval(self, query: Node, fragment: Fragment,
              state: SSSPState) -> None:
        before = {v: state.dist[v] for v in fragment.outer
                  if v in state.dist}
        if self.use_csr:
            self._peval_csr(query, fragment, state)
        else:
            state.dist = dijkstra(fragment.graph, query, initial=state.dist)
            state._arr = None
        for v in fragment.outer:
            if state.dist.get(v, inf) != before.get(v, inf):
                state.dirty.add(v)

    def _peval_csr(self, query: Node, fragment: Fragment,
                   state: SSSPState) -> None:
        csr = fragment.csr()
        id_of = csr.id_of
        # id_of.get: estimates recorded for locally-unknown nodes (see
        # _inceval_csr) are ignored here, as dijkstra's initial filter
        # ignores them — and dropped when dist is rebuilt below.
        seeds: Dict[int, float] = {}
        for v, d in state.dist.items():
            if d < inf:
                vid = id_of.get(v)
                if vid is not None:
                    seeds[vid] = d
        if fragment.graph.has_node(query):
            sid = id_of[query]
            seeds[sid] = min(seeds.get(sid, inf), 0.0)
        arr, _changed = csr_sssp(csr, seeds)
        state._arr = arr
        state._arr_epoch = fragment.csr_epoch
        state.dist = dict(zip(csr.node_of, arr.tolist()))

    def inceval(self, query: Node, fragment: Fragment, state: SSSPState,
                message: ParamUpdates) -> None:
        updates = {node: value for (node, _name), value in message.items()}
        if self.use_csr and fragment.csr_cached:
            changed = self._inceval_csr(fragment, state, updates)
        else:
            changed = incremental_sssp_decrease(fragment.graph, state.dist,
                                                updates)
        for v in changed:
            if v in fragment.outer:
                state.dirty.add(v)

    @staticmethod
    def _ensure_arr(fragment: Fragment, state: SSSPState,
                    csr) -> np.ndarray:
        """Dense-id mirror of ``state.dist``, rebuilt when the snapshot
        epoch moved or a dict mutation cleared the cache
        (``state._arr = None`` — every path that touches ``dist``
        without going through the kernels must clear it)."""
        arr = state._arr
        if arr is None or state._arr_epoch != fragment.csr_epoch:
            arr = np.fromiter((state.dist.get(v, inf) for v in csr.node_of),
                              dtype=np.float64, count=csr.n)
            state._arr = arr
            state._arr_epoch = fragment.csr_epoch
        return arr

    def _inceval_csr(self, fragment: Fragment, state: SSSPState,
                     updates: Dict[Node, float]) -> Set[Node]:
        csr = fragment.csr()
        arr = self._ensure_arr(fragment, state, csr)
        id_of = csr.id_of
        changed: Set[Node] = set()
        seeds: Dict[int, float] = {}
        for node, value in updates.items():
            vid = id_of.get(node)
            if vid is None:
                # Node unknown to the local graph: record the estimate
                # without propagation, as the dict path does.
                if value < state.dist.get(node, inf):
                    state.dist[node] = value
                    changed.add(node)
            else:
                seeds[vid] = min(value, seeds.get(vid, inf))
        _arr, changed_ids = csr_sssp(csr, seeds, arr)
        node_of = csr.node_of
        for vid, d in zip(changed_ids.tolist(), arr[changed_ids].tolist()):
            node = node_of[vid]
            state.dist[node] = d
            changed.add(node)
        return changed

    def inceval_block(self, query: Node, fragment: Fragment,
                      state: SSSPState, block: ParamBlock) -> None:
        csr = fragment.csr()
        arr = self._ensure_arr(fragment, state, csr)
        _arr, changed_ids = csr_sssp(
            csr, (csr.ids_of(block.ids), block.vals), arr)
        mirror_changes(state.dist, csr, arr, changed_ids)

    def read_changed_block(self, query: Node, fragment: Fragment,
                           state: SSSPState) -> Optional[ParamBlock]:
        arr = self._ensure_arr(fragment, state, fragment.csr())
        return changed_outer_block(fragment, state, arr, inf)

    def apply_message(self, query: Node, fragment: Fragment,
                      state: SSSPState, message: ParamUpdates) -> None:
        # NI mode: take improved values, no propagation (PEval follows).
        for (node, _name), value in message.items():
            if value < state.dist.get(node, inf):
                state.dist[node] = value
        state._arr = None

    def maintainable(self, delta) -> bool:
        """Every batch is maintainable: the monotone part folds through
        :meth:`on_graph_update`, deletions and weight increases go
        through the bounded affected-region path
        (:meth:`apply_nonmonotone`)."""
        return True

    def on_graph_update(self, query: Node, fragment: Fragment,
                        state: SSSPState, delta) -> None:
        """Fold a monotone delta in: each inserted or cheapened edge
        may open a shortcut from its source's current distance
        (continuous-query maintenance).  Deletions and weight increases
        never reach this hook — the session's ``invalidates`` dispatch
        routes them through the bounded affected-region path below."""
        edges = (delta.as_insertions if hasattr(delta, "as_insertions")
                 else delta)
        updates: Dict[Node, float] = {}
        for u, v, w in edges:
            du = 0.0 if u == query else state.dist.get(u, inf)
            alt = du + w
            if alt < min(state.dist.get(v, inf), updates.get(v, inf)):
                updates[v] = alt
        if updates:
            # The fragment graph was just mutated, so any cached CSR
            # arrays are stale; the dict algorithm is authoritative here.
            state._arr = None
            changed = incremental_sssp_decrease(fragment.graph, state.dist,
                                                updates)
            for v in changed:
                if v in fragment.outer:
                    state.dirty.add(v)

    # ------------------------------------------------------------------
    # Bounded non-monotone maintenance (delete-aware IncEval)
    # ------------------------------------------------------------------
    def affected_seeds(self, query: Node, fragment: Fragment,
                       state: SSSPState, delta) -> Set[Node]:
        """Direct hits: heads of deleted or reweighted edges whose
        converged distance was exactly supported by that edge — tested
        with the *old* weight, on the values the edge helped converge —
        plus retired mirror copies holding stale estimates.  *Every*
        reweight seeds, not just increases: a decreased edge in the same
        non-monotone batch makes the old support equality unrecognizable
        to the closure (the stored weight moved), so its head could
        otherwise keep a stale value whose upstream support was raised.
        Conservative resets are safe — the re-seeding re-derives the
        value.  For undirected fragments both orientations are tested (a
        local deletion removes both stored directions but records one
        triple)."""
        dist = state.dist
        undirected = not fragment.graph.directed
        seeds: Set[Node] = set()

        def hit(u: Node, v: Node, w: float) -> bool:
            du = dist.get(u, inf)
            return du < inf and dist.get(v, inf) == du + w

        for u, v, w in delta.deletions:
            if hit(u, v, w):
                seeds.add(v)
            if undirected and hit(v, u, w):
                seeds.add(u)
        for u, v, old, _new in delta.weight_changes:
            if hit(u, v, old):
                seeds.add(v)
            if undirected and hit(v, u, old):
                seeds.add(u)
        seeds.update(delta.retired_nodes)
        return seeds

    def expand_affected(self, query: Node, fragment: Fragment,
                        state: SSSPState, nodes: Set[Node]) -> Set[Node]:
        """Close the region along still-standing support chains: a
        vertex whose current distance equals an affected in-neighbor's
        distance plus the (current) edge weight may have lost its
        support too.  Mutated edges need no closure step of their own —
        their heads are direct hits of :meth:`affected_seeds`.  Vertices
        with no finite distance are never expanded through (``inf`` is
        not a support)."""
        dist = state.dist
        graph = fragment.graph
        local = {v for v in nodes if v in dist or graph.has_node(v)}
        if not local:
            return local
        if self.use_csr and fragment.csr_cached:
            return self._expand_affected_csr(fragment, state, local)
        affected = set(local)
        dq = deque(v for v in local
                   if graph.has_node(v) and dist.get(v, inf) < inf)
        while dq:
            y = dq.popleft()
            dy = dist[y]
            for x, w in graph.successors_with_weights(y):
                if x not in affected and dist.get(x, inf) == dy + w:
                    affected.add(x)
                    dq.append(x)
        return affected

    def _expand_affected_csr(self, fragment: Fragment, state: SSSPState,
                             local: Set[Node]) -> Set[Node]:
        csr = fragment.csr()
        arr = self._ensure_arr(fragment, state, csr)
        id_of = csr.id_of
        seed_ids = [id_of[v] for v in local if v in id_of]
        out = set(local)
        if seed_ids:
            aff = csr_sssp_affected(csr, arr, seed_ids)
            node_of = csr.node_of
            out.update(node_of[i] for i in aff.tolist())
        return out

    def apply_nonmonotone(self, query: Node, fragment: Fragment,
                          state: SSSPState, delta,
                          affected: Set[Node]) -> None:
        """Reset the affected vertices to neutral (``inf``), re-seed
        them from *unaffected* in-neighbors on the mutated graph, fold
        the batch's monotone part, and re-converge locally.  Every seed
        is a real path length, so the monotone relaxation from here
        reaches the exact (bitwise) Bellman fixpoint."""
        graph = fragment.graph
        dist = state.dist
        # The graph was (possibly) mutated and the pops below bypass the
        # kernels, so any cached dense mirror is stale either way.
        state._arr = None
        for v in affected:
            dist.pop(v, None)
        if delta is not None:
            for v in delta.retired_nodes:
                dist.pop(v, None)
        if self.use_csr and fragment.csr_cached:
            self._apply_nonmonotone_csr(query, fragment, state, delta,
                                        affected)
            return
        seeds: Dict[Node, float] = {}

        def offer(v: Node, d: float) -> None:
            if d < min(dist.get(v, inf), seeds.get(v, inf)):
                seeds[v] = d

        if graph.has_node(query) and query in affected:
            offer(query, 0.0)
        for x in affected:
            if not graph.has_node(x):
                continue
            for y, w in graph.predecessors_with_weights(x):
                if y not in affected:
                    dy = dist.get(y, inf)
                    if dy < inf:
                        offer(x, dy + w)
        if delta is not None:
            for u, v, w in delta.as_insertions:
                du = 0.0 if u == query else dist.get(u, inf)
                offer(v, du + w)
        changed = incremental_sssp_decrease(graph, dist, seeds)
        outer = fragment.outer
        for v in changed:
            if v in outer:
                state.dirty.add(v)

    def _apply_nonmonotone_csr(self, query: Node, fragment: Fragment,
                               state: SSSPState, delta,
                               affected: Set[Node]) -> None:
        csr = fragment.csr()
        arr = self._ensure_arr(fragment, state, csr)
        id_of = csr.id_of
        aff_ids = [id_of[v] for v in affected if v in id_of]
        seeds = csr_sssp_reseed(csr, arr, aff_ids)
        if fragment.graph.has_node(query) and query in affected:
            sid = id_of[query]
            seeds[sid] = min(seeds.get(sid, inf), 0.0)
        dist = state.dist
        if delta is not None:
            for u, v, w in delta.as_insertions:
                du = 0.0 if u == query else dist.get(u, inf)
                alt = du + w
                vid = id_of.get(v)
                if vid is not None and alt < min(float(arr[vid]),
                                                 seeds.get(vid, inf)):
                    seeds[vid] = alt
        _arr, changed_ids = csr_sssp(csr, seeds, arr)
        node_of = csr.node_of
        outer = fragment.outer
        for vid, d in zip(changed_ids.tolist(), arr[changed_ids].tolist()):
            node = node_of[vid]
            dist[node] = d
            if node in outer:
                state.dirty.add(node)

    def read_update_params(self, query: Node, fragment: Fragment,
                           state: SSSPState) -> ParamUpdates:
        # C_i = F_i.O; infinite estimates carry no information and are
        # never shipped.
        return {(v, "dist"): state.dist[v] for v in fragment.outer
                if state.dist.get(v, inf) < inf}

    def report_entries(self, query: Node, fragment: Fragment,
                       state: SSSPState, nodes: Set[Node]) -> ParamUpdates:
        """Per-node restriction of :meth:`read_update_params` — the
        session's incremental rebaseline probes exactly the vertices a
        non-monotone batch could have touched."""
        dist = state.dist
        outer = fragment.outer
        return {(v, "dist"): dist[v] for v in nodes
                if v in outer and dist.get(v, inf) < inf}

    def read_changed_params(self, query: Node, fragment: Fragment,
                            state: SSSPState) -> ParamUpdates:
        if not state.dirty:
            return {}
        dirty, state.dirty = state.dirty, set()
        return {(v, "dist"): state.dist[v] for v in dirty
                if state.dist.get(v, inf) < inf}

    def assemble(self, query: Node, fragmentation: Fragmentation,
                 states: Dict[int, SSSPState]) -> Dict[Node, float]:
        answer: Dict[Node, float] = {}
        for frag in fragmentation:
            st = states[frag.fid]
            for v in frag.owned:
                answer[v] = st.dist.get(v, inf)
        return answer
