"""Continuous queries under general graph updates (paper Section 6's
"lightweight transaction controller ... to support not only queries but
also updates").

The paper defines incremental evaluation over update batches
``ΔG = (ΔG⁺, ΔG⁻)`` — insertions *and* deletions.  This module is the
mutation path for partitioned graphs, built around the first-class
:class:`~repro.graph.delta.GraphDelta` value:

* :func:`apply_delta` applies a normalized batch to a fragmentation in
  place — fragments, border sets, outer-copy refcounts and the ``G_P``
  holder index all maintained, mirror nodes retired when their last
  local edge is deleted — and returns per-fragment
  :class:`~repro.graph.delta.FragmentDelta` records (which double as the
  process backend's shippable replay units);
* :class:`ContinuousQuerySession` holds a standing query and keeps its
  answer correct under *any* batch.  A program with the
  :class:`~repro.core.pie.Maintenance` hooks maintains every batch on
  one path, the **bounded affected-region path**: the program names
  the vertices whose converged value hung off a mutated edge, the
  session closes that region across fragments, resets only those
  vertices to neutral, re-seeds from the surviving boundary, folds the
  batch's monotone part and re-converges — cost ``O(|AFF|)``, not
  ``O(|G|)``.  A monotone batch (insertions, weight decreases) is the
  case whose region is empty.  Any other program re-runs the query from
  reset state on the same (already mutated) fragmentation, inside the
  same session.  This is the paper's IncEval contract under updates, in
  the spirit of Berkholz, Keppeler & Schweikardt's dynamic query
  answering under updates.
"""

from __future__ import annotations

import threading
import time
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, Optional, Set, Tuple, Union

from repro.core.coordinator import DictCoordinator
from repro.core.engine import GrapeEngine
from repro.core.fixpoint import Fixpoint
from repro.core.pie import Maintenance, ParamUpdates, PIEProgram
from repro.graph.delta import FragmentDelta, GraphDelta, NormalizedDelta
from repro.graph.graph import Graph, Node
from repro.partition.base import Fragmentation
from repro.runtime.executors import read_report
from repro.runtime.message import stable_hash

__all__ = ["ContinuousQuerySession", "apply_delta", "apply_insertions"]

EdgeInsertion = Tuple[Node, Node, float]

_MISSING = object()
#: ``ContinuousQuerySession._answer`` between a batch and the next read
_STALE = object()
#: the ``name`` half of a ``(node, name)`` parameter key
_NAME_OF = itemgetter(1)


# ---------------------------------------------------------------------------
# Applying deltas to a fragmentation
# ---------------------------------------------------------------------------
def apply_delta(fragmentation: Fragmentation,
                delta: Union[GraphDelta, NormalizedDelta],
                *, wal=None) -> Dict[int, FragmentDelta]:
    """Apply an update batch to an edge-cut fragmentation in place.

    The batch is normalized against the base graph first (dedup,
    no-op elimination, classification), so **an empty or duplicate-only
    batch is a true no-op**: no fragment graph is touched, no epoch
    moves and the fragmentation's cache token stays put.

    For every surviving change the base graph and the owning fragments
    are mutated together:

    * insertions land at the owner of ``u`` (plus the symmetric
      orientation at ``v``'s owner for undirected graphs); new nodes are
      placed by stable hash; mirror copies join ``F_i.O`` / ``F_j.I``
      and the ``G_P`` holder index exactly as at partition time;
    * weight changes rewrite the stored weight wherever the edge lives;
    * deletions remove the stored orientation(s); a mirror copy whose
      last local edge disappears is retired — dropped from the local
      graph, its ``F_i.O`` entry and its ``G_P`` holders — and an owned
      node that no longer has any cross edge leaves ``F_j.I``.

    Returns ``{fid: FragmentDelta}`` for the touched fragments; the same
    records go into the fragmentation's delta log
    (:meth:`~repro.partition.base.Fragmentation.record_delta`) for
    pooled process workers to replay.

    ``wal`` is the durability hook, called as ``wal(normalized,
    version)`` after the batch was applied and sequenced, with the
    fragmentation version it produced — what
    :meth:`~repro.store.catalog.GraphStore.append_delta` expects, the
    sequence number the worker-replay chain uses.  No-op batches never
    reach it.
    """
    graph = fragmentation.graph
    norm = delta.normalize(graph) if isinstance(delta, GraphDelta) else delta
    if not norm:
        return {}
    gp = fragmentation.gp
    m = fragmentation.num_fragments
    touched: Dict[int, FragmentDelta] = {}

    def fd(fid: int) -> FragmentDelta:
        if fid not in touched:  # ids are taken before the graph moves
            fragmentation[fid].id_table()
        return touched.setdefault(fid, FragmentDelta(fid=fid))

    def ensure_node(x: Node) -> int:
        if x in gp:
            return gp.owner(x)
        # stable_hash keeps new-node placement reproducible across runs
        # (builtin hash of strings varies with PYTHONHASHSEED).
        fid = stable_hash(x) % m
        delta_f = fd(fid)
        graph.add_node(x)
        frag = fragmentation[fid]
        frag.graph.add_node(x)
        frag.owned.add(x)
        gp._owner[x] = fid
        gp._holders[x] = frozenset((fid,))
        delta_f.new_nodes.append((x, None))
        delta_f.owned_added.append(x)
        return fid

    def add_holder(x: Node, fid: int) -> None:
        gp._holders[x] = gp.holders(x) | {fid}

    def store_insert(u: Node, v: Node, w: float) -> None:
        """Store edge ``(u, v)`` at ``u``'s owner (local orientation)."""
        fu, fv = gp.owner(u), gp.owner(v)
        frag = fragmentation[fu]
        delta_f = fd(fu)
        if not frag.graph.has_node(v):
            delta_f.new_nodes.append((v, graph.node_label(v)))
        frag.graph.add_node(v, graph.node_label(v))
        frag.graph.add_edge(u, v, weight=w)
        add_holder(v, fu)
        add_holder(u, fu)
        if fu != fv:
            if v not in frag.outer:
                frag.outer.add(v)
                delta_f.outer_added.append(v)
            owner_frag = fragmentation[fv]
            if v not in owner_frag.inner:
                owner_frag.inner.add(v)
                fd(fv).inner_added.append(v)
        delta_f.insertions.append((u, v, w))

    def reweight(u: Node, v: Node, old: float, new: float) -> None:
        fu, fv = gp.owner(u), gp.owner(v)
        frag = fragmentation[fu]
        frag.graph.set_edge_weight(u, v, new)
        fd(fu).weight_changes.append((u, v, old, new))
        if not graph.directed:
            if fu != fv:
                # the symmetric orientation is stored at v's owner
                fragmentation[fv].graph.set_edge_weight(v, u, new)
            # Both orientations are recorded even when fu == fv (the
            # local undirected set_edge_weight already covered both):
            # programs folding a decrease must also try the v -> u
            # relaxation, exactly as store_insert records insertions.
            fd(fv).weight_changes.append((v, u, old, new))

    def maybe_retire(fid: int, x: Node) -> None:
        """Drop the mirror copy of ``x`` at ``fid`` if it lost its last
        local edge (outer-copy refcount reaching zero)."""
        frag = fragmentation[fid]
        if x in frag.owned or not frag.graph.has_node(x):
            return
        if frag.graph.degree(x):
            return
        delta_f = fd(fid)
        frag.graph.remove_node(x)
        delta_f.retired_nodes.append(x)
        if x in frag.outer:
            frag.outer.remove(x)
            delta_f.outer_removed.append(x)
        gp._holders[x] = gp.holders(x) - {fid}

    def delete_orientation(u: Node, v: Node) -> None:
        """Remove stored orientation ``(u, v)`` from ``u``'s owner."""
        fu = gp.owner(u)
        frag = fragmentation[fu]
        if frag.graph.has_edge(u, v):
            # The old weight rides along so programs can test whether a
            # converged value hung off the vanished edge (bounded
            # non-monotone maintenance).
            w_old = frag.graph.edge_weight(u, v)
            frag.graph.remove_edge(u, v)
            fd(fu).deletions.append((u, v, w_old))
        maybe_retire(fu, v)

    def fix_inner(x: Node) -> None:
        """An owned node with no remaining copy elsewhere leaves
        ``F_j.I`` (no cross edge can reach it any more)."""
        fx = gp.owner(x)
        frag = fragmentation[fx]
        if x in frag.inner and len(gp.holders(x)) == 1:
            frag.inner.remove(x)
            fd(fx).inner_removed.append(x)

    # Application order (mirrored verbatim by FragmentDelta.replay):
    # insertions, then reweights, then deletions — so a mirror that both
    # loses and gains edges in one batch is retired only if it truly
    # ends the batch isolated.
    for (u, v), w in norm.insertions.items():
        ensure_node(u)
        ensure_node(v)
        graph.add_edge(u, v, weight=w)
        store_insert(u, v, w)
        if not graph.directed:
            store_insert(v, u, w)

    for (u, v), (old, new) in {**norm.decreases, **norm.increases}.items():
        graph.set_edge_weight(u, v, new)
        reweight(u, v, old, new)

    for (u, v) in norm.deletions:
        graph.remove_edge(u, v)
        delete_orientation(u, v)
        if not graph.directed:
            delete_orientation(v, u)
        fix_inner(u)
        fix_inner(v)

    # Every touched fragment takes the batch's joins and retirements
    # into its id table; a mutated one retires its snapshot with the
    # rows the batch dirtied (the next read splices), an edited border
    # set moves the border epoch, whether or not the local graph changed.
    for fid, delta_f in touched.items():
        fragmentation[fid].absorb(delta_f)
    if touched:
        # Stamp sequence numbers and invalidate worker-side fragment
        # caches (process backend): the next lease replays these deltas,
        # or re-ships in full if the log no longer covers the gap.
        fragmentation.record_delta(touched)
        if wal is not None:
            wal(norm, fragmentation.version)
    return touched


def apply_insertions(fragmentation: Fragmentation,
                     edges: Iterable[EdgeInsertion],
                     ) -> Dict[int, FragmentDelta]:
    """Apply a batch of edge insertions (thin :func:`apply_delta` sugar).

    Kept as the established name for the insert-only path; re-inserting
    an existing edge with a lower weight is a decrease, with a higher
    weight an increase — both plain reweights to a session.
    """
    return apply_delta(fragmentation, GraphDelta.from_insertions(edges))


# ---------------------------------------------------------------------------
# Standing queries
# ---------------------------------------------------------------------------
class _MaintenanceRounds(Fixpoint):
    """A standing query's rounds: the in-process step, noting the
    ``name`` half of every ``(node, name)`` key the session reads — a
    fixed handful per program — so the bounded path can probe a vertex's
    reported claims by constructed key."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.names: Set[Any] = set()

    def note_names(self, reports) -> None:
        for _kind, params in reports.values():
            self.names.update(map(_NAME_OF, params))

    def step(self, *round_):
        result = super().step(*round_)
        self.note_names(result[1])
        return result


class ContinuousQuerySession:
    """A standing query whose answer is maintained under any update.

    Pass either ``graph`` (the session partitions it itself) or a prebuilt
    ``fragmentation`` — the latter lets an owner such as
    :class:`~repro.service.GrapeService` share one fragmentation between
    many sessions and one-shot queries, applying each update batch to
    the shared fragmentation once and fanning the per-fragment deltas
    out to every session via :meth:`apply_update`.

    **One maintenance path.**  A :class:`~repro.core.pie.Maintenance`
    program maintains every batch through :meth:`_maintain_bounded`
    (affected region reset, batch folded, message fixpoint resumed from
    the converged state); a monotone batch is the case whose region is
    empty.  Any other program recomputes: the query re-runs from reset
    state on the mutated fragmentation through the engine (honoring its
    execution backend — under the process backend the re-run ships
    compact per-fragment deltas to the pooled workers, not whole
    fragments).  The session's :attr:`metrics` accumulate either way,
    with ``incremental_maintained`` / ``fallback_reruns`` recording the
    split.

    The *initial* evaluation honors the engine's execution backend (the
    run's states are pulled back from the backend afterwards); the
    incremental maintenance rounds themselves always execute
    coordinator-side — the point of IncEval under updates is that the
    affected area is small, so shipping it to a worker pool would cost
    more than computing it.  A batch's first superstep is the session's
    (the program's hooks, then the entries the batch could have moved);
    what that composes goes to the engine's own round and loop — one
    :class:`~repro.core.fixpoint.Fixpoint` per session, in-process step,
    over the session's states and its own
    :class:`~repro.core.coordinator.DictCoordinator` (the generic plane:
    per-key tables are what the bounded rebaseline edits, whatever plane
    the engine's full runs take).  They are no ``exec.step`` fault site.

    **Assemble is deferred.**  A batch maintains the per-fragment states
    and stops; :attr:`answer` assembles ``Q(G)`` on the first read after
    a batch and keeps it until the next one (maintain eagerly, enumerate
    when somebody asks).  :meth:`update` and its sugar, whose contract
    is to return the answer, read it.
    """

    def __init__(self, engine: GrapeEngine, program: PIEProgram, query: Any,
                 graph: Optional[Graph] = None, *,
                 fragmentation: Optional[Fragmentation] = None):
        self._maintains = isinstance(program, Maintenance)
        if not self._maintains and hasattr(program, "apply_nonmonotone"):
            raise TypeError(
                f"{type(program).__name__} implements apply_nonmonotone "
                "outside the Maintenance hooks (core.pie.Maintenance: "
                "report_entries and the rest of the bounded path come "
                "with it)")
        if (graph is None) == (fragmentation is None):
            raise ValueError("pass exactly one of graph or fragmentation")
        self.engine = engine
        self.program = program
        self.query = query
        self.fragmentation = (fragmentation if fragmentation is not None
                              else engine.make_fragmentation(graph))
        result = engine.run(program, query,
                            fragmentation=self.fragmentation)
        self._answer_lock = threading.Lock()
        self.metrics = result.metrics
        # Built once per session; every _adopt gives it a coordinator.
        self._loop = _MaintenanceRounds(
            program, query, self.fragmentation, None, self.metrics,
            num_workers=engine.num_workers,
            max_supersteps=engine.max_supersteps)
        self._adopt(result)

    @property
    def answer(self) -> Any:
        """``Q(G)`` as of the last applied batch: assembled on the first
        read after a batch and kept until the next one — the same object
        between batches, a new one after; an answer a caller still holds
        is never mutated.  (Under a :class:`~repro.service.GrapeService`
        read it through the watch handle, which keeps writers out.)"""
        with self._answer_lock:
            if self._answer is _STALE:
                start = time.perf_counter()
                self._answer = self.program.assemble(
                    self.query, self.fragmentation, self.states)
                elapsed = time.perf_counter() - start
                self.metrics.assemble_s += elapsed
                self.metrics.standing_assemble_s += elapsed
                self.metrics.standing_answers_assembled += 1
            return self._answer

    def _count_views(self) -> None:
        """Fold the dict views maintenance made the states build into
        ``metrics.dict_views_materialised``."""
        views = sum(getattr(state, "views_materialised", 0)
                    for state in self.states.values())
        self.metrics.dict_views_materialised += views - self._views_counted
        self._views_counted = views

    def _adopt(self, result) -> None:
        """Take over a full run's converged states and answer, and fold
        fresh coordinator tables from full reports (a read that also
        consumes the programs' changed-since-last-report tracking:
        maintenance reports start from here).  Programs that are only
        ever recomputed have no use for tables."""
        self.states = self._loop.states = result.states
        self._answer = result.answer
        self._views_counted = result.metrics.dict_views_materialised
        if not self._maintains:
            return
        program, query = self.program, self.query
        coord = self._loop.coordinator = DictCoordinator(
            program, self.fragmentation, self.engine.check_monotonic)
        reports = {frag.fid: read_report(program, query, frag,
                                         self.states[frag.fid], True)
                   for frag in self.fragmentation}
        self._loop.note_names(reports)
        coord.fold(reports, first_round=True)
        coord.drain_timers(self.metrics)
        self._count_views()

    def _batch_entries(self, frag, delta: Optional[FragmentDelta],
                       affected: Iterable[Node] = ()
                       ) -> Tuple[ParamUpdates, Set[Node]]:
        """The entries of one fragment's report an applied batch could
        have moved, at ``O(|batch| + |AFF|)``: the program's own dirty
        values (``read_changed_params``) plus a ``report_entries`` probe
        of the vertices with structural exposure — ``affected`` ones,
        and what ``delta`` retired, added, moved between border sets
        (``apply_delta`` records those for every fragment whose border
        sets a batch changed, also one that received no edge) or made an
        endpoint of an inserted or deleted edge.  Returns the entries and
        the probed vertices; a probed vertex without an entry has none
        any more."""
        program, query = self.program, self.query
        state = self.states[frag.fid]
        fresh = dict(program.read_changed_params(query, frag, state) or {})
        probe = set(affected)
        if delta is not None:
            probe.update(delta.border_nodes())
            for u, v, _w in chain(delta.insertions, delta.deletions):
                probe.add(u)
                probe.add(v)
        if probe:
            fresh.update(program.report_entries(query, frag, state, probe))
        self._loop.names.update(map(_NAME_OF, fresh))
        return fresh, probe

    # ------------------------------------------------------------------
    def update(self, delta: GraphDelta) -> Any:
        """Apply an update batch and refresh the answer.

        Returns the updated answer; ``self.metrics`` accumulates the
        maintenance cost (supersteps, bytes) on top of the initial run.

        With a shared (owner-managed) fragmentation, the owner applies
        the batch itself via :func:`apply_delta` and calls
        :meth:`apply_update` on each session instead, so fragments are
        mutated exactly once.
        """
        self.apply_update(apply_delta(self.fragmentation, delta))
        return self.answer

    def insert_edges(self, edges: Iterable[EdgeInsertion]) -> Any:
        """Apply an insertion batch (:meth:`update` sugar)."""
        return self.update(GraphDelta.from_insertions(edges))

    def delete_edges(self, pairs: Iterable[Tuple[Node, Node]]) -> Any:
        """Apply a deletion batch (:meth:`update` sugar)."""
        return self.update(GraphDelta.from_deletions(pairs))

    def set_weights(self, triples: Iterable[EdgeInsertion]) -> Any:
        """Apply a reweight batch (:meth:`update` sugar)."""
        return self.update(GraphDelta.from_weight_changes(triples))

    def apply_update(self, touched: Dict[int, Any]) -> None:
        """Refresh the standing query after fragments were updated.

        ``touched`` maps fragment id to its
        :class:`~repro.graph.delta.FragmentDelta` (the return value of
        :func:`apply_delta`).  A :class:`~repro.core.pie.Maintenance`
        program maintains the batch (:meth:`_maintain_bounded`), any
        other program recomputes.  Nothing is assembled here: the next
        read of :attr:`answer` does that.
        """
        if not touched:
            return
        self.metrics.deltas_applied += 1
        if self._maintains:
            self.metrics.incremental_maintained += 1
            self._answer = _STALE
            return self._maintain_bounded(touched)
        self.metrics.fallback_reruns += 1
        self._recompute()

    # ------------------------------------------------------------------
    def _maintain_bounded(self,
                          touched: Dict[int, FragmentDelta]) -> None:
        """Bounded maintenance of any batch: reset *only* the affected
        region, re-seed from its surviving boundary, fold the batch,
        re-converge.

        The paper's IncEval contract is that maintenance costs
        ``O(|AFF|)``, not ``O(|G|)`` — also for deletions and weight
        increases (Ramalingam & Reps; Berkholz et al.'s answering under
        updates).  The steps:

        1. every mutated fragment names its *direct hits*: vertices
           whose converged value was supported by a deleted or raised
           edge (``program.affected_seeds_global``).  A monotone batch
           (insertions and weight decreases only) raises no converged
           value: it seeds nothing, and every step below runs on an
           empty region;
        2. the region is closed in two levels.  Condemnation is
           *fragment-local* by default: each fragment grows the region
           along its own still-standing support chains
           (``program.expand_affected``) over values that are only
           local relaxation candidates — with owner-routed aggregation
           a mirror copy keeps whatever its fragment derived locally,
           which may be far above the aggregated winner, so a broken
           local chain usually invalidates nothing but a losing
           candidate.  A locally-condemned vertex is *promoted* to
           global condemnation — reset at every holder — only when the
           condemning fragment's last reported claim for it equals the
           aggregated table value, i.e. the fragment may have supplied
           the globally winning value and the winner itself hangs off
           the broken support.  Cross-fragment influence flows solely
           through those reported border claims, so the promotion test
           traces exactly the true support chains; ties over-promote
           conservatively and the re-convergence self-heals;
        3. each fragment resets its affected vertices to neutral,
           re-seeds them from *unaffected* in-neighbors on the mutated
           graph, folds the batch's monotone part, and re-converges
           locally (``program.apply_nonmonotone``);
        4. the coordinator tables are re-baselined *for the touched
           keys only*: each fragment hands over its dirty values
           (``read_changed_params``) plus a probe of the vertices the
           batch could have touched — affected, retired, or moved
           between border sets (``report_entries``) — and only those
           keys are re-aggregated.  This doubles as the **retraction
           protocol**: a probed vertex whose value went back to neutral
           is missing from the probe read, so the stale entry it
           shipped earlier is dropped from the table (peers are charged
           a tombstone entry for it).  The cost is ``O(|AFF| +
           |batch|)``, not ``O(border)``;
        5. the engine's round and loop resume from what that composes —
           every change after the reset is a plain aggregator
           improvement.  The answer is left to the next read.
        """
        program, query = self.program, self.query
        frags = self.fragmentation.fragments
        coord = self._loop.coordinator
        table = coord.table
        start = time.perf_counter()

        # Param names for the promotion probe of step 2: probing reported
        # claims by constructed ``(node, name)`` key costs O(|grown|), not
        # an O(border) index build per batch.
        param_names = self._loop.names

        # Insertions and weight decreases raise no converged value: a
        # monotone batch seeds nothing.  The gate is per batch, not per
        # fragment — a non-monotone batch seeds on every touched fragment
        # (SSSP seeds its decreases too; see ``affected_seeds``).
        monotone = all(d.monotone for d in touched.values())
        work: Dict[int, Set[Node]] = {f.fid: set() for f in frags}
        if not monotone:
            for fid, found in program.affected_seeds_global(
                    query, frags, self.states, touched).items():
                work[fid] |= found

        local_aff: Dict[int, Set[Node]] = {f.fid: set() for f in frags}
        promoted: Set[Node] = set()
        while any(work.values()):
            round_promotions: Set[Node] = set()
            for frag in frags:
                known = local_aff[frag.fid]
                fresh = work[frag.fid] - known
                work[frag.fid] = set()
                if not fresh:
                    continue
                grown = program.expand_affected(query, frag,
                                                self.states[frag.fid],
                                                fresh)
                grown -= known
                known |= grown
                reported = coord.reported.get(frag.fid)
                if not reported:
                    continue
                for node in grown:
                    if node in promoted or node in round_promotions:
                        continue
                    for name in param_names:
                        key = (node, name)
                        value = reported.get(key, _MISSING)
                        if value is not _MISSING and \
                                table.get(key, _MISSING) == value:
                            round_promotions.add(node)
                            break
            promoted |= round_promotions
            for frag in frags:
                work[frag.fid] |= round_promotions - local_aff[frag.fid]

        global_aff: Set[Node] = set()
        for aff in local_aff.values():
            global_aff |= aff
        self.metrics.partial_resets += not monotone
        self.metrics.affected_vertices += len(global_aff)

        for frag in frags:
            aff = local_aff[frag.fid]
            delta = touched.get(frag.fid)
            if aff or delta is not None:
                program.apply_nonmonotone(query, frag,
                                          self.states[frag.fid], delta,
                                          aff)
        loop = self._loop
        loop.record([time.perf_counter() - start])
        loop.drain(*loop.settle(*self._rebaseline_region(
            touched, local_aff, global_aff)))
        loop.finish()
        self._count_views()

    def _rebaseline_region(self, touched: Dict[int, FragmentDelta],
                           local_aff: Dict[int, Set[Node]],
                           global_aff: Set[Node]) -> Tuple[int, int, Set]:
        """Step 4 of :meth:`_maintain_bounded`.

        Only keys the batch could have touched are re-read and
        re-aggregated (:meth:`_batch_entries`, with the reset vertices
        among the probed).  A probed vertex whose entry is missing from
        the probe read retracts (tombstone); everything else in the
        coordinator tables is untouched.  Returns ``(bytes, messages,
        dirty keys)`` for the resumed fixpoint.

        This is the only fold of a batch's first round, so with the
        coordinator's ``check`` on it checks the monotonic condition
        here: every moved entry of a vertex outside the fragment's reset
        region must not fall behind (the region may rise).
        """
        program = self.program
        frags = self.fragmentation.fragments
        coord = self._loop.coordinator
        table = coord.table
        combine = program.aggregator.combine
        param_names = self._loop.names
        up_bytes = 0
        up_msgs = 0
        recompute: Set = set()
        for frag in frags:
            fid = frag.fid
            prev = coord.reported.setdefault(fid, {})
            fresh, probe = self._batch_entries(frag, touched.get(fid),
                                               local_aff[fid])
            diff = {key: value for key, value in fresh.items()
                    if prev.get(key, _MISSING) != value}
            if coord.check:
                aff = local_aff[fid]
                coord.check_report(fid, prev, {
                    key: value for key, value in diff.items()
                    if key[0] not in aff})
            prev.update(diff)
            recompute.update(diff)
            # Retractions ship as key-only tombstones.
            gone = {}
            for node in probe:
                for name in param_names:
                    key = (node, name)
                    if key in prev and key not in fresh:
                        gone[key] = None
                        del prev[key]
                        recompute.add(key)
            if diff or gone:
                up_msgs += 1
                up_bytes += coord.price(diff)
                if gone:
                    up_bytes += coord.price_tombstones(gone)

        # Dirty keys: aggregated values that moved, plus every key of an
        # affected vertex — a reset owner must be re-offered surviving
        # peer values even when the aggregate itself did not change.
        reported = coord.reported
        dirty: Set = set()
        for key in recompute:
            best = _MISSING
            for frag in frags:
                value = reported[frag.fid].get(key, _MISSING)
                if value is not _MISSING:
                    best = value if best is _MISSING \
                        else combine(best, value)
            if best is _MISSING:
                table.pop(key, None)
            elif table.get(key, _MISSING) != best:
                table[key] = best
                dirty.add(key)
        for node in global_aff:
            for name in param_names:
                key = (node, name)
                if key in table:
                    dirty.add(key)
        return up_bytes, up_msgs, dirty

    def _recompute(self) -> None:
        """Every batch of a program without the maintenance hooks: re-run
        the query from reset state on the mutated fragmentation, inside
        this session.

        Such a program has no way to name the values a batch invalidated,
        so every fragment's state is reset and the full PEval/IncEval
        fixpoint re-runs.  What is preserved
        is everything else the session owns: the fragmentation (no
        re-partition), the engine's warm backend (process workers keep
        their cached fragments, brought current by delta replay rather
        than full re-ships) and the cumulative metrics.
        """
        result = self.engine.run(self.program, self.query,
                                 fragmentation=self.fragmentation)
        # Fold the re-run's cost into the session's cumulative metrics
        # in place (WatchHandle holds a reference to the object).
        self.metrics.absorb(result.metrics)
        self._adopt(result)
