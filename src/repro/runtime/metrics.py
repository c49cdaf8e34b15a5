"""BSP cost accounting, one rule for GRAPE and the baseline engines.

The paper reports three quantities per run: response time, communication
volume (MB), and superstep counts, and states the cost of a BSP
computation as ``w + g*h + l`` (Valiant, quoted in paper Section 4.2).
The counts are the model here: every engine closes each superstep
through :meth:`RunMetrics.record_superstep`, which counts supersteps
(the ``l`` term's multiplier), shipped bytes by serialized size (``h``)
and messages.  They repeat exactly from run to run and host to host.
Per-worker compute seconds are measured with a perf counter around
*real* executions of the plugged-in algorithms and kept for straggler
diagnostics (``max_worker_s``, skew) only; response time is the
measured wall clock, never a simulated one.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.obs.registry import TIME_BUCKETS, Histogram

__all__ = ["DERIVED_STATE_COUNTERS", "PHASE_FIELDS",
           "RunMetrics", "ServiceMetrics", "UPDATE_PHASE_FIELDS",
           "message_bytes", "physical_times", "STRAGGLER_SKEW"]


def message_bytes(payload: Any) -> int:
    """Serialized size of a message payload, in bytes.

    Uses pickle as a stand-in for the MPI wire format; what matters for the
    reproduction is that relative volumes between systems are faithful.
    Prices the explicit channels (designated, key-value, preprocess
    payloads) and the baselines; update parameters go through the
    closed-form model of :mod:`repro.runtime.wire`.
    """
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def physical_times(times: Sequence[float],
                   num_physical: int) -> Sequence[float]:
    """Per-physical-worker compute seconds of one superstep (paper
    Section 3.1: ``m`` virtual workers share ``n`` physical ones).  The
    virtual workers' ``times`` are placed greedily, longest first, each
    on the first least-loaded worker, and summed there.  With no more
    virtual workers than physical ones every one has a worker to itself,
    so the placement is the identity and none is computed."""
    if len(times) <= num_physical:
        return times
    physical = [0.0] * num_physical
    for i in sorted(range(len(times)), key=lambda i: -times[i]):
        physical[min(range(num_physical),
                     key=physical.__getitem__)] += times[i]
    return physical


#: RunMetrics gauges (point-in-time readings, not flows): absorb()
#: keeps the maximum instead of summing
_GAUGE_FIELDS = ("shm_segments_active", "shm_bytes_mapped",
                 "skew_ratio_max")

#: RunMetrics fields absorb() handles by hand
_SPECIAL_FIELDS = ("backend", "per_superstep")

#: always-on phase timers (plain ``perf_counter`` deltas, no tracing
#: needed), shared by RunMetrics and ServiceMetrics: where a run's wall
#: clock went besides worker compute — workers reading their reports,
#: and the coordinator folding them, composing messages, pricing
#: traffic and assembling the answer
PHASE_FIELDS = ("report_read_s", "fold_s", "compose_s", "accounting_s",
                "assemble_s")

#: ServiceMetrics timers of the update path, equally always-on: where an
#: ``update()`` batch went, and what its standing answers cost to read
UPDATE_PHASE_FIELDS = ("update_apply_delta_s", "update_wal_append_s",
                       "update_compact_s", "update_maintain_s",
                       "standing_assemble_s")

#: A superstep whose slowest worker ran at >= this multiple of the mean
#: worker time counts as a straggler step (needs >= 2 workers to mean
#: anything).
STRAGGLER_SKEW = 2.0


def _time_hist() -> Histogram:
    return Histogram(TIME_BUCKETS)


def _classify_fields(cls) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Split a metrics dataclass's fields into additive and histogram
    groups by reflection, so absorb() can never silently drop a
    newly added counter: every field is either special-cased by name,
    declared a gauge, or combined automatically."""
    probe = cls()
    additive, hists = [], []
    for f in dataclasses.fields(cls):
        if f.name in _SPECIAL_FIELDS or f.name in _GAUGE_FIELDS:
            continue
        if isinstance(getattr(probe, f.name), Histogram):
            hists.append(f.name)
        else:
            additive.append(f.name)
    return tuple(additive), tuple(hists)


@dataclass
class RunMetrics:
    """Everything a single engine run reports.

    ``supersteps``, ``comm_bytes`` (the paper's "Communication (MB)"
    axis) and ``comm_messages`` are exact counts; ``total_compute_s`` is
    aggregate measured CPU work.

    ``backend``/``wall_clock_s``/``pipe_bytes`` describe the *physical*
    execution: which executor backend ran the supersteps, the real
    wall-clock of the run, and the serialized bytes that actually crossed
    process pipes (0 for in-process backends).  They vary freely between
    backends; the logical quantities above are backend-invariant —
    the differential harness asserts exactly that.

    The update-pipeline counters make the incremental-vs-recompute split
    observable: ``deltas_applied`` counts applied (non-no-op) update
    batches on a standing query, partitioned into
    ``incremental_maintained`` (bounded path) and ``fallback_reruns``
    (recomputes of programs without the maintenance hooks);
    ``delta_bytes_shipped`` / ``fragments_delta_shipped`` vs
    ``fragments_shipped`` show whether process workers were brought
    current by compact delta replay or by full fragment re-ships.
    """

    supersteps: int = 0
    total_compute_s: float = 0.0
    comm_bytes: int = 0
    comm_messages: int = 0
    backend: str = "serial"
    wall_clock_s: float = 0.0
    pipe_bytes: int = 0
    #: update batches folded into this run's standing answer
    deltas_applied: int = 0
    incremental_maintained: int = 0
    fallback_reruns: int = 0
    #: non-monotone batches (a deletion or a weight increase somewhere)
    #: among ``incremental_maintained`` — every maintained batch takes
    #: the bounded path, a monotone one with an empty region
    partial_resets: int = 0
    #: total size of the affected regions of maintained batches —
    #: ``affected_vertices / partial_resets`` is the measured |AFF|
    affected_vertices: int = 0
    #: serialized bytes of per-fragment deltas replayed on pooled
    #: process workers (instead of re-shipping whole fragments)
    delta_bytes_shipped: int = 0
    #: fragments shipped to workers in full (first contact or log gap)
    fragments_shipped: int = 0
    #: fragments brought current worker-side by delta replay
    fragments_delta_shipped: int = 0
    #: serialized bytes of whole-fragment payloads that actually crossed
    #: the pipe — ``pipe_bytes`` minus this (and the delta bytes) is the
    #: control plane; near zero when fragments ride shared memory
    fragment_bytes_shipped: int = 0
    #: fragments that fell back from shared-memory descriptor shipping
    #: to the pickle path (publish or attach failure)
    shm_fallbacks: int = 0
    #: shared-memory plane gauges sampled at the end of the run: named
    #: segments the backend's arena held, and their mapped bytes
    shm_segments_active: int = 0
    shm_bytes_mapped: int = 0
    #: checkpoint restores this run performed (injected worker failures
    #: and real process-backend worker deaths alike)
    recoveries: int = 0
    #: straggler diagnostics: the worst per-superstep skew ratio seen
    #: (max worker time / mean worker time; 1.0 when balanced), and how
    #: many supersteps crossed :data:`STRAGGLER_SKEW`
    skew_ratio_max: float = 0.0
    straggler_steps: int = 0
    #: distribution of individual worker superstep times
    worker_time_hist: Histogram = field(default_factory=_time_hist)
    #: phase timers (see :data:`PHASE_FIELDS`); ``report_read_s`` sums
    #: over fragments like ``total_compute_s`` does
    report_read_s: float = 0.0
    fold_s: float = 0.0
    compose_s: float = 0.0
    accounting_s: float = 0.0
    assemble_s: float = 0.0
    #: dict views the programs' array states had to build
    #: (:class:`repro.pie_programs._blocks.ArrayState`): zero for a query
    #: served on the array plane, so a hot path that falls back to dicts
    #: shows here
    dict_views_materialised: int = 0
    #: standing answers assembled — on the first read after a batch, not
    #: by the batch — and the share of ``assemble_s`` that took
    standing_answers_assembled: int = 0
    standing_assemble_s: float = 0.0
    per_superstep: List[Dict[str, float]] = field(default_factory=list)

    def record_superstep(self, worker_times: List[float],
                         bytes_shipped: int, num_messages: int) -> None:
        """Close one superstep: fold worker times and traffic into totals."""
        max_t = max(worker_times) if worker_times else 0.0
        sum_t = sum(worker_times)
        self.supersteps += 1
        self.total_compute_s += sum_t
        self.comm_bytes += bytes_shipped
        self.comm_messages += num_messages
        skew = 1.0
        slowest = -1
        if worker_times:
            slowest = max(range(len(worker_times)),
                          key=worker_times.__getitem__)
            mean_t = sum_t / len(worker_times)
            if len(worker_times) > 1 and mean_t > 0.0:
                skew = max_t / mean_t
            for t in worker_times:
                self.worker_time_hist.observe(t)
        if skew > self.skew_ratio_max:
            self.skew_ratio_max = skew
        if len(worker_times) > 1 and skew >= STRAGGLER_SKEW:
            self.straggler_steps += 1
        self.per_superstep.append({
            "max_worker_s": max_t,
            "sum_worker_s": sum_t,
            "bytes": float(bytes_shipped),
            "messages": float(num_messages),
            "skew": skew,
            "slowest_worker": float(slowest),
        })

    def run_superstep(self, tasks: Sequence[Callable[[], Any]],
                      num_workers: int, bytes_shipped: int,
                      num_messages: int) -> None:
        """Run one superstep of the baseline engines: one task per
        virtual worker, in order, each timed, recorded on ``num_workers``
        physical workers and charged the traffic delivered at its start
        — the rule :meth:`repro.core.fixpoint.Fixpoint.record` applies
        to GRAPE's rounds."""
        times = []
        for task in tasks:
            start = time.perf_counter()
            task()
            times.append(time.perf_counter() - start)
        self.record_superstep(physical_times(times, num_workers),
                              bytes_shipped, num_messages)

    @property
    def comm_megabytes(self) -> float:
        return self.comm_bytes / 1e6

    @property
    def maintained_ratio(self) -> float:
        """Fraction of applied update batches served incrementally."""
        return (self.incremental_maintained / self.deltas_applied
                if self.deltas_applied else 0.0)

    @property
    def control_plane_bytes(self) -> int:
        """Pipe traffic that was *not* bulk fragment/delta payload:
        commands, outcomes, states, descriptors.  This is the floor the
        shared-memory plane cannot remove."""
        return max(0, self.pipe_bytes - self.fragment_bytes_shipped
                   - self.delta_bytes_shipped)

    def absorb(self, other: "RunMetrics") -> None:
        """Fold ``other`` into this object *in place* — the one
        combination rule.  Field handling is reflection-driven (see
        ``_classify_fields``): every dataclass field is special-cased by
        name, declared a gauge, or combined automatically — a new
        counter cannot be silently dropped.

        Used by :class:`~repro.core.updates.ContinuousQuerySession` to
        accumulate a fallback re-run's cost: holders of the session's
        metrics (e.g. :class:`~repro.service.WatchHandle`) keep their
        reference, so the fold must mutate rather than replace.
        """
        if other.backend != self.backend:
            self.backend = "mixed"
        self.per_superstep.extend(other.per_superstep)
        for name in _RUN_ADDITIVE_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _GAUGE_FIELDS:
            setattr(self, name, max(getattr(self, name),
                                    getattr(other, name)))
        for name in _RUN_HISTOGRAM_FIELDS:
            getattr(self, name).merge(getattr(other, name))

    def __repr__(self) -> str:
        return (f"RunMetrics(supersteps={self.supersteps}, "
                f"wall={self.wall_clock_s:.4f}s, "
                f"comm={self.comm_megabytes:.4f}MB, "
                f"msgs={self.comm_messages})")


_RUN_ADDITIVE_FIELDS, _RUN_HISTOGRAM_FIELDS = _classify_fields(RunMetrics)


#: the lifetime counters a :class:`~repro.partition.base.Fragmentation`
#: keeps of its derived state, under the names :class:`ServiceMetrics`
#: aggregates them by
DERIVED_STATE_COUNTERS = ("csr_snapshots_built", "csr_snapshots_patched",
                          "csr_snapshot_invalidations",
                          "derived_tables_carried", "derived_tables_rebuilt",
                          "border_index_builds", "border_index_patches")


@dataclass
class ServiceMetrics:
    """Aggregate counters for one :class:`~repro.service.GrapeService`.

    Where :class:`RunMetrics` describes a single engine run, this rolls an
    entire service lifetime up: every query served (one-shot and standing),
    the fragmentation cache's effectiveness — the paper's "partitioned once
    for all queries" amortization made measurable — and the maintenance
    work done for graph updates.
    """

    queries_served: int = 0
    queries_failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    updates_applied: int = 0
    watches_started: int = 0
    watch_refreshes: int = 0
    supersteps_total: int = 0
    comm_bytes_total: int = 0
    comm_messages_total: int = 0
    #: CSR snapshot reuse across the service's cached fragmentations
    #: (:data:`DERIVED_STATE_COUNTERS`): builds are lazy (first kernel use
    #: per fragment), invalidations are mutation-driven (``update``), and
    #: the first read after one splices the retired snapshot with the
    #: batch's dirty rows (``patched``) where it used to rebuild — so
    #: builds stay near one per fragment however many batches arrive.
    #: The border index is counted the same way, and so are the tables
    #: derived from a snapshot: carried across a splice, or rebuilt.
    csr_snapshots_built: int = 0
    csr_snapshots_patched: int = 0
    csr_snapshot_invalidations: int = 0
    derived_tables_carried: int = 0
    derived_tables_rebuilt: int = 0
    border_index_builds: int = 0
    border_index_patches: int = 0
    #: physical execution totals: real wall-clock of served runs and the
    #: serialized bytes that crossed process-backend pipes
    wall_clock_s_total: float = 0.0
    pipe_bytes_total: int = 0
    #: the update pipeline, service-wide: how watcher refreshes split
    #: between maintained (programs with the maintenance hooks) and
    #: recomputed (every other program), and how many serialized bytes
    #: of per-fragment deltas were replayed on process workers instead
    #: of full fragment re-ships — `incremental_maintained /
    #: (incremental_maintained + fallback_reruns)` is the serving
    #: layer's incremental-vs-recompute ratio
    incremental_maintained: int = 0
    fallback_reruns: int = 0
    #: non-monotone batches among the maintained refreshes and the
    #: total |AFF| the maintained refreshes reset
    partial_resets: int = 0
    affected_vertices: int = 0
    delta_bytes_shipped: int = 0
    #: the shared-memory fragment plane, service-wide: whole-fragment
    #: pickle bytes that actually crossed pipes (near zero when the
    #: plane is active), fragments that fell back to pickle shipping,
    #: and point-in-time gauges of the segments currently published and
    #: their mapped bytes (synced from the live arenas, not summed)
    fragment_bytes_shipped: int = 0
    shm_fallbacks: int = 0
    shm_segments_active: int = 0
    shm_bytes_mapped: int = 0
    #: the durability layer (``GrapeService(store_dir=...)``): mirrors
    #: of :class:`~repro.store.StoreMetrics` (snapshots, WAL records and
    #: the snapshot timers behind the ``store`` row of the layer table)
    #: and graphs recovered from the store at
    #: service construction — ``edge_lists_parsed`` counts the cold path
    #: (``load_graph_file``), so a warm-started service serving with
    #: ``edge_lists_parsed == 0`` provably skipped re-parsing
    snapshots_written: int = 0
    snapshots_loaded: int = 0
    wal_appends: int = 0
    wal_replayed: int = 0
    snapshot_hash_s: float = 0.0
    snapshot_pack_s: float = 0.0
    snapshot_io_s: float = 0.0
    snapshot_decode_s: float = 0.0
    snapshot_verify_s: float = 0.0
    warm_starts: int = 0
    edge_lists_parsed: int = 0
    #: checkpoint restores across served runs (fault tolerance)
    recoveries: int = 0
    #: the HA serving layer: queries rejected by admission control
    #: (typed load shedding, not failures of the engine) and queries
    #: answered from another identical in-flight query's engine run
    #: (multi-query grouping) — ``queries_grouped`` counts *followers*,
    #: so N coalesced submissions show up as 1 engine run observed via
    #: :meth:`observe_run` plus N-1 grouped queries
    queries_shed: int = 0
    queries_grouped: int = 0
    #: the replication tier (:class:`~repro.replication.ReplicaService`):
    #: WAL batches applied by tailing, generation rollovers followed,
    #: and full re-bootstraps from a snapshot after falling behind the
    #: primary's GC retention window
    replica_batches_applied: int = 0
    replica_rollovers: int = 0
    replica_resnapshots: int = 0
    #: the resilience plane: queries that needed at least one retry (and
    #: the total retry attempts behind them), deadline misses, caller
    #: cancellations, and the circuit breaker's life — backends degraded
    #: down the process→thread→serial chain, half-open probes of the
    #: configured backend after cooldown, and successful restorations
    queries_retried: int = 0
    retries_total: int = 0
    deadlines_exceeded: int = 0
    queries_cancelled: int = 0
    backend_degradations: int = 0
    backend_probes: int = 0
    backend_restorations: int = 0
    #: the telemetry plane: queries that crossed the service's
    #: slow-query threshold, the worst per-superstep skew ratio seen
    #: across served runs, supersteps that crossed the straggler
    #: threshold, and latency distributions (per-query wall clock and
    #: per-worker superstep times)
    queries_slow: int = 0
    skew_ratio_max: float = 0.0
    straggler_steps: int = 0
    query_wall_s: Histogram = field(default_factory=_time_hist)
    worker_time_hist: Histogram = field(default_factory=_time_hist)
    #: phase timers summed over served runs (see :data:`PHASE_FIELDS`)
    #: — the per-layer table of ``GrapeService.debug_report()``; a
    #: standing query's maintenance rounds accumulate theirs on the
    #: watch handle's own ``metrics``
    report_read_s: float = 0.0
    fold_s: float = 0.0
    compose_s: float = 0.0
    accounting_s: float = 0.0
    assemble_s: float = 0.0
    #: the same for update batches (:data:`UPDATE_PHASE_FIELDS`, the
    #: ``update`` row of the layer table): mutating the fragmentation,
    #: appending to the WAL, compacting it, refreshing the standing
    #: queries — and, read off the watches, assembling their answers
    update_apply_delta_s: float = 0.0
    update_wal_append_s: float = 0.0
    update_compact_s: float = 0.0
    update_maintain_s: float = 0.0
    standing_assemble_s: float = 0.0
    standing_answers_assembled: int = 0
    #: dict views built by array program states, over served runs and
    #: maintenance rounds (see :class:`RunMetrics`)
    dict_views_materialised: int = 0
    #: deferred dict graphs built since construction (any in the process)
    dict_graphs_materialised: int = 0

    def observe_run(self, metrics: "RunMetrics") -> None:
        """Fold one completed query run into the aggregates."""
        self.queries_served += 1
        self.dict_views_materialised += metrics.dict_views_materialised
        for name in PHASE_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(metrics, name))
        self.wall_clock_s_total += metrics.wall_clock_s
        self.pipe_bytes_total += metrics.pipe_bytes
        self.delta_bytes_shipped += metrics.delta_bytes_shipped
        self.fragment_bytes_shipped += metrics.fragment_bytes_shipped
        self.shm_fallbacks += metrics.shm_fallbacks
        self.recoveries += metrics.recoveries
        self.query_wall_s.observe(metrics.wall_clock_s)
        self.worker_time_hist.merge(metrics.worker_time_hist)
        self.straggler_steps += metrics.straggler_steps
        if metrics.skew_ratio_max > self.skew_ratio_max:
            self.skew_ratio_max = metrics.skew_ratio_max
        self._observe_cost(metrics.supersteps, metrics.comm_bytes,
                           metrics.comm_messages)

    def observe_maintenance(self, supersteps: int, comm_bytes: int,
                            comm_messages: int, maintained: int = 0,
                            fallbacks: int = 0, partial_resets: int = 0,
                            affected_vertices: int = 0,
                            delta_bytes: int = 0,
                            dict_views: int = 0) -> None:
        """Fold one standing-query refresh (its *delta* cost) in."""
        self.watch_refreshes += 1
        self.dict_views_materialised += dict_views
        self.incremental_maintained += maintained
        self.fallback_reruns += fallbacks
        self.partial_resets += partial_resets
        self.affected_vertices += affected_vertices
        self.delta_bytes_shipped += delta_bytes
        self._observe_cost(supersteps, comm_bytes, comm_messages)

    def _observe_cost(self, supersteps: int, comm_bytes: int,
                      comm_messages: int) -> None:
        self.supersteps_total += supersteps
        self.comm_bytes_total += comm_bytes
        self.comm_messages_total += comm_messages

    @property
    def comm_megabytes_total(self) -> float:
        return self.comm_bytes_total / 1e6

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of fragmentation lookups served from cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def deltas_applied(self) -> int:
        """Applied (non-no-op) update batches — an alias: no-op batches
        return before any counter moves, so every counted update *is* an
        applied delta."""
        return self.updates_applied

    @property
    def maintained_ratio(self) -> float:
        """Fraction of watcher refreshes maintained on the bounded path
        (the rest were recomputes of programs without the hooks)."""
        total = self.incremental_maintained + self.fallback_reruns
        return self.incremental_maintained / total if total else 0.0

    def __repr__(self) -> str:
        return (f"ServiceMetrics(queries={self.queries_served}, "
                f"failed={self.queries_failed}, "
                f"cache={self.cache_hits}h/{self.cache_misses}m, "
                f"updates={self.updates_applied}, "
                f"maintained={self.incremental_maintained}/"
                f"fallback={self.fallback_reruns}, "
                f"supersteps={self.supersteps_total}, "
                f"comm={self.comm_megabytes_total:.4f}MB, "
                f"csr={self.csr_snapshots_built}built/"
                f"{self.csr_snapshots_patched}patched/"
                f"{self.csr_snapshot_invalidations}inv, "
                f"store={self.snapshots_written}snap/"
                f"{self.wal_appends}wal)")
