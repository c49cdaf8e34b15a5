"""GrapeService: the paper's plug/play panels as one serving facade.

The paper's promise is that developers *plug* PIE programs in once and end
users just *play* queries; its Section 6 architecture adds a persistent
deployment — a partition manager that fragments each graph "once for all
queries Q posed on G", an API library of stored procedures, and a
lightweight transaction controller for updates.  This module ties the
repo's previously separate layers into that shape:

* **named graphs** — ``service.load_graph("social", g)``;
* **fragmentation cache** — partitions are cached by
  ``(graph, strategy, m)`` and shared by every query, standing or not;
* **plug** — programs come from a :class:`~repro.core.api.PIERegistry`
  (``service.plug("name", Factory)`` or the ``@service.program`` decorator);
* **play** — ``service.play("sssp", query="a", graph="social")`` returns a
  finished :class:`~repro.service.tickets.QueryTicket`;
  ``submit``/``submit_many`` run on a thread pool of engines, one fresh
  engine per query built from a shared
  :class:`~repro.core.engine.EngineConfig`;
* **updates** — ``service.watch(...)`` registers a standing query
  (a service-owned :class:`~repro.core.updates.ContinuousQuerySession`);
  ``service.update(graph, delta)`` applies a
  :class:`~repro.graph.delta.GraphDelta` — insertions, deletions,
  weight changes — to the shared fragmentation once and fans the
  per-fragment deltas out to every watcher, which maintain their
  answers on the bounded affected-region path (a monotone batch has an
  empty region) — an in-session recompute only for programs without
  the maintenance hooks (``insert_edges`` / ``delete_edges`` /
  ``set_weights`` are sugar).

Queries on a graph run concurrently (they only read the fragmentation);
an update batch takes that graph's write lock, so it waits for in-flight
queries and blocks new ones while fragments are mutated.

With ``store_dir=...`` the service is **durable**: registered graphs are
snapshotted into a :class:`~repro.store.GraphStore`, every applied batch
is written ahead to the graph's delta WAL, an outgrown WAL is compacted
into a fresh snapshot, and construction warm-starts from the store —
see :mod:`repro.store` and the README's "Durability & recovery".
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, List, Optional, Tuple,
                    Union)

from pathlib import Path

from repro.core.api import PIERegistry, default_registry
from repro.core.engine import EngineConfig, GrapeEngine
from repro.core.updates import (ContinuousQuerySession, EdgeInsertion,
                                apply_delta)
from repro.graph.delta import FragmentDelta, GraphDelta, NormalizedDelta
from repro.graph.graph import DeferredGraph, Graph, Node
from repro.graph.io import read_edge_list
from repro.obs import events as obs_events
from repro.obs.diagnostics import SlowQueryLog, straggler_report
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceContext
from repro.optim.grouping import QueryGrouper
from repro.partition.base import Fragmentation, PartitionStrategy
from repro.partition.strategies import HashPartition
from repro.replication.admission import (AdmissionController,
                                         AdmissionRejected)
from repro.resilience import (BackendCircuitBreaker, DeadlineExceeded,
                              QueryCancelled, RetryPolicy, run_with_retry)
from repro.runtime import shm
from repro.runtime.executors import WorkerProcessDied
from repro.runtime.metrics import (DERIVED_STATE_COUNTERS, PHASE_FIELDS,
                                   UPDATE_PHASE_FIELDS,
                                   ServiceMetrics)
from repro.service.tickets import QueryRequest, QueryTicket
from repro.store.catalog import GraphStore, StoredGraph

__all__ = ["GrapeService", "WatchHandle"]

# (graph name, partition-strategy signature, num fragments m)
FragCacheKey = Tuple[str, str, int]


class _RWLock:
    """Many concurrent readers (queries) or one writer (update batch).

    Writer-preferring: once a writer is waiting, new readers queue behind
    it, so a steady query stream cannot starve an update batch.

    Read acquisition is **reentrant**: a thread already holding the read
    lock may re-enter ``read()`` even while a writer is queued.  Without
    this, a callback running under the read lock that re-reads through
    the service (the process backend's watch/refresh callback path does)
    would deadlock against its own writer-preference gate: the inner
    ``read()`` would queue behind a waiting writer that in turn waits for
    the outer read to be released.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False
        self._local = threading.local()

    @contextmanager
    def read(self):
        depth = getattr(self._local, "read_depth", 0)
        if depth:
            # Reentrant re-acquisition: this thread already counts as one
            # of ``_readers``; entering the gate again could deadlock
            # behind a waiting writer.
            self._local.read_depth = depth + 1
            try:
                yield
            finally:
                self._local.read_depth -= 1
            return
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        self._local.read_depth = 1
        try:
            yield
        finally:
            self._local.read_depth = 0
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


#: RunMetrics counters of a watch's session that :class:`ServiceMetrics`
#: totals under the same names
_WATCH_COUNTERS = ("standing_answers_assembled", "standing_assemble_s")


class WatchHandle:
    """A standing query registered with :meth:`GrapeService.watch`.

    The handle owns a :class:`ContinuousQuerySession` whose fragmentation
    is the service's shared one; updates arrive through the service
    (:meth:`GrapeService.update` and its sugar), never directly, so that
    fragments are mutated exactly once no matter how many watchers share
    them.
    """

    def __init__(self, watch_id: int, graph: str, program: str,
                 session: ContinuousQuerySession, graph_lock: _RWLock):
        self.watch_id = watch_id
        self.graph = graph
        self.program = program
        self.session = session
        self.refreshes = 0
        self.active = True
        self._graph_lock = graph_lock

    @property
    def answer(self) -> Any:
        """The maintained ``Q(G)`` reflecting every applied update:
        assembled on the first read after a batch (as a reader of the
        graph, so never in the middle of one) and the same object until
        the next batch; an answer read earlier is never mutated."""
        with self._graph_lock.read():
            return self.session.answer

    @property
    def metrics(self):
        """Cumulative cost: initial run plus all maintenance rounds."""
        return self.session.metrics

    def straggler_report(self) -> Dict[str, Any]:
        """Per-worker skew verdict over this watch's recorded supersteps
        (see :func:`repro.obs.diagnostics.straggler_report`)."""
        return straggler_report(self.session.metrics)

    def cancel(self) -> None:
        """Stop maintaining this query; later updates skip it."""
        self.active = False

    #: the RunMetrics fields whose movement is one refresh's cost, in
    #: :meth:`ServiceMetrics.observe_maintenance` argument order
    _COST_FIELDS = ("supersteps", "comm_bytes", "comm_messages",
                    "incremental_maintained", "fallback_reruns",
                    "partial_resets", "affected_vertices",
                    "delta_bytes_shipped", "dict_views_materialised")

    def _refresh(self, touched: Dict[int, FragmentDelta]
                 ) -> Optional[Tuple[int, ...]]:
        """Fold an applied update batch into the session; returns the
        delta of every ``_COST_FIELDS`` counter this maintenance round
        cost — measured per handle, so a batch that maintains one
        watcher and falls back for another charges each bucket its own
        session's outcome.

        Guarded against cancellation: a handle cancelled after the
        service snapshotted its watcher list (or from another thread
        while the batch is in flight) is left untouched and reports
        ``None`` instead of a delta.
        """
        if not self.active:
            return None
        m = self.session.metrics
        before = [getattr(m, name) for name in self._COST_FIELDS]
        self.session.apply_update(touched)
        self.refreshes += 1
        return tuple(getattr(m, name) - was
                     for name, was in zip(self._COST_FIELDS, before))

    def __repr__(self) -> str:
        state = "active" if self.active else "cancelled"
        return (f"WatchHandle(#{self.watch_id}, {self.program!r} on "
                f"{self.graph!r}, {state}, refreshes={self.refreshes})")


class GrapeService:
    """Unified serving facade over engines, registry and sessions.

    Parameters
    ----------
    engine:
        Shared :class:`EngineConfig` (or a template :class:`GrapeEngine`
        whose spec is extracted); every query runs on a fresh engine built
        from it.  Defaults to four workers.  Its ``backend``,
        ``deadline_s`` and ``heartbeat_timeout_s`` hold for ``play``,
        ``submit``/``submit_many`` and the standing-query sessions
        created by ``watch``.
    registry:
        Program store; defaults to a private copy of the default GRAPE
        library so per-service plug-ins stay local.
    concurrency:
        Thread-pool width for ``submit``/``submit_many``.
    store_dir:
        Optional durability root.  When given, the service owns a
        :class:`~repro.store.GraphStore` there: registered graphs are
        snapshotted, every applied update batch is appended to the
        graph's delta WAL (and folded into a fresh snapshot once the WAL
        outgrows the compaction threshold), and construction
        **warm-starts** — every graph committed to the store is loaded
        (snapshot + WAL replay) and immediately servable, with no
        edge-list parsing and no eager re-partitioning (fragmentation
        cache entries rebuild lazily on first use).
    store_compact_threshold:
        WAL bytes beyond which an update triggers compaction (defaults
        to the store's own default).
    store_retain_generations:
        Superseded snapshot/WAL generations compaction keeps on disk
        for lagging replicas (store default: 0 — GC immediately).
    node_id:
        This writer's identity for fencing: recorded against the
        store's ``EPOCH`` file so a deposed primary rejoining after a
        failover is rejected at open (see
        :class:`~repro.replication.FailoverCoordinator`).
    admission:
        Optional :class:`~repro.replication.AdmissionController` gating
        every query (per-graph concurrency caps, bounded queues, typed
        shedding) — unset, every query is admitted, as before.
    grouping:
        Multi-query grouping (default on): identical concurrent read
        queries on the shared engine config coalesce into one engine
        run — the first arrival runs, the rest share its result
        (``stats.queries_grouped`` counts the shared ones).
    retry:
        Optional :class:`~repro.resilience.RetryPolicy`: transient
        infrastructure failures (a pooled worker death, a WAL append
        whose log was truncated back clean) are retried with seeded
        exponential backoff before the query is failed with
        :exc:`~repro.resilience.RetryExhausted`.  Logic errors,
        deadline misses and cancellations are never retried.
    degradation:
        Backend circuit breaker: ``True`` for defaults, or a configured
        :class:`~repro.resilience.BackendCircuitBreaker`.  Repeated
        infrastructure failures on a graph degrade its queries down the
        ``process → thread → serial`` chain; after the cooldown the
        configured backend is probed and restored on success.  Every
        transition is mirrored into ``stats``
        (``backend_degradations`` / ``backend_probes`` /
        ``backend_restorations``).
    """

    def __init__(self, *,
                 engine: Union[EngineConfig, GrapeEngine, None] = None,
                 registry: Optional[PIERegistry] = None,
                 concurrency: int = 4,
                 store_dir: Union[str, Path, None] = None,
                 store_compact_threshold: Optional[int] = None,
                 store_retain_generations: Optional[int] = None,
                 node_id: Optional[str] = None,
                 admission: Optional[AdmissionController] = None,
                 grouping: bool = True,
                 retry: Optional[RetryPolicy] = None,
                 degradation: Union[bool, BackendCircuitBreaker] = False,
                 tracing: bool = False,
                 slow_query_s: Optional[float] = None):
        if isinstance(engine, GrapeEngine):
            engine = engine.config
        self.engine_config = engine or EngineConfig()
        self.retry = retry
        if isinstance(degradation, BackendCircuitBreaker):
            self.breaker: Optional[BackendCircuitBreaker] = degradation
        else:
            self.breaker = BackendCircuitBreaker() if degradation else None
        if self.breaker is not None:
            self.breaker.on_transition = self._on_breaker_transition
        self.registry = (registry if registry is not None
                         else default_registry().copy())
        self.concurrency = max(1, concurrency)
        self.stats = ServiceMetrics()
        #: telemetry plane: ``tracing=True`` builds a span tree per
        #: query (reachable as ``ticket.grape_result.trace``);
        #: ``slow_query_s`` additionally keeps queries slower than the
        #: threshold — with their full span trees — in ``slow_queries``
        self.tracing = bool(tracing)
        self.slow_query_s = slow_query_s
        self.slow_queries: Optional[SlowQueryLog] = (
            SlowQueryLog(slow_query_s) if slow_query_s is not None
            else None)
        self.admission = admission
        self._grouper: Optional[QueryGrouper] = (QueryGrouper()
                                                 if grouping else None)
        self.node_id = node_id

        self._graphs: Dict[str, Graph] = {}
        self._frag_cache: Dict[FragCacheKey, Fragmentation] = {}
        # Snapshot / border-index counters of fragmentations that left
        # the cache; stats totals = this baseline + the live cached ones.
        self._csr_counter_base = dict.fromkeys(
            DERIVED_STATE_COUNTERS + _WATCH_COUNTERS, 0)
        self._fills_at_start = DeferredGraph.materialised
        self._graph_locks: Dict[str, _RWLock] = {}
        # Serializes the control-plane mutators (watch registration and
        # insert_edges) per graph, so a watcher can never miss a batch
        # that lands between its initial run and its registration.
        self._mutation_locks: Dict[str, threading.RLock] = {}
        self._watches: Dict[str, List[WatchHandle]] = {}
        self._lock = threading.RLock()  # guards the dicts + stats above
        self._pool: Optional[ThreadPoolExecutor] = None
        self._ticket_ids = itertools.count(1)
        self._watch_ids = itertools.count(1)
        self._closed = False

        self.store: Optional[GraphStore] = None
        if store_dir is not None:
            kwargs: Dict[str, Any] = {"node_id": node_id}
            if store_compact_threshold is not None:
                kwargs["compact_threshold_bytes"] = store_compact_threshold
            if store_retain_generations is not None:
                kwargs["retain_generations"] = store_retain_generations
            self.store = GraphStore(store_dir, **kwargs)
            self._warm_start()

    def _warm_start(self) -> None:
        """Recover every committed graph from the store: load its
        snapshot, replay its WAL chain, and serve.

        No partitioning runs here.  When the snapshot carries the
        previous incarnation's canonical fragmentation (persisted at
        compaction or graceful shutdown) *and* its recorded
        ``(strategy, m)`` identity matches this service's config, the
        maintained partition is seeded straight into the fragmentation
        cache — the paper's "partitioned once for all queries"
        amortization surviving the restart.  Everything else (a
        config change, other engine configs' entries) rebuilds lazily on
        first use."""
        for name in self.store.names():
            self._install_recovered(name, self.store.load(name))
        self._sync_store_stats()

    def _install_recovered(self, name: str, stored: StoredGraph) -> None:
        """Register a store-recovered graph (and, when its persisted
        fragmentation matches this service's config, seed the cache).
        Shared by warm start and a replica's bootstrap/re-bootstrap."""
        self._graphs[name] = stored.graph
        # Any cached fragmentation was built from the *previous* graph
        # object (a no-op at warm start; load-bearing when a replica
        # re-bootstraps over live state).
        self._drop_cached(name)
        self.stats.warm_starts += 1
        canon_key = self._cache_key(name, self.engine_config)
        if (stored.fragmentation is not None
                and stored.frag_key is not None
                and tuple(stored.frag_key) == canon_key[1:]):
            self._frag_cache[canon_key] = stored.fragmentation

    # ------------------------------------------------------------------
    # graph management
    # ------------------------------------------------------------------
    def load_graph(self, name: str, graph: Graph, *,
                   replace: bool = False) -> None:
        """Register ``graph`` under ``name`` for querying."""
        if not isinstance(name, str) or not name:
            raise TypeError(f"graph name must be a non-empty string, "
                            f"got {name!r}")
        # The mutation lock spans registration *and* the snapshot
        # commit: an update cannot slip between them (its WAL append
        # needs the manifest the commit creates), and — unlike holding
        # the service-wide lock across a multi-second snapshot write —
        # queries and updates on *other* graphs proceed unhindered.
        with self._mutation_lock(name):
            with self._lock:
                if name in self._graphs and not replace:
                    raise ValueError(f"graph {name!r} already loaded; "
                                     "pass replace=True to swap it")
                if self._active_watches(name):
                    raise ValueError(f"graph {name!r} has standing "
                                     "queries; cancel them before "
                                     "replacing it")
                self._graphs[name] = graph
                self._drop_cached(name)
            if self.store is not None:
                self.store.persist_graph(name, graph)
                with self._lock:
                    self._sync_store_stats()

    def load_graph_file(self, name: str, path: Union[str, Path], *,
                        replace: bool = False) -> Graph:
        """Parse an edge-list file and register it — the *cold* path.

        Counted in ``stats.edge_lists_parsed``, which is how a
        warm-started service proves it never re-parsed: it serves the
        same graphs with that counter still at zero.
        """
        graph = read_edge_list(path)
        with self._lock:
            self.stats.edge_lists_parsed += 1
        self.load_graph(name, graph, replace=replace)
        return graph

    def unload_graph(self, name: str) -> Graph:
        """Forget a named graph (and its cached fragmentations).

        With a store attached the graph's persisted state is removed too
        — an unloaded graph must not resurrect on the next warm start.
        The mutation lock is held throughout so an in-flight update
        batch finishes (WAL append included) before the store entry
        disappears from under it.
        """
        with self._mutation_lock(name):
            with self._lock:
                if self._active_watches(name):
                    raise ValueError(f"graph {name!r} has standing "
                                     "queries; cancel them before "
                                     "unloading")
                graph = self._require_graph(name)
                del self._graphs[name]
                self._drop_cached(name)
                self._graph_locks.pop(name, None)
                for handle in self._watches.pop(name, ()):
                    for counter in _WATCH_COUNTERS:
                        self._csr_counter_base[counter] += getattr(
                            handle.metrics, counter)
            if self.store is not None:
                self.store.remove(name)
            with self._lock:
                self._mutation_locks.pop(name, None)
        return graph

    def graphs(self) -> List[str]:
        with self._lock:
            return sorted(self._graphs)

    def graph(self, name: str) -> Graph:
        with self._lock:
            return self._require_graph(name)

    # ------------------------------------------------------------------
    # plug
    # ------------------------------------------------------------------
    def plug(self, name: str, factory: Callable, *,
             replace: bool = False) -> None:
        """Register a PIE program factory (the paper's *plug* panel)."""
        self.registry.register(name, factory, replace=replace)

    def program(self, name=None, *, replace: bool = False):
        """Decorator registering a program with this service's registry:
        ``@service.program("triangles")``."""
        return self.registry.program(name, replace=replace)

    def programs(self) -> List[str]:
        return self.registry.names()

    # ------------------------------------------------------------------
    # fragmentation cache
    # ------------------------------------------------------------------
    @staticmethod
    def _strategy_signature(strategy: PartitionStrategy) -> str:
        params = sorted(vars(strategy).items(), key=lambda kv: kv[0])
        return f"{type(strategy).__name__}({params!r})"

    def _cache_key(self, graph: str,
                   config: EngineConfig) -> FragCacheKey:
        strategy = config.partition or HashPartition()
        return (graph, self._strategy_signature(strategy),
                config.effective_fragments)

    def fragmentation(self, graph: str, *,
                      engine: Optional[EngineConfig] = None
                      ) -> Fragmentation:
        """The cached fragmentation a query on ``graph`` would use,
        partitioning now if absent (paper: "partitioned once for all
        queries Q posed on G")."""
        return self._fragmentation_for(graph, engine or self.engine_config)

    def _fragmentation_for(self, name: str,
                           config: EngineConfig) -> Fragmentation:
        key = self._cache_key(name, config)
        # Built while holding the service lock so a cold key is
        # partitioned exactly once even under concurrent submission, and
        # under the graph's read lock so the build never observes a
        # half-applied insertion batch.  (A writer inside ``write()``
        # never takes the service lock, so this nesting cannot deadlock.)
        with self._lock:
            graph = self._require_graph(name)
            frag = self._frag_cache.get(key)
            if frag is not None:
                self.stats.cache_hits += 1
                return frag
            self.stats.cache_misses += 1
            glock = self._graph_lock_locked(name)
            with glock.read():
                frag = config.build().make_fragmentation(graph)
            self._frag_cache[key] = frag
            return frag

    def _drop_cached(self, name: str) -> None:
        for key in [k for k in self._frag_cache if k[0] == name]:
            self._retire_fragmentation(self._frag_cache.pop(key))

    def _retire_fragmentation(self, frag: Fragmentation) -> None:
        """Preserve a dropped fragmentation's snapshot counters in the
        stats baseline (its fragments are no longer summed by the sync),
        unlink its published shared-memory segments — the cache entry
        was the last coordinator-side use of the token — and drop its
        snapshots and border index: whoever still pins the object (a
        caller's handle, an old ticket) must not pin their arrays."""
        for name in DERIVED_STATE_COUNTERS:
            self._csr_counter_base[name] += getattr(frag, name)
        shm.forget_token(frag.cache_token[0])
        frag.release_snapshots()

    def _sync_csr_stats(self) -> None:
        """Refresh the snapshot and border-index counters from the live
        cache.

        Fragments and fragmentations count their own builds, splices and
        drops (they happen deep in PIE programs and :func:`apply_delta`);
        the service folds the totals into :class:`ServiceMetrics`
        whenever they may have moved.  Callers must hold ``self._lock``.
        """
        for name in DERIVED_STATE_COUNTERS:
            setattr(self.stats, name, self._csr_counter_base[name] + sum(
                getattr(frag, name) for frag in self._frag_cache.values()))
        self.stats.dict_graphs_materialised = (DeferredGraph.materialised
                                               - self._fills_at_start)
        segs, mapped = shm.global_stats()
        self.stats.shm_segments_active = segs
        self.stats.shm_bytes_mapped = mapped
        # Standing answers are assembled by whoever reads them, outside
        # any service call; the watches count that themselves.
        for name in _WATCH_COUNTERS:
            setattr(self.stats, name, self._csr_counter_base[name] + sum(
                getattr(handle.metrics, name)
                for handles in self._watches.values() for handle in handles))

    # ------------------------------------------------------------------
    # play
    # ------------------------------------------------------------------
    def play(self, program: str, query: Any = None, *, graph: str,
             engine: Optional[EngineConfig] = None,
             **program_kwargs) -> QueryTicket:
        """Run one query synchronously; returns its finished ticket."""
        ticket = self._new_ticket(program, query, graph, program_kwargs)
        self._run_ticket(ticket, engine or self.engine_config)
        if ticket.error is not None:
            raise ticket.error
        return ticket

    def submit(self, program: str, query: Any = None, *, graph: str,
               engine: Optional[EngineConfig] = None,
               **program_kwargs) -> QueryTicket:
        """Queue one query on the engine pool; returns a live ticket."""
        ticket = self._new_ticket(program, query, graph, program_kwargs)
        # Enqueued under the lock so a concurrent close() cannot shut the
        # pool down between the closed-check and the submission (which
        # would leave the ticket forever pending).
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.concurrency,
                    thread_name_prefix="grape-service")
            self._pool.submit(self._run_ticket, ticket,
                              engine or self.engine_config)
        return ticket

    def submit_many(self, requests: Iterable[Union[QueryRequest, dict,
                                                   tuple]],
                    ) -> List[QueryTicket]:
        """Queue a batch of queries; tickets come back in request order.

        Each request is a :class:`QueryRequest`, a mapping with
        ``program``/``query``/``graph`` (plus optional
        ``program_kwargs``), or a ``(program, query, graph)`` tuple.
        """
        return [self.submit(req.program, req.query, graph=req.graph,
                            **req.program_kwargs)
                for req in map(self._coerce_request, requests)]

    @staticmethod
    def _coerce_request(req: Union[QueryRequest, dict, tuple]
                        ) -> QueryRequest:
        if isinstance(req, QueryRequest):
            return req
        if isinstance(req, dict):
            extra = {k: v for k, v in req.items()
                     if k not in ("program", "query", "graph",
                                  "program_kwargs")}
            kwargs = dict(req.get("program_kwargs", {}), **extra)
            return QueryRequest(program=req["program"],
                                query=req.get("query"),
                                graph=req["graph"],
                                program_kwargs=kwargs)
        if isinstance(req, tuple) and len(req) == 3:
            return QueryRequest(program=req[0], query=req[1], graph=req[2])
        raise TypeError(f"cannot interpret query request {req!r}")

    def _new_ticket(self, program: str, query: Any, graph: str,
                    program_kwargs: Dict[str, Any]) -> QueryTicket:
        if self._closed:
            raise RuntimeError("service is closed")
        request = QueryRequest(program=program, query=query, graph=graph,
                               program_kwargs=program_kwargs or {})
        return QueryTicket(next(self._ticket_ids), request)

    def _run_ticket(self, ticket: QueryTicket,
                    config: EngineConfig) -> None:
        if ticket.cancelled:
            # Cancelled while still queued: fail fast, never run.
            with self._lock:
                self.stats.queries_cancelled += 1
                self.stats.queries_failed += 1
            ticket._fail(QueryCancelled(
                f"ticket #{ticket.ticket_id} cancelled before it started"))
            return
        ticket._mark_running()
        try:
            result, grouped = self._grouped_run(ticket, config)
        except BaseException as exc:
            with self._lock:
                if isinstance(exc, AdmissionRejected):
                    self.stats.queries_shed += 1
                    obs_events.emit("query.shed", graph=ticket.graph,
                                    program=ticket.program)
                elif isinstance(exc, DeadlineExceeded):
                    self.stats.deadlines_exceeded += 1
                    obs_events.emit("query.deadline", graph=ticket.graph,
                                    program=ticket.program,
                                    budget_s=exc.budget_s)
                elif isinstance(exc, QueryCancelled):
                    self.stats.queries_cancelled += 1
                    obs_events.emit("query.cancelled", graph=ticket.graph,
                                    program=ticket.program)
                self.stats.queries_failed += 1
            ticket._fail(exc)
            return
        with self._lock:
            if grouped:
                # A follower: the leader's run was already observed;
                # count the served query without double-counting its
                # supersteps/bytes (they happened exactly once).
                self.stats.queries_served += 1
                self.stats.queries_grouped += 1
            else:
                self.stats.observe_run(result.metrics)
                self._sync_csr_stats()
        ticket._finish(result)

    def _grouped_run(self, ticket: QueryTicket, config: EngineConfig):
        """Run one query, coalescing with identical in-flight ones.

        Returns ``(result, grouped)`` where ``grouped`` marks a
        follower that shared a leader's engine run.  Grouping joins
        happen *before* admission: a follower consumes no run slot —
        sharing an answer is precisely how the tier survives a hot-key
        burst.  Only queries on the shared engine config group (an
        override's answer could differ in fragmentation-shaped ways).
        """
        grouper = self._grouper
        if grouper is None or config is not self.engine_config:
            return self._admit_and_execute(ticket, config), False
        key = grouper.key_for(ticket.graph, ticket.program, ticket.query,
                              ticket.request.program_kwargs)
        if key is None:  # unhashable query: run it ungrouped
            return self._admit_and_execute(ticket, config), False
        group, leader = grouper.lead_or_join(key)
        if leader:
            try:
                result = self._admit_and_execute(ticket, config)
            except BaseException as exc:
                grouper.finish(group, None, exc)
                raise
            grouper.finish(group, result)
            return result, False
        try:
            return group.wait(), True
        except QueryCancelled:
            if ticket.cancelled:
                raise
            # The *leader's* caller cancelled, not this one: its abort
            # must not take the followers down with it — re-run alone.
            return self._admit_and_execute(ticket, config), False

    def _admit_and_execute(self, ticket: QueryTicket,
                           config: EngineConfig):
        if self.admission is None:
            obs_events.emit("query.admitted", graph=ticket.graph,
                            program=ticket.program)
            return self._execute(ticket, config)
        with self.admission.admit(ticket.graph):
            obs_events.emit("query.admitted", graph=ticket.graph,
                            program=ticket.program)
            return self._execute(ticket, config)

    def _execute(self, ticket: QueryTicket, config: EngineConfig):
        prog = self.registry.create(ticket.program,
                                    **ticket.request.program_kwargs)
        frag = self._fragmentation_for(ticket.graph, config)
        glock = self._graph_lock(ticket.graph)
        cancel = ticket._cancel_event
        # A slow-query threshold implies tracing: a slow-log entry
        # without its span tree could not answer "where did it go".
        ctx = (TraceContext("query", program=ticket.program,
                            graph=ticket.graph,
                            ticket=ticket.ticket_id)
               if self.tracing or self.slow_queries is not None else None)

        def attempt():
            run_config, used = config, None
            if self.breaker is not None:
                configured = config.build()._resolve_backend().name
                used = self.breaker.resolve(ticket.graph, configured)
                if used != configured:
                    run_config = config.replace(backend=used)
            span = None
            if ctx is not None:
                span = ctx.root.child("engine.run")
                if used is not None:
                    span.tags["backend"] = used
            try:
                with glock.read():
                    result = run_config.build().run(
                        prog, ticket.query, fragmentation=frag,
                        cancel=cancel, trace=span)
            except WorkerProcessDied:
                # Infrastructure, not logic: feed the breaker.  Other
                # failures (bad queries, deadline misses) say nothing
                # about the backend's health.
                if used is not None:
                    self.breaker.record_failure(ticket.graph, used)
                raise
            finally:
                if span is not None:
                    span.finish()
            if used is not None:
                self.breaker.record_success(ticket.graph, used)
            return result

        if self.retry is None:
            result = attempt()
        else:
            def on_retry(attempt_index, exc):
                with self._lock:
                    self.stats.retries_total += 1
                    if attempt_index == 0:
                        self.stats.queries_retried += 1
                obs_events.emit("query.retried", graph=ticket.graph,
                                program=ticket.program,
                                attempt=attempt_index + 1,
                                error=type(exc).__name__)

            result = run_with_retry(attempt, self.retry, on_retry=on_retry)
        if ctx is not None:
            ctx.finish()
            result.trace = ctx.root
            self._note_slow(ticket, ctx.root)
        return result

    def _note_slow(self, ticket: QueryTicket, root) -> None:
        """Feed the slow-query log; counts and emits on threshold."""
        if self.slow_queries is None:
            return
        entry = self.slow_queries.offer(ticket.program, ticket.graph,
                                        ticket.query, root.duration_s,
                                        trace=root)
        if entry is not None:
            with self._lock:
                self.stats.queries_slow += 1
            obs_events.emit("query.slow", graph=ticket.graph,
                            program=ticket.program,
                            duration_s=root.duration_s,
                            threshold_s=self.slow_query_s)

    # ------------------------------------------------------------------
    # standing queries and updates
    # ------------------------------------------------------------------
    def watch(self, program: str, query: Any = None, *, graph: str,
              **program_kwargs) -> WatchHandle:
        """Register a standing query; its answer is maintained under
        :meth:`update` (and its ``insert_edges`` / ``delete_edges`` /
        ``set_weights`` sugar).

        Standing queries always run on the service's shared engine config
        and fragmentation, so one update batch serves all of them.
        """
        # The mutation lock spans initial run *and* registration: an
        # insert_edges batch either completes before the session's
        # initial run or sees the handle registered — it can never land
        # in between and be silently missed by this watcher.
        with self._mutation_lock(graph):
            prog = self.registry.create(program, **program_kwargs)
            frag = self._fragmentation_for(graph, self.engine_config)
            glock = self._graph_lock(graph)
            with glock.read():
                session = ContinuousQuerySession(
                    self.engine_config.build(), prog, query,
                    fragmentation=frag)
            handle = WatchHandle(next(self._watch_ids), graph, program,
                                 session, glock)
            with self._lock:
                self._watches.setdefault(graph, []).append(handle)
                self.stats.watches_started += 1
                self.stats.observe_run(session.metrics)
                self._sync_csr_stats()
        return handle

    def update(self, graph: str, delta: GraphDelta) -> List[WatchHandle]:
        """Apply an update batch — insertions, deletions, weight changes
        — to a named graph.

        The batch is normalized first (deduped, no-ops dropped); an
        empty or duplicate-only batch is a **true no-op**: nothing is
        mutated, no cache token or CSR epoch moves, no watcher runs.

        Otherwise the shared fragmentation is updated in place — border
        sets and ``G_P`` maintained, mirror copies retired under
        deletions, no re-partition — and every active watcher refreshes
        its answer: maintained on the bounded path when its program has
        the :class:`~repro.core.pie.Maintenance` hooks (a monotone batch
        with an empty affected region), recomputed otherwise.  Cached
        fragmentations built under *other* engine configs are
        invalidated (they would go stale) and lazily rebuilt on next
        use.  Returns the refreshed handles.
        """
        with self._mutation_lock(graph):
            with self._lock:
                if self._closed:
                    raise RuntimeError("service is closed")
                g = self._require_graph(graph)
                # Captured under the same lock hold as the closed
                # check: close() detaches the store atomically with
                # setting _closed, so a sink captured here is never
                # silently None for a batch close() will then flush.
                wal = self._wal_sink(graph)

            # Normalized outside the write lock: the mutation lock
            # already excludes every other writer, and concurrent
            # readers never mutate the graph.
            norm = delta.normalize(g)
            if not norm:
                return []
            return self._apply_batch(graph, norm, wal=wal, compact=True)

    def _apply_batch(self, graph: str, norm: NormalizedDelta, *,
                     wal=None, compact: bool = False
                     ) -> List[WatchHandle]:
        """Apply one already-normalized, non-empty batch: mutate the
        shared fragmentation (or bare graph), optionally WAL + compact,
        and fan the per-fragment deltas out to every active watcher.

        The one write path both roles share: the primary's
        :meth:`update` calls it with a WAL sink and compaction enabled;
        a :class:`~repro.replication.ReplicaService` calls it for every
        batch tailed off the primary's WAL — same fragmentation
        maintenance, same watcher fan-out, no re-logging.  Callers hold
        the graph's mutation lock.
        """
        with self._lock:
            handles = self._active_watches(graph)
            canon_key = self._cache_key(graph, self.engine_config)
            canon = self._frag_cache.get(canon_key)
            glock = self._graph_lock_locked(graph)
            g = self._require_graph(graph)
            for key in [k for k in self._frag_cache
                        if k[0] == graph and k != canon_key]:
                self._retire_fragmentation(self._frag_cache.pop(key))
                self.stats.cache_invalidations += 1

        deltas: List[Tuple[int, ...]] = []
        refreshed: List[WatchHandle] = []
        with glock.write():
            started = time.perf_counter()
            if canon is not None:
                touched = apply_delta(canon, norm, wal=wal)
            else:
                # No fragmentation yet (and hence no watchers):
                # mutate the base graph directly.
                norm.apply_to(g)
                touched = {}
                if wal is not None:
                    wal(norm, 0)
            applied = time.perf_counter()
            if compact and self.store is not None:
                # Fold an outgrown WAL into a fresh snapshot while
                # the write lock still excludes readers — the
                # snapshot must not observe a half-applied batch.
                # The canonical fragmentation rides along so a
                # restart can skip re-partitioning.
                self.store.maybe_compact(graph, g, fragmentation=canon,
                                         frag_key=list(canon_key[1:]))
            maintain_from = time.perf_counter()
            for handle in handles:
                # _refresh re-checks the handle: it may have been
                # cancelled since the snapshot above.
                cost = handle._refresh(touched)
                if cost is not None:
                    deltas.append(cost)
                    refreshed.append(handle)
            maintained = time.perf_counter()

        with self._lock:
            self.stats.updates_applied += 1
            wal_s = wal.seconds[0] if wal is not None else 0.0
            self.stats.update_wal_append_s += wal_s
            self.stats.update_apply_delta_s += applied - started - wal_s
            self.stats.update_compact_s += maintain_from - applied
            self.stats.update_maintain_s += maintained - maintain_from
            for cost in deltas:
                self.stats.observe_maintenance(*cost)
            self._sync_csr_stats()
            self._sync_store_stats()
        return refreshed

    def insert_edges(self, graph: str,
                     edges: Iterable[EdgeInsertion]) -> List[WatchHandle]:
        """Apply an insertion batch (:meth:`update` sugar).

        Re-inserting an existing edge with a lower weight is a weight
        decrease; with a higher weight, a weight increase.
        """
        return self.update(graph, GraphDelta.from_insertions(edges))

    def delete_edges(self, graph: str,
                     pairs: Iterable[Tuple[Node, Node]]
                     ) -> List[WatchHandle]:
        """Delete a batch of edges (:meth:`update` sugar)."""
        return self.update(graph, GraphDelta.from_deletions(pairs))

    def set_weights(self, graph: str,
                    triples: Iterable[EdgeInsertion]) -> List[WatchHandle]:
        """Reweight a batch of existing edges (:meth:`update` sugar)."""
        return self.update(graph, GraphDelta.from_weight_changes(triples))

    def watches(self, graph: Optional[str] = None) -> List[WatchHandle]:
        """Active standing queries, optionally for one graph."""
        with self._lock:
            names = [graph] if graph is not None else list(self._watches)
            return [h for n in names
                    for h in self._watches.get(n, []) if h.active]

    def _active_watches(self, graph: str) -> List[WatchHandle]:
        return [h for h in self._watches.get(graph, []) if h.active]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _require_graph(self, name: str) -> Graph:
        try:
            return self._graphs[name]
        except KeyError:
            raise ValueError(f"no graph loaded under {name!r}; "
                             f"available: {sorted(self._graphs)}") from None

    def _graph_lock(self, name: str) -> _RWLock:
        with self._lock:
            return self._graph_lock_locked(name)

    def _graph_lock_locked(self, name: str) -> _RWLock:
        lock = self._graph_locks.get(name)
        if lock is None:
            lock = self._graph_locks[name] = _RWLock()
        return lock

    def _mutation_lock(self, name: str) -> threading.RLock:
        with self._lock:
            lock = self._mutation_locks.get(name)
            if lock is None:
                lock = self._mutation_locks[name] = threading.RLock()
            return lock

    def _wal_sink(self, name: str):
        """The durability hook handed to :func:`apply_delta` — appends
        each applied batch to the graph's WAL (``None`` without a
        store).

        With a retry policy configured, a failed append is retried under
        it: :meth:`~repro.store.wal.DeltaWAL.append` truncates the log
        back to its last durable record before raising
        :exc:`~repro.store.wal.WALWriteError`, so a re-append never
        duplicates a half-written record.
        """
        if self.store is None:
            return None
        store = self.store
        # What the appends of this sink (one update batch) took: a cell
        # of its own, not an attribute ``sink`` reads off itself — that
        # closure is a reference cycle, one per batch, which only the
        # cycle collector ever frees.
        seconds = [0.0]

        def sink(norm, seq: int) -> None:
            start = time.perf_counter()
            if self.retry is not None:
                run_with_retry(lambda: store.append_delta(name, norm, seq),
                               self.retry)
            else:
                store.append_delta(name, norm, seq)
            seconds[0] += time.perf_counter() - start
        sink.seconds = seconds
        return sink

    def _on_breaker_transition(self, kind: str, graph: str,
                               src: str, dst: str) -> None:
        with self._lock:
            if kind == "degrade":
                self.stats.backend_degradations += 1
            elif kind == "probe":
                self.stats.backend_probes += 1
            elif kind == "restore":
                self.stats.backend_restorations += 1

    def _sync_store_stats(self, store: Optional[GraphStore] = None) -> None:
        """Mirror what :class:`ServiceMetrics` names of the metrics of
        ``store`` (default: the attached one)."""
        if store is None:
            store = self.store
        if store is not None:
            for name, value in vars(store.metrics).items():
                if hasattr(self.stats, name):
                    setattr(self.stats, name, value)

    def _flush_store(self, store: GraphStore) -> None:
        """Graceful-shutdown checkpoint: fold each graph's pending WAL
        into a fresh snapshot, bundling the canonical fragmentation so
        the next warm start skips both replay and re-partitioning.

        A crash skips this — then warm start recovers via snapshot + WAL
        replay and re-partitions lazily, which is exactly the degraded
        mode the WAL exists for.

        Each graph is flushed under its mutation lock: an in-flight
        ``update()`` finishes (WAL append included) before its graph is
        snapshotted, so the shutdown checkpoint can never capture a
        half-applied batch.  (``update`` itself refuses to start once
        ``close()`` has marked the service closed.)
        """
        with self._lock:
            names = [name for name in self._graphs if name in store]
        for name in names:
            with self._mutation_lock(name):
                with self._lock:
                    g = self._graphs.get(name)
                    if g is None:  # unloaded since the snapshot above
                        continue
                    canon_key = self._cache_key(name, self.engine_config)
                    canon = self._frag_cache.get(canon_key)
                    key = list(canon_key[1:])
                stored_key = store.fragmentation_key(name)
                dirty = store.has_pending_wal(name)
                frag_missing = canon is not None and stored_key != key
                if dirty or frag_missing:
                    store.persist_graph(name, g, fragmentation=canon,
                                        frag_key=key)
        with self._lock:
            # self.store is already detached (close() owns it)
            self._sync_store_stats(store)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """Snapshot every :class:`ServiceMetrics` field into a
        :class:`~repro.obs.registry.MetricsRegistry`, plus derived
        rates and live gauges.  The snapshot is reflection-driven, so a
        counter added to ``ServiceMetrics`` later is exported without
        touching this method."""
        with self._lock:
            self._sync_csr_stats()
            self._sync_store_stats()
            reg = MetricsRegistry.from_object(
                self.stats,
                gauge_fields=("shm_segments_active", "shm_bytes_mapped",
                              "skew_ratio_max"))
            reg.gauge("repro_cache_hit_rate").set(self.stats.cache_hit_rate)
            reg.gauge("repro_maintained_ratio").set(
                self.stats.maintained_ratio)
            reg.gauge("repro_graphs_loaded").set(float(len(self._graphs)))
            reg.gauge("repro_watches_active").set(float(
                sum(len(v) for v in self._watches.values())))
        return reg

    def expose_metrics(self) -> str:
        """Prometheus-style text exposition of the service's metrics."""
        return self.metrics_registry().expose_text()

    def debug_report(self) -> Dict[str, Any]:
        """One-call, JSON-serializable operational dump: graphs and
        watches, the full metrics snapshot, the per-layer table of the
        always-on phase timers (seconds and share of served wall clock:
        workers reading reports, coordinator fold / compose / byte
        accounting, assemble; an ``update`` row of seconds per applied
        batch: ``apply_delta_s``, ``wal_append_s``, ``compact_s``,
        ``maintain_s`` and the deferred ``assemble_s``; a ``graph`` row:
        snapshots built / spliced, tables carried / rebuilt; a ``store``
        row of seconds per snapshot written and per loaded), recent
        structured events (with per-kind totals), the slow-query log
        with span trees, straggler diagnostics, and breaker transitions."""
        registry = self.metrics_registry()
        log = obs_events.active()
        with self._lock:
            graphs = {name: {"nodes": g.num_nodes, "edges": g.num_edges,
                             "watches": len(self._watches.get(name, ()))}
                      for name, g in self._graphs.items()}
            breaker_transitions = (list(self.breaker.transitions)
                                   if self.breaker is not None else [])
        hist = self.stats.worker_time_hist
        wall = self.stats.wall_clock_s_total
        layers = {
            name[:-2]: {"seconds": getattr(self.stats, name),
                        "share": (getattr(self.stats, name) / wall
                                  if wall else 0.0)}
            for name in PHASE_FIELDS}
        # the update path, per applied batch (the standing answers'
        # assemble is paid by the first read after a batch, not by it)
        batches = self.stats.updates_applied
        layers["update"] = {"batches": batches, **{
            name.split("_", 1)[1]: (getattr(self.stats, name) / batches
                                    if batches else 0.0)
            for name in UPDATE_PHASE_FIELDS}}
        stats = self.stats
        # the read path: snapshots spliced vs built, tables derived
        layers["graph"] = {name: getattr(stats, name) for name in (
            "csr_snapshots_built", "csr_snapshots_patched",
            "derived_tables_rebuilt")}
        written, loaded = stats.snapshots_written, stats.snapshots_loaded
        layers["store"] = {
            "snapshots_written": written, "snapshots_loaded": loaded,
            "hash_s": stats.snapshot_hash_s / max(written, 1),
            "pack_s": stats.snapshot_pack_s / max(written, 1),
            "io_s": stats.snapshot_io_s / max(written, 1),
            "decode_s": stats.snapshot_decode_s / max(loaded, 1),
            "verify_s": stats.snapshot_verify_s / max(loaded, 1)}
        return {
            "graphs": graphs,
            "metrics": registry.to_json(),
            "layers": layers,
            "events": {"counts": log.counts(),
                       "recent": [e.to_dict() for e in log.tail(50)]},
            "slow_queries": (self.slow_queries.to_dicts()
                             if self.slow_queries is not None else []),
            "stragglers": {
                "skew_ratio_max": self.stats.skew_ratio_max,
                "straggler_steps": self.stats.straggler_steps,
                "worker_time_p50_s": hist.quantile(0.5),
                "worker_time_p99_s": hist.quantile(0.99),
            },
            "breaker_transitions": breaker_transitions,
        }

    def close(self, *, flush: bool = True) -> None:
        """Drain the engine pool, checkpoint the store (fold pending
        WALs + canonical fragmentations into fresh snapshots) and refuse
        further queries.

        ``flush=False`` skips the shutdown checkpoint — the store is
        left exactly as the write path maintained it (snapshot + WAL),
        which is also what a crash leaves behind; tests and benchmarks
        use it to exercise the WAL-replay recovery path.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            store, self.store = self.store, None
        if pool is not None:
            pool.shutdown(wait=True)
        if store is not None:
            try:
                if flush:
                    self._flush_store(store)
            finally:
                store.close()
        # Retire the cached fragmentations *after* the flush (which
        # still reads them): unlinks their published shared-memory
        # segments so a closed service leaves nothing in /dev/shm.
        with self._lock:
            cache, self._frag_cache = self._frag_cache, {}
            for frag in cache.values():
                self._retire_fragmentation(frag)

    def __enter__(self) -> "GrapeService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            self._sync_csr_stats()
            return (f"GrapeService(graphs={sorted(self._graphs)}, "
                    f"programs={len(self.registry)}, "
                    f"cached_fragmentations={len(self._frag_cache)}, "
                    f"watches={sum(len(v) for v in self._watches.values())},"
                    f" {self.stats!r})")
