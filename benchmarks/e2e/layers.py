"""Per-layer metrics (``--trace 1``): every layer timed from outside.

The benchmark calls each layer's public functions on the workload's own
inputs and times the calls with the same host-normalised clock as the
end-to-end run, so a layer number and the end-to-end number it should move
are in the same unit.  Nothing here reaches into the program: spans inside
``repro`` are read only where the program already exposes them
(``ticket.grape_result.trace`` of a ``tracing=True`` service).

Order of a traced run — chosen so that every *count* is taken after a
fixed amount of work and repeats exactly from run to run:

1. set-up once, standing queries, oracle check;
2. layers on the pristine graph: graph, partition, kernels, sequential,
   core.engine beside ``play()`` (service overhead), the traced pass,
   store snapshots, runtime (process workload only);
3. a shadow stack — own graph copy, own fragmentation, own sessions, own
   WAL — fed a fixed number of update batches: core.updates and store.wal;
4. ``FIXED_ROUNDS`` rounds of the end-to-end loop (the ``raw.*``
   diagnostics and the ratios against end-to-end numbers), then the
   service's counters are read; ``FIXED_RESTARTS`` restarts; oracle check.

The schedule is fixed work, not fixed time: ``--seconds`` does not stretch
a traced run (it takes about as long as an untraced one at the contract's
``run_seconds``).  Its ``raw.*`` numbers therefore rest on few samples
(``raw.<metric>_n`` says how many); the untraced run's, on all of its
samples, are in its ``DETAIL`` line and in ``results/BASELINE.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Dict, List

import numpy as np

from harness import (PAGERANK_QUERY, READ_CLASSES, RESULTS_DIR, Metrics, Run,
                     query_for)
from hostclock import host_fingerprint
from oracles import check_answer
from workloads import CYCLE, GRAPH_NAME, NUM_FRAGMENTS

from repro import ContinuousQuerySession, GrapeService, get_strategy
from repro.core.updates import apply_delta
from repro.graph.csr import CSRGraph
from repro.kernels import (csr_bfs, csr_components, csr_pagerank_push,
                           csr_sssp)
from repro.partition.base import cut_edges, replication_factor
from repro.pie_programs import (BFSProgram, CCProgram, PageRankProgram,
                                SSSPProgram)
from repro.runtime import shm
from repro.runtime.executors import ProcessBackend
from repro.sequential import connected_components, sssp_distances
from repro.store import DeltaWAL, load_snapshot, save_snapshot

PROGRAMS = {"sssp": SSSPProgram, "bfs": BFSProgram, "cc": CCProgram,
            "pagerank": PageRankProgram}
#: rounds of the end-to-end loop after which service counters are read,
#: then restarts: four samples of every read and of the restart (the
#: fewest with which ``raw.<metric>_tail`` is not the median), two of
#: every update batch
FIXED_ROUNDS = 2
FIXED_RESTARTS = 4
#: balanced update cycles (three batches each) fed to the shadow stack:
#: one period
SHADOW_CYCLES = 4

class Layers:
    def __init__(self, run: Run):
        self.run = run
        self.clock = run.clock
        self.workload = run.workload
        self.reps = 1 if run.smoke else 2
        self.graph = run.graph
        self.strategy = get_strategy(self.workload.partition)
        self.out: Metrics = {}
        self.program_traces: Dict[str, Any] = {}

    # -- helpers -------------------------------------------------------
    def put(self, name: str, value: float, unit: str) -> None:
        self.out[name] = (float(value), unit)

    def time(self, metric: str, fn: Callable[[], Any], slot: Any = 0) -> Any:
        return self.run.timed(metric, fn, slot)

    def repeat(self, metric: str, fn: Callable[[], Any]) -> Any:
        result = None
        for _ in range(self.reps):
            result = self.time(metric, fn)
        return result

    def put_timed(self, name: str) -> None:
        """Report a timed metric as the mean of its slot medians."""
        self.put(name, self.clock.slot_median_mean(name), "ms")

    def sources(self):
        return list(enumerate(self.run.slots))

    # -- graph / partition ---------------------------------------------
    def graph_and_partition(self) -> None:
        g = self.graph
        self.csr = self.repeat("graph.csr.build_ms",
                               lambda: CSRGraph.from_graph(g))
        self.repeat("graph.content_hash_ms", g.content_hash)
        assignment = self.repeat(
            "partition.assign_ms",
            lambda: self.strategy.assign(g, NUM_FRAGMENTS))
        self.frag = self.repeat(
            "partition.build_ms",
            lambda: self.strategy.partition(g, NUM_FRAGMENTS))
        for name in ("graph.csr.build_ms", "graph.content_hash_ms",
                     "partition.assign_ms", "partition.build_ms"):
            self.put_timed(name)
        self.put("partition.border_entries",
                 sum(len(f.border_nodes) for f in self.frag), "count")
        self.put("partition.cut_edges", cut_edges(g, assignment), "count")
        self.put("partition.replication_factor",
                 replication_factor(self.frag), "x")

    # -- kernels / sequential ------------------------------------------
    def floors(self) -> None:
        """Whole-graph CSR kernels (the ``bench_kernels.py`` code path)
        and the plain sequential algorithms on the same sources."""
        csr, g = self.csr, self.graph
        n = csr.n
        damping = PAGERANK_QUERY.damping
        teleport = (1.0 - damping) / n

        def pagerank() -> np.ndarray:
            ids = np.arange(n, dtype=np.int64)
            rank = np.full(n, 1.0 / n)
            for _ in range(PAGERANK_QUERY.max_iterations):
                rank = teleport + damping * csr_pagerank_push(csr, rank, ids)
            return rank

        for _ in range(self.reps):
            for i, s in self.sources():
                sid = csr.id_of[s]
                self.time("kernels.sssp_ms",
                          lambda: csr_sssp(csr, {sid: 0.0}), i)
                self.time("kernels.bfs_ms", lambda: csr_bfs(csr, {sid: 0}), i)
                self.time("sequential.sssp_ms",
                          lambda: sssp_distances(g, s), i)
            self.time("kernels.cc_ms", lambda: csr_components(csr))
            self.time("kernels.pagerank_ms", pagerank)
            self.time("sequential.cc_ms", lambda: connected_components(g))
        for name in ("kernels.sssp_ms", "kernels.bfs_ms", "kernels.cc_ms",
                     "kernels.pagerank_ms", "sequential.sssp_ms",
                     "sequential.cc_ms"):
            self.put_timed(name)

    # -- core.engine beside the service ---------------------------------
    def engine_and_service(self) -> None:
        """``EngineConfig.build().run(...)`` on the benchmark's own
        fragmentation, interleaved with ``play()`` of the same query on
        the pristine service: the difference is the service layer."""
        run = self.run
        config = self.workload.engine_config(run.backend)
        serial = self.workload.engine_config("serial")
        process = self.workload.backend == "process"
        pool = self.workload.num_workers if process else 1
        counts: Dict[str, Dict[str, List[float]]] = {}
        own: Dict[str, Dict[str, List[float]]] = {}

        def engine_run(cls: str, source: Any, slot: int, cfg=config,
                       metric: str = "") -> Any:
            """One engine run; returns its ``RunMetrics``.  Runs of the
            workload's own config (no ``metric``) are also counted."""
            result = self.time(
                metric or f"core.engine.{cls}_ms",
                lambda: cfg.build().run(PROGRAMS[cls](),
                                        query_for(cls, source),
                                        fragmentation=self.frag), slot)
            if result is None:
                return None
            m = result.metrics
            if metric:
                return m
            c = counts.setdefault(cls, {})
            c.setdefault("supersteps", []).append(m.supersteps)
            c.setdefault("comm_bytes", []).append(m.comm_bytes)
            c.setdefault("comm_messages", []).append(m.comm_messages)
            c.setdefault("pipe_bytes", []).append(m.pipe_bytes)
            factor = self.clock.last_factor * 1e3
            worker = m.total_compute_s / pool
            o = own.setdefault(cls, {})
            o.setdefault("worker", []).append(worker * factor)
            o.setdefault("coordinator", []).append(
                (m.wall_clock_s - worker) * factor)
            return m

        def same_as_serial(cls: str, slot: int, pooled: Any,
                           serial_run: Any) -> None:
            """The executor must not change what the engine does: the
            serial backend on this fragmentation is ``road-lowcut``."""
            if pooled is None or serial_run is None:
                return  # the run that raised is already a failed operation
            run.attempted += 1
            differ = [f"{key} {getattr(pooled, key)} != "
                      f"{getattr(serial_run, key)}"
                      for key in ("supersteps", "comm_bytes", "comm_messages")
                      if getattr(pooled, key) != getattr(serial_run, key)]
            if differ:
                run.fail(f"{cls} slot {slot}: process backend != serial "
                         f"backend: {', '.join(differ)}")

        # untimed: builds the fragments' CSR snapshots (and ships them to
        # the pool), which the service's fragmentation already has
        config.build().run(SSSPProgram(), run.slots[0],
                           fragmentation=self.frag)
        for rep in range(self.reps):
            for cls in READ_CLASSES:
                slots = (self.sources() if cls in ("sssp", "bfs")
                         else [(0, None)])
                for i, source in slots:
                    pooled = engine_run(cls, source, i)
                    self.time(f"play.{cls}_ms",
                              lambda: run.play(cls, source), i)
                    # every SSSP slot (the per-superstep overhead needs
                    # them), one query of each other class
                    if process and (cls == "sssp" or rep == i == 0):
                        same_as_serial(cls, i, pooled, engine_run(
                            cls, source, i, serial,
                            f"core.engine.{cls}_serial_ms"))

        for cls in READ_CLASSES:
            self.put_timed(f"core.engine.{cls}_ms")
            # first repetition only: counts are identical in every one
            per_rep = len(counts[cls]["supersteps"]) // self.reps
            for key, unit in (("supersteps", "count"),
                              ("comm_bytes", "bytes"),
                              ("comm_messages", "count")):
                self.put(f"core.engine.{cls}_{key}",
                         statistics.fmean(counts[cls][key][:per_rep]), unit)
            floor = self.out[f"kernels.{cls}_ms"][0]
            played = self.clock.slot_median_mean(f"play.{cls}_ms")
            self.put(f"overhead.{cls}_x", played / floor if floor else 0.0,
                     "x")
        for cls in ("sssp", "pagerank"):
            for part in ("worker", "coordinator"):
                self.put(f"core.engine.{cls}_{part}_ms",
                         statistics.median(own[cls][part]), "ms")
        for cls in ("sssp", "cc"):
            self.put(f"service.overhead_{cls}_ms",
                     self.clock.slot_median_mean(f"play.{cls}_ms")
                     - self.out[f"core.engine.{cls}_ms"][0], "ms")

        steps = self.out["core.engine.sssp_supersteps"][0]
        over = 0.0
        if process and steps:
            over = (self.out["core.engine.sssp_ms"][0]
                    - self.clock.slot_median_mean(
                        "core.engine.sssp_serial_ms")) / steps
        self.put("runtime.executors.per_superstep_overhead_ms", over, "ms")
        self.put("runtime.pipe_bytes_per_query",
                 statistics.fmean(
                     counts["sssp"]["pipe_bytes"][-len(run.slots):]),
                 "bytes")  # last repetition: fragments already shipped

    # -- the program's own spans ---------------------------------------
    def traced_pass(self) -> None:
        """Repeat the SSSP and PageRank reads on a ``tracing=True`` service
        and read the program's span tree; the untraced side of the
        overhead ratio is the ``play()`` samples taken just before."""
        run = self.run
        traced = GrapeService(engine=self.workload.engine_config(run.backend),
                              grouping=False, tracing=True)
        parts: Dict[str, Dict[str, List[float]]] = {}
        try:
            traced.load_graph(GRAPH_NAME, self.graph)
            run.play("sssp", run.slots[0], traced)  # partition, CSR, ship
            for _ in range(self.reps):
                for cls in ("sssp", "pagerank"):
                    slots = (self.sources() if cls == "sssp"
                             else [(0, None)])
                    for i, source in slots:
                        ticket = self.time(
                            f"traced.{cls}_ms",
                            lambda: run.play(cls, source, traced), i)
                        if ticket is None:
                            continue
                        root = ticket.grape_result.trace
                        self.program_traces[cls] = root.to_dict()
                        self.split_spans(root, parts.setdefault(cls, {}))
        finally:
            traced.close()
        for cls in ("sssp", "pagerank"):
            for part in ("session_open", "superstep_self", "worker",
                         "assemble", "unattributed"):
                values = parts.get(cls, {}).get(part, [0.0])
                self.put(f"trace.{cls}_{part}_ms",
                         statistics.median(values), "ms")
        # SSSP only: eight slot-matched pairs; PageRank has two samples
        traced_ms = self.clock.slot_median_mean("traced.sssp_ms")
        plain_ms = self.clock.slot_median_mean("play.sssp_ms")
        self.put("obs.tracing_overhead_pct",
                 100.0 * (traced_ms / plain_ms - 1.0) if plain_ms else 0.0,
                 "%")

    def split_spans(self, root, into: Dict[str, List[float]]) -> None:
        """A superstep's self time (its span minus its workers, which on
        the process backend run ``num_workers`` at a time) is the
        coordinator's share of that superstep; what no span below the
        query's root covers is reported as unattributed."""
        factor = self.clock.last_factor * 1e3
        pool = (self.workload.num_workers
                if self.workload.backend == "process" else 1)
        steps = root.find("superstep")
        worker = sum(w.duration_s for s in steps for w in s.children
                     if w.name == "worker") / pool
        total = sum(s.duration_s for s in steps)
        opened = sum(s.duration_s for s in root.find("session.open"))
        assembled = sum(s.duration_s for s in root.find("assemble"))
        for part, seconds in (
                ("session_open", opened), ("assemble", assembled),
                ("worker", worker), ("superstep_self", total - worker),
                ("unattributed",
                 root.duration_s - opened - total - assembled)):
            into.setdefault(part, []).append(seconds * factor)

    # -- store: snapshots ----------------------------------------------
    def snapshots(self) -> None:
        path = self.run.scratch / "layer.snapshot"
        size = self.repeat(
            "store.snapshot.write_ms",
            lambda: save_snapshot(path, self.graph, fragmentation=self.frag))
        self.repeat("store.snapshot.load_ms", lambda: load_snapshot(path))
        self.put_timed("store.snapshot.write_ms")
        self.put_timed("store.snapshot.load_ms")
        self.put("store.snapshot.bytes_per_edge",
                 (size or 0) / max(1, self.graph.num_edges), "bytes")

    # -- runtime (process workload only) --------------------------------
    def runtime(self) -> None:
        names = ("runtime.executors.open_cold_ms",
                 "runtime.executors.open_warm_ms",
                 "runtime.shm.publish_ms", "runtime.shm.attach_ms")
        if self.workload.backend != "process":
            for name in names:
                self.put(name, 0.0, "ms")
            return
        query = self.run.slots[0]
        workers = self.workload.num_workers
        for _ in range(self.reps):
            frag = self.strategy.partition(self.graph, NUM_FRAGMENTS)
            backend = ProcessBackend()
            try:
                for name in names[:2]:  # cold pool + ship, then warm lease
                    session = self.time(
                        name, lambda: backend.open(SSSPProgram(), query, frag,
                                                   num_workers=workers))
                    if session is not None:
                        session.close()
            finally:
                backend.close()
        provider = shm.provider()
        if provider is not None:
            piece = self.frag[0]
            snapshot = piece.csr()
            for _ in range(self.reps):
                published = self.time(
                    names[2], lambda: shm.publish_fragment(
                        provider, 0, 0, 0, piece, snapshot))
                if published is None:
                    continue
                segment, descriptor = published
                try:
                    self.time(names[3],
                              lambda: shm.attach_fragment(descriptor))
                finally:
                    provider.unlink(segment.name)
        for name in names:
            self.put_timed(name)

    # -- core.updates + store.wal on a shadow stack ----------------------
    def shadow_updates(self) -> None:
        """Feed a fixed number of batches to a private copy of the stack:
        normalize, ``apply_delta`` on a watch-less fragmentation, then the
        two standing sessions, then a private WAL.  The batches are the
        first of the period the service is fed later in the run."""
        run = self.run
        batches = len(CYCLE) * (1 if run.smoke else SHADOW_CYCLES)
        shadow = self.graph.copy()
        frag = self.strategy.partition(shadow, NUM_FRAGMENTS)
        engine = self.workload.engine_config("serial").build
        sessions = {
            "sssp": ContinuousQuerySession(engine(), SSSPProgram(),
                                           run.slots[0], fragmentation=frag),
            "cc": ContinuousQuerySession(engine(), CCProgram(), None,
                                         fragmentation=frag),
        }
        wal_path = run.scratch / "layer.wal"
        ops = 0
        with DeltaWAL(wal_path) as wal:
            for seq, (kind, delta) in enumerate(run.batches.period[:batches]):
                ops += len(delta)
                # the steps of one batch take a few milliseconds each and
                # share one calibration bracket
                with self.clock.bracket() as bracket:
                    def step(metric: str, fn: Callable[[], Any]) -> Any:
                        return run.attempt(
                            metric, lambda: bracket.run(metric, fn))

                    norm = step("graph.delta.normalize_ms",
                                lambda: delta.normalize(shadow))
                    touched = step(f"core.updates.apply_delta_{kind}_ms",
                                   lambda: apply_delta(frag, norm))
                    for name, session in sessions.items():
                        step(f"core.updates.maintain_{name}_ms",
                             lambda: session.apply_update(touched))
                    step("store.wal.append_ms",
                         lambda: wal.append(seq + 1, norm))
            wal_bytes = wal.size_bytes

        def replay() -> int:
            with DeltaWAL(wal_path) as log:
                return sum(1 for _ in log.replay())

        replayed = self.time("store.wal.replay_ms", replay)
        owner = frag.gp.owner
        for name, session in sessions.items():
            run.attempted += 1
            if not check_answer(name, session.query, session.answer, shadow,
                                owner):
                run.fail(f"shadow {name} session differs from oracle")

        for name in ("graph.delta.normalize_ms",
                     "core.updates.apply_delta_insert_ms",
                     "core.updates.apply_delta_mixed_ms",
                     "core.updates.maintain_sssp_ms",
                     "core.updates.maintain_cc_ms", "store.wal.append_ms"):
            self.put(name, self.clock.median(name), "ms")
        totals = [s.metrics for s in sessions.values()]
        for field in ("incremental_maintained", "partial_resets",
                      "fallback_reruns"):
            self.put(f"core.updates.{field}",
                     sum(getattr(m, field) for m in totals), "count")
        self.put("core.updates.affected_vertices_per_batch",
                 sum(m.affected_vertices for m in totals) / batches, "count")
        self.put("store.wal.bytes_per_op", wal_bytes / max(1, ops), "bytes")
        self.put("store.wal.replay_ms_per_batch",
                 self.clock.median("store.wal.replay_ms")
                 / max(1, replayed or batches), "ms")

    # -- counters after a fixed amount of service work -------------------
    def service_counters(self) -> None:
        stats = self.run.service.stats
        store = self.run.service.store
        lookups = stats.cache_hits + stats.cache_misses
        self.put("graph.csr.rebuilds", stats.csr_snapshots_built, "count")
        self.put("graph.csr.invalidations",
                 stats.csr_snapshot_invalidations, "count")
        self.put("service.frag_cache_hit_share",
                 stats.cache_hits / lookups if lookups else 0.0, "share")
        self.put("store.compactions", store.metrics.compactions, "count")
        process = self.workload.backend == "process"
        for name, value, unit in (
                ("runtime.fragment_bytes_shipped",
                 stats.fragment_bytes_shipped, "bytes"),
                ("runtime.delta_bytes_shipped", stats.delta_bytes_shipped,
                 "bytes"),
                ("runtime.shm.bytes_mapped", stats.shm_bytes_mapped, "bytes"),
                ("runtime.shm_fallbacks", stats.shm_fallbacks, "count")):
            self.put(name, value if process else 0, unit)

    # -- diagnostics ----------------------------------------------------
    def diagnostics(self) -> None:
        run = self.run
        append_ms = self.out["store.wal.append_ms"][0]
        update_ms = self.clock.slot_median_mean("update_insert_ms")
        self.put("store.update_share_pct",
                 100.0 * append_ms / update_ms if update_ms else 0.0, "%")
        calib = self.clock.calib_stats()
        self.put("host.calib_p50_ms", calib["calib_p50_ms"], "ms")
        self.put("host.calib_iqr_pct", calib["calib_iqr_pct"], "%")
        self.put("host.nproc", host_fingerprint()["nproc"], "count")
        self.put("workload.generate_s", run.generate_s, "s")
        self.out.update(run.raw_diagnostics())
        self.put("failed_ops_share", run.failed / max(1, run.attempted),
                 "share")

    def write_trace(self) -> None:
        """Benchmark-side spans (one per call into a layer, grouped under
        phase spans) and the program's span tree of one traced SSSP and
        one traced PageRank query.  A smoke run writes nothing: it would
        replace the trace of a real run."""
        if self.run.smoke:
            return
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"trace_{self.workload.name}.json"
        document = {
            "workload": self.workload.name, "seed": self.run.seed,
            "benchmark_spans": [s.to_dict() for s in self.clock.spans],
            "program_spans": self.program_traces,
        }
        path.write_text(json.dumps(document) + "\n", encoding="utf-8")


def measure_layers(run: Run) -> Metrics:
    layers = Layers(run)
    started = time.perf_counter()
    run.phase("setup", run.setup, 1)
    run.phase("watch", run.start_watches)
    run.phase("verify", run.verify, "after set-up")
    run.phase("graph+partition", layers.graph_and_partition)
    run.phase("kernels+sequential", layers.floors)
    run.phase("core.engine+service", layers.engine_and_service)
    run.phase("traced", layers.traced_pass)
    run.phase("store.snapshot", layers.snapshots)
    run.phase("runtime", layers.runtime)
    run.phase("shadow-updates", layers.shadow_updates)
    run.phase("rounds", run.run_rounds, 0.0, FIXED_ROUNDS)
    layers.service_counters()
    run.phase("restart", run.restarts, 1 if run.smoke else FIXED_RESTARTS)
    run.phase("verify", run.verify, "after restart")
    run.phases_s["total"] = time.perf_counter() - started
    run.close()
    layers.diagnostics()
    layers.write_trace()
    return layers.out
