"""The benchmark run: services, closed loop, estimators.

:class:`Run` owns everything one invocation builds — the generated graph
and update batches, the durable service (and, on the process workload,
its worker pool), the scratch directory, the host-normalised clock and
the attempted/failed operation counts.  ``bench_e2e.py`` is the command
line around it; ``layers.py`` adds the per-layer measurements of a traced
run.

Importing this module puts the checkout's ``src/`` on ``sys.path`` (and
refuses to go on without it): the benchmark measures the program in the
checkout it sits in, never an installed copy.
"""

from __future__ import annotations

import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench_e2e: no program to measure: {ROOT / 'src' / 'repro'} "
             "is missing (run from a checkout of the repository)")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from hostclock import (CALIB_CALLS_PER_SIDE, HOST_NOISY_IQR_PCT,  # noqa: E402
                       HostClock, host_fingerprint)
from oracles import check_answer  # noqa: E402
from workloads import (CYCLE, GRAPH_NAME, PERIOD_CYCLES,  # noqa: E402
                       READ_SLOTS, BatchGen, Workload, graph_digest,
                       read_slots)

from repro import GrapeService  # noqa: E402
from repro.pie_programs import PageRankQuery  # noqa: E402
from repro.runtime.executors import ProcessBackend  # noqa: E402

RESULTS_DIR = HERE / "results"
WORK_DIR = HERE / ".work"

PAGERANK_QUERY = PageRankQuery(max_iterations=5)
READ_CLASSES = ("sssp", "bfs", "cc", "pagerank")
#: SSSP/BFS slots visited per round
SLOTS_PER_ROUND = 2
#: fresh-service repetitions behind ``setup_s`` and ``warm_restart_s``
SETUP_REPS = 7
RESTART_REPS = 7

#: name -> unit, in print order; every workload reports all of them
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "sssp_ms": "ms",
    "bfs_ms": "ms",
    "cc_ms": "ms",
    "pagerank_ms": "ms",
    "update_insert_ms": "ms",
    "update_mixed_ms": "ms",
    "read_after_write_ms": "ms",
    "warm_restart_s": "s",
    "peak_rss_mb": "MB",
}
#: metrics whose every sample repeats one input: the estimate is the median
#: sample (the rest have slots: read sources, recurring update batches)
POOLED = ("setup_s", "warm_restart_s")
#: the eight latency metrics that also get raw (un-normalised) diagnostics
LATENCY_METRICS = ("sssp_ms", "bfs_ms", "cc_ms", "pagerank_ms",
                   "update_insert_ms", "update_mixed_ms",
                   "read_after_write_ms", "warm_restart_s")


Metrics = Dict[str, Tuple[float, str]]


def query_for(program: str, source: Any) -> Any:
    if program in ("sssp", "bfs"):
        return source
    return PAGERANK_QUERY if program == "pagerank" else None


class Run:
    """One benchmark run of one workload: owns the services it builds,
    the scratch directory, the clock and the operation counts."""

    def __init__(self, workload: Workload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.clock = HostClock(1 if smoke else CALIB_CALLS_PER_SIDE)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        WORK_DIR.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                             dir=WORK_DIR))
        start = time.perf_counter()
        self.graph = workload.make_graph(smoke)
        self.generate_s = time.perf_counter() - start
        self.graph_digest = graph_digest(self.graph)
        self.slots = read_slots(self.graph, 2 if smoke else READ_SLOTS)
        self.batches = BatchGen(self.graph, seed, workload.weight_range)
        self.slot_order = random.Random(seed).sample(range(len(self.slots)),
                                                     len(self.slots))
        self.service: Optional[GrapeService] = None
        self.backend: Optional[ProcessBackend] = None
        self.store_dir: Optional[Path] = None
        self.watches: List[Tuple[str, Any, Any]] = []
        self.rounds = 0
        self.phases_s: Dict[str, float] = {"generate": self.generate_s}

    # -- bookkeeping ---------------------------------------------------
    def attempt(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one operation of the workload; an exception counts as a
        failed operation and yields ``None``."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # the loop must survive to report it
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def timed(self, metric: str, fn: Callable[[], Any], slot: Any = 0) -> Any:
        return self.attempt(metric,
                            lambda: self.clock.timed(metric, fn, slot=slot))

    def phase(self, name: str, fn: Callable[..., Any], *args) -> Any:
        """Run one phase of the run and keep its wall time (a diagnostic
        of where the run's own time budget goes)."""
        start = time.perf_counter()
        span = self.clock.open_phase(name)
        try:
            return fn(*args)
        finally:
            self.clock.close_phase(span)
            self.phases_s[name] = (self.phases_s.get(name, 0.0)
                                   + time.perf_counter() - start)

    # -- service lifecycle ---------------------------------------------
    def new_backend(self) -> Optional[ProcessBackend]:
        return ProcessBackend() if self.workload.backend == "process" else None

    def open_service(self, store_dir: Path,
                     backend: Optional[ProcessBackend]) -> GrapeService:
        return GrapeService(
            engine=self.workload.engine_config(backend),
            store_dir=store_dir,
            store_compact_threshold=self.workload.compact_threshold,
            grouping=False)

    def play(self, program: str, source: Any = None,
             service: Optional[GrapeService] = None):
        return (service or self.service).play(
            program, query_for(program, source), graph=GRAPH_NAME)

    def setup(self, reps: int) -> None:
        """``setup_s``: construct a durable service, register the graph
        and answer the first SSSP and the first CC query — partitioning,
        CSR snapshots, the first snapshot write and (process backend) a
        cold worker pool included.  Every repetition starts from an empty
        store and a new pool; the last one stays as the run's service."""
        for rep in range(reps):
            store_dir = self.scratch / f"store-{rep}"
            box: Dict[str, Any] = {}

            def build() -> None:
                box["backend"] = self.new_backend()
                svc = box["service"] = self.open_service(store_dir,
                                                         box["backend"])
                svc.load_graph(GRAPH_NAME, self.graph)
                self.play("sssp", self.slots[0], svc)
                self.play("cc", service=svc)

            self.timed("setup_s", build)
            if rep < reps - 1:
                self.discard(box.get("service"), box.get("backend"))
                shutil.rmtree(store_dir, ignore_errors=True)
            else:
                self.service, self.backend = box["service"], box["backend"]
                self.store_dir = store_dir
        if self.service is None:
            raise RuntimeError("set-up failed; nothing to measure")

    @staticmethod
    def discard(service: Optional[GrapeService],
                backend: Optional[ProcessBackend]) -> None:
        if service is not None:
            service.close(flush=False)
        if backend is not None:
            backend.close()

    def start_watches(self) -> None:
        for program in self.workload.watches:
            query = query_for(program, self.slots[0])
            handle = self.attempt(
                f"watch {program}",
                lambda: self.service.watch(program, query, graph=GRAPH_NAME))
            if handle is not None:
                self.watches.append((program, query, handle))

    # -- correctness ---------------------------------------------------
    def verify(self, label: str) -> None:
        """Compare one query of every class and every standing answer
        with the sequential oracle on the live graph."""
        service = self.service
        live = service.graph(GRAPH_NAME)
        owner = service.fragmentation(GRAPH_NAME).gp.owner
        for program in READ_CLASSES:
            query = query_for(program, self.slots[-1])
            ticket = self.attempt(f"{label} {program}",
                                  lambda: self.play(program, self.slots[-1]))
            if ticket is not None and not check_answer(
                    program, query, ticket.answer, live, owner):
                self.fail(f"{label}: {program} answer differs from oracle")
        for program, query, handle in self.watches:
            self.attempted += 1
            if not check_answer(program, query, handle.answer, live, owner):
                self.fail(f"{label}: standing {program} answer differs "
                          "from oracle")

    # -- the closed loop -----------------------------------------------
    def update(self, kind: str, delta, slot: int) -> None:
        self.timed(f"update_{kind}_ms",
                   lambda: self.service.update(GRAPH_NAME, delta), slot)

    def one_round(self) -> None:
        """Every operation kind at least once, so each metric samples the
        whole run; and one whole period of the update stream, so every
        round starts on the initial graph and replays the same schedule.
        Every read class runs twice per round, so that each has as many
        samples as the others (PageRank, the longest read, would otherwise
        have the fewest and the widest spread); SSSP and BFS visit two of
        the four slots, in the seed's order.  All update cycles but the
        last run back to back, three batches to a calibration bracket (a
        batch takes about as long as a bracket costs); in the last cycle
        the insert batch and the second mixed batch are each followed by
        one read, alternately SSSP and CC, which pays whatever the writes
        invalidated — so the next round's warm reads are warm."""
        r = self.rounds
        for k in range(SLOTS_PER_ROUND):
            i = self.slot_order[(SLOTS_PER_ROUND * r + k) % len(self.slots)]
            source = self.slots[i]
            self.timed("sssp_ms", lambda: self.play("sssp", source), slot=i)
            self.timed("bfs_ms", lambda: self.play("bfs", source), slot=i)
            self.timed("cc_ms", lambda: self.play("cc"))
            self.timed("pagerank_ms", lambda: self.play("pagerank"))
        for _ in range(PERIOD_CYCLES - 1):
            with self.clock.bracket() as bracket:  # write after write
                for _ in CYCLE:
                    slot, kind, delta = self.batches.next_batch()
                    self.attempt(f"update_{kind}_ms", lambda: bracket.run(
                        f"update_{kind}_ms",
                        lambda: self.service.update(GRAPH_NAME, delta), slot))
        after = ("sssp", "cc") if r % 2 == 0 else ("cc", "sssp")
        for i in range(len(CYCLE)):  # write, read, write, write, read
            slot, kind, delta = self.batches.next_batch()
            self.update(kind, delta, slot)
            if i != 1:
                self.read_after_write(kind, after[i // 2])
        self.rounds += 1

    def read_after_write(self, batch_kind: str, program: str) -> None:
        self.timed("read_after_write_ms",
                   lambda: self.play(program, self.slots[0]),
                   slot=(batch_kind, program))

    def run_rounds(self, seconds: float, min_rounds: int) -> None:
        start = time.perf_counter()
        while (self.rounds < min_rounds
               or time.perf_counter() - start < seconds):
            self.one_round()

    def restarts(self, reps: int) -> None:
        """``warm_restart_s``: graceful ``close()`` (checkpoint of the
        pending WAL and the maintained fragmentation), a new service on
        the same store, first SSSP answered.  One untimed batch before
        each repetition leaves the WAL dirty, as a serving primary's is.
        On the process backend the worker pool restarts too."""
        for rep in range(reps):
            _slot, _kind, batch = self.batches.next_batch()
            self.attempt("pre-restart update",
                         lambda: self.service.update(GRAPH_NAME, batch))
            box: Dict[str, Any] = {}

            def restart() -> None:
                self.service.close()
                if self.backend is not None:
                    self.backend.close()
                box["backend"] = self.new_backend()
                box["service"] = self.open_service(self.store_dir,
                                                   box["backend"])
                self.play("sssp", self.slots[0], box["service"])

            self.timed("warm_restart_s", restart)
            if "service" not in box:
                raise RuntimeError("restart failed; service lost")
            self.service, self.backend = box["service"], box["backend"]
            self.watches = []  # standing queries do not survive a restart

    def close(self) -> None:
        self.discard(self.service, self.backend)
        self.service = self.backend = None
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # unless another run is using it
        except OSError:
            pass

    # -- results -------------------------------------------------------
    def peak_rss_mb(self) -> float:
        """Peak resident set of this process plus, when the workload ran
        pooled workers, of its largest (already reaped) worker child."""
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.workload.backend == "process":
            peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return peak_kb / 1024.0

    def end_to_end(self) -> Metrics:
        """Every end-to-end metric as ``(value, unit)``: slotted reads as
        the mean of their slot medians, the rest as the median sample."""
        out: Metrics = {}
        for name, unit in END_TO_END.items():
            if name == "peak_rss_mb":
                value = self.peak_rss_mb()
            else:
                estimate = (self.clock.median if name in POOLED
                            else self.clock.slot_median_mean)
                value = estimate(name) * (1e-3 if unit == "s" else 1.0)
            out[name] = (value, unit)
        return out

    def raw_diagnostics(self) -> Metrics:
        """``raw.<metric>_p50`` / ``_tail`` / ``_n``: un-normalised wall
        clock, the diagnostic beside every normalised latency."""
        out: Metrics = {}
        for metric in LATENCY_METRICS:
            p50, tail_value, n = self.clock.raw_summary(metric)
            unit = END_TO_END[metric]
            scale = 1e-3 if unit == "s" else 1.0
            out[f"raw.{metric}_p50"] = (p50 * scale, unit)
            out[f"raw.{metric}_tail"] = (tail_value * scale, unit)
            out[f"raw.{metric}_n"] = (n, "count")
        return out

    def detail(self, traced: bool) -> Dict[str, Any]:
        calib = self.clock.calib_stats()
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "smoke": self.smoke,
            "traced": traced,
            "host": host_fingerprint(),
            "calibration": calib,
            "host_noisy": calib["calib_iqr_pct"] > HOST_NOISY_IQR_PCT,
            "graph": {"nodes": self.graph.num_nodes,
                      "edges": self.graph.num_edges,
                      "digest": self.graph_digest,
                      "generate_s": self.generate_s},
            "inputs": {"slots": self.slots,
                       "slot_order": self.slot_order,
                       "batches_applied": self.batches.batches,
                       "batches_digest": self.batches.digest()},
            "rounds": self.rounds,
            "phases_s": self.phases_s,
            "samples": {m: self.clock.count(m) for m in END_TO_END
                        if self.clock.count(m)},
            "raw": {name: value for name, (value, _unit)
                    in self.raw_diagnostics().items()},
            "failures": self.failures[:20],
        }


# ----------------------------------------------------------------------
def run_end_to_end(run: Run, seconds: float) -> Metrics:
    smoke = run.smoke
    run.phase("setup", run.setup, 2 if smoke else SETUP_REPS)
    run.phase("watch", run.start_watches)
    run.phase("verify", run.verify, "after set-up")
    run.phase("rounds", run.run_rounds, seconds, len(run.slots))
    run.phase("verify", run.verify, "after last round")
    run.phase("restart", run.restarts, 2 if smoke else RESTART_REPS)
    run.phase("verify", run.verify, "after restarts")
    run.close()  # reaps the pool: its peak RSS is readable only now
    return run.end_to_end()


