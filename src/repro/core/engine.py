"""The GRAPE parallel engine (paper Sections 3.1 and 6).

Given a PIE program, a query and a partitioned graph, the engine runs the
paper's three phases as a simultaneous fixpoint over fragments:

1. **PEval** — superstep 1: every worker evaluates the batch sequential
   algorithm on its fragment and reports its update parameters
   ``C_i.x̄`` to the coordinator;
2. **IncEval** — iterated supersteps: the coordinator folds reports into a
   per-parameter global table using the program's ``aggregateMsg``
   aggregator, composes a message ``M_j`` for every fragment holding a
   changed border node (destinations deduced from the fragmentation graph
   ``G_P``), and each worker with a non-empty message incrementally
   computes ``Q(F_i ⊕ M_i)``;
3. **Assemble** — when no update parameter changed and no explicit
   messages are pending, the coordinator pulls partial results and
   combines them.

Besides update parameters, the engine carries the paper's two explicit
message channels (Section 3.5): *designated* worker-to-worker messages and
*key-value* pairs shuffled by key at the coordinator — these power the
Simulation Theorem compilers (:mod:`repro.core.bsp_sim`,
:mod:`repro.core.mapreduce_sim`, :mod:`repro.core.pram_sim`).

The round and the loop are :class:`~repro.core.fixpoint.Fixpoint`'s —
the one superstep driver, shared with standing-query maintenance; this
module adds the run object whose *step*
executes a round on the configured backend's session and replays it
through worker failures.  Folding, composing and pricing are the job of
one :class:`~repro.core.coordinator.Coordinator` per run — array-native
when the program and the fragmentation allow it, the generic dict plane
otherwise.  Communication is accounted both ways (changed-parameter
reports up to the coordinator, composed messages down) by the wire model
of :mod:`repro.runtime.wire`, together with always-on timers of the
coordinator's phases.

The engine also implements:

* the paper's **GRAPE-NI** ablation (Exp-2): ``incremental=False`` applies
  messages and re-runs ``PEval`` instead of ``IncEval``;
* **monotonicity checking** (Assurance Theorem instrumentation);
* **fault tolerance** (Section 6): per-superstep in-memory checkpoints
  through an :class:`~repro.runtime.fault.Arbitrator`; a worker failure
  (a real death, or a :class:`~repro.resilience.faults.FaultPlane` crash
  spec on any backend) re-opens the session, restores the checkpoint and
  replays the failed superstep.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.core.coordinator import make_coordinator
from repro.core.fixpoint import Fixpoint
from repro.core.pie import PIEProgram
from repro.obs import events as _events
from repro.obs.trace import Span
from repro.graph.graph import Graph
from repro.partition.base import Fragmentation, PartitionStrategy
from repro.partition.strategies import HashPartition
from repro.resilience import faults as fault_plane_mod
from repro.resilience.errors import DeadlineExceeded, QueryCancelled
from repro.resilience.faults import FaultPlane
from repro.runtime.executors import (PHASE_IDLE, PHASE_INC, PHASE_NI,
                                     PHASE_PEVAL,
                                     ExecutorBackend, StepCommand,
                                     WorkerHung, WorkerProcessDied,
                                     backend_name, resolve_backend)
from repro.runtime.fault import Arbitrator, WorkerFailure
from repro.runtime.metrics import CostModel, RunMetrics, message_bytes

__all__ = ["EngineConfig", "GrapeEngine", "GrapeResult"]


@dataclass(frozen=True)
class EngineConfig:
    """A reusable engine specification — *the* list of engine parameters.

    One config can build any number of engines — the serving layer
    (:mod:`repro.service`) stores a config instead of an engine so each
    query runs on a fresh engine while sharing one declared setup, and so
    the fragmentation cache can be keyed on the partition spec.  A
    :class:`GrapeEngine` holds one and reads every parameter through it.
    Contradictory values are rejected here, where the config is built.
    """

    #: physical workers ``n``
    num_workers: int = 4
    #: virtual workers ``m`` (defaults to ``num_workers``); when larger,
    #: several fragments share a physical worker (paper Section 3.1)
    num_fragments: Optional[int] = None
    #: partition strategy ``P``; defaults to hash edge-cut.  Ignored when
    #: a prebuilt fragmentation is passed to :meth:`GrapeEngine.run`.
    partition: Optional[PartitionStrategy] = None
    cost_model: Optional[CostModel] = None
    #: execution backend: ``"serial"``, ``"thread"``, ``"process"`` or an
    #: :class:`~repro.runtime.executors.ExecutorBackend` instance.
    #: ``None`` defers to the ``REPRO_BACKEND`` environment variable.
    backend: Union[str, ExecutorBackend, None] = None
    #: ``False`` selects the GRAPE-NI ablation mode
    incremental: bool = True
    #: verify the monotonic condition on the report table of whichever
    #: plane the run takes: a regressed report raises
    #: ``MonotonicityViolation`` (a few percent of a served query)
    check_monotonic: bool = False
    #: safety bound on supersteps
    max_supersteps: int = 100_000
    #: checkpoint every superstep even without a fault plane, so a real
    #: worker death under the process backend is recovered instead of
    #: failing the run
    checkpoint: bool = False
    #: per-query time budget in seconds; past it the run raises
    #: :exc:`~repro.resilience.errors.DeadlineExceeded`.  Enforced at
    #: every superstep boundary on all backends and *inside* worker
    #: pipe waits on the process backend (an inline superstep already in
    #: compute finishes first — boundary granularity).  A served query
    #: that overruns counts in ``ServiceMetrics.deadlines_exceeded``.
    deadline_s: Optional[float] = None
    #: seconds without a worker heartbeat before the process backend
    #: declares the worker hung, kills it and (checkpoint permitting)
    #: replaces it.  ``None`` disables detection (seed behavior:
    #: pipe recvs block indefinitely).
    heartbeat_timeout_s: Optional[float] = None
    #: deterministic fault schedule for this run's ``exec.step`` site
    #: (see :class:`~repro.resilience.faults.FaultPlane`); ``None``
    #: falls back to the process-globally installed plane, if any.
    fault_plane: Optional[FaultPlane] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if self.effective_fragments < self.num_workers:
            raise ValueError("virtual workers m must be >= physical n")
        if not isinstance(self.backend, (ExecutorBackend, type(None))):
            backend_name(self.backend)

    @property
    def effective_fragments(self) -> int:
        """The virtual-worker count ``m`` an engine built from this
        config will use."""
        return self.num_fragments or self.num_workers

    def replace(self, **changes) -> "EngineConfig":
        """A copy of this config with the given fields overridden."""
        return dataclasses.replace(self, **changes)

    def build(self) -> "GrapeEngine":
        """Instantiate a fresh engine from this spec."""
        return GrapeEngine.from_config(self)


@dataclass
class GrapeResult:
    """Outcome of one GRAPE run."""

    answer: Any
    metrics: RunMetrics
    fragmentation: Fragmentation
    states: Dict[int, Any]
    recoveries: int = 0
    #: the span subtree covering this run, when it executed under
    #: tracing (``GrapeEngine.run(trace=...)`` /
    #: ``GrapeService(tracing=True)``); ``None`` otherwise
    trace: Optional[Span] = None

    @property
    def supersteps(self) -> int:
        return self.metrics.supersteps


class GrapeEngine:
    """Parallel evaluation of PIE programs on an executor backend.

    ``GrapeEngine(num_workers, **fields)`` takes the fields of
    :class:`EngineConfig` and holds the config they build
    (:attr:`config`); every field reads through as an attribute
    (``engine.max_supersteps``), with ``num_fragments`` and ``partition``
    resolved to their defaults.
    """

    def __init__(self, num_workers: int, **fields):
        self.config = EngineConfig(num_workers=num_workers, **fields)

    @classmethod
    def from_config(cls, config: EngineConfig) -> "GrapeEngine":
        """Build an engine from a reusable :class:`EngineConfig`."""
        engine = cls.__new__(cls)
        engine.config = config
        return engine

    def __getattr__(self, name: str) -> Any:
        if name == "config":  # not yet set: unpickling, copy
            raise AttributeError(name)
        return getattr(self.config, name)

    @property
    def num_fragments(self) -> int:
        return self.config.effective_fragments

    @property
    def partition(self) -> PartitionStrategy:
        return self.config.partition or HashPartition()

    def _resolve_backend(self) -> ExecutorBackend:
        """The execution backend of a run: the explicit ``backend``, else
        the ``REPRO_BACKEND`` environment variable, else serial."""
        return resolve_backend(self.config.backend)

    # ------------------------------------------------------------------
    def make_fragmentation(self, graph: Graph) -> Fragmentation:
        """Partition ``graph`` once, reusable across queries (paper:
        "G is partitioned once for all queries Q posed on G")."""
        return self.partition.partition(graph, self.num_fragments)

    # ------------------------------------------------------------------
    def run(self, program: PIEProgram, query: Any,
            graph: Optional[Graph] = None,
            fragmentation: Optional[Fragmentation] = None, *,
            cancel: Optional[threading.Event] = None,
            trace: Optional[Span] = None) -> GrapeResult:
        """Compute ``Q(G)`` with the given PIE program.

        Execution is delegated to the configured backend through the PIE
        session protocol: each superstep is described as one
        :class:`~repro.runtime.executors.StepCommand` per fragment and
        executed wherever the fragment lives (in-process for the serial
        and thread backends, in a pooled worker process for the process
        backend).  All coordinator logic — report folding, aggregation,
        message composition, byte accounting — runs here regardless of
        backend, so answers, superstep counts and communication volumes
        are backend-invariant.

        ``cancel`` is a cooperative abort flag (set by
        :meth:`~repro.service.tickets.QueryTicket.cancel`): the run
        checks it at every superstep boundary — and inside process-
        backend pipe waits — and raises
        :exc:`~repro.resilience.errors.QueryCancelled`.  With
        ``deadline_s`` set, a budget overrun raises
        :exc:`~repro.resilience.errors.DeadlineExceeded` at the same
        points; with ``heartbeat_timeout_s`` set, a process worker that
        stops heart-beating is killed and — when checkpoints are
        enabled — replaced, the run continuing with identical answers.

        ``trace`` hangs the run's span tree off the given parent span:
        session open (with worker-side shm-attach / delta-replay /
        fragment-load children on the process backend), one
        ``superstep`` span per round with per-worker children carrying
        worker-side compute/report timings, and assemble.  ``None``
        (the default) traces nothing and adds no measurable work.
        """
        if fragmentation is None:
            if graph is None:
                raise ValueError("pass either graph or fragmentation")
            fragmentation = self.make_fragmentation(graph)
        wall_start = time.perf_counter()
        run = _EngineRun(self.config, program, query, fragmentation,
                         cancel=cancel, trace=trace)
        try:
            run.open()
            pending = run.superstep(dict.fromkeys(range(len(run.fragments))),
                                    first_round=True)
            run.drain(*pending)
            return run.assemble(wall_start)
        finally:
            run.close()


#: physical-execution figures a run's metrics copy from the session that
#: finished it (a recovery mid-run re-opens the session)
_SESSION_FIGURES = ("pipe_bytes", "delta_bytes_shipped", "fragments_shipped",
                    "fragments_delta_shipped", "fragment_bytes_shipped",
                    "shm_fallbacks")


class _EngineRun(Fixpoint):
    """The run object of :meth:`GrapeEngine.run`: a fixpoint whose step
    goes through an executor session.  The live session, the arbitrator
    and fault plane that recover it, the query's deadline and cancel flag
    are attributes; the trace span is the base class's."""

    def __init__(self, config: EngineConfig, program: PIEProgram, query: Any,
                 fragmentation: Fragmentation, *,
                 cancel: Optional[threading.Event], trace: Optional[Span]):
        self.config = config
        self.backend = resolve_backend(config.backend)
        self.fragmentation = fragmentation
        super().__init__(program, query, fragmentation, None,
                         RunMetrics(backend=self.backend.name),
                         num_workers=config.num_workers,
                         cost_model=config.cost_model,
                         max_supersteps=config.max_supersteps, trace=trace)
        # GRAPE-NI ablation: apply the message and redo PEval from
        # scratch instead of IncEval.
        self.phase = PHASE_INC if config.incremental else PHASE_NI
        self.cancel = cancel
        self.deadline = (time.monotonic() + config.deadline_s
                         if config.deadline_s is not None else None)
        self.plane = config.fault_plane or fault_plane_mod.active()
        self.arbitrator = Arbitrator()
        # Checkpoints are taken when asked for or when a fault plane has
        # pending executor faults.
        self.fault_tolerant = config.checkpoint or (
            self.plane is not None and self.plane.may_fire("exec."))
        self.session = None

    def _child(self, name: str, **tags):
        """A child span of the run's trace, or nothing."""
        return (self.trace.child(name, **tags) if self.trace is not None
                else nullcontext())

    def _open_session(self, trace: Optional[Span] = None) -> None:
        self.session = self.backend.open(
            self.program, self.query, self.fragmentation,
            num_workers=self.num_workers, trace=trace)
        self.session.hang_timeout = self.config.heartbeat_timeout_s

    # ------------------------------------------------------------------
    def open(self) -> None:
        """Bind the backend session, create the states, ship the
        program's pre-PEval payloads (SubIso neighborhoods; charged to
        the PEval superstep) and take the first checkpoint."""
        with self._child("session.open", backend=self.backend.name) as span:
            self._open_session(span)
        with self._child("init_states"):
            self.session.init_states()
        payloads = self.program.preprocess(self.query, self.fragmentation)
        if payloads:
            self.bytes_in = sum(map(message_bytes, payloads.values()))
            self.msgs_in = 1
            with self._child("preprocess"):
                self.session.apply_preprocess(payloads)
        # The array plane when the program and the fragmentation support
        # it, the generic dict plane otherwise (always for GRAPE-NI,
        # whose protocol is per-key).
        self.coordinator = make_coordinator(
            self.program, self.fragmentation,
            check=self.config.check_monotonic,
            arrays=self.config.incremental)
        self.checkpoint()

    def checkpoint(self) -> None:
        if self.fault_tolerant:
            self.arbitrator.checkpoint(
                {"states": self.session.collect_states(),
                 "coordinator": self.coordinator.snapshot()})

    def _restore(self) -> None:
        snap = self.arbitrator.restore()
        self.session.replace_states(snap["states"])
        self.coordinator.restore(snap["coordinator"])

    def _reopen(self) -> None:
        """Swap in a fresh session on surviving / new pool workers."""
        try:
            self.session.close()
        except Exception as exc:
            # The session being replaced already lost a worker; a
            # failing close must not stop the recovery, but it is
            # recorded (its workers may not have been returned to
            # the pool).
            _events.emit("session.close_failed",
                         error=type(exc).__name__, detail=str(exc))
        self._open_session()

    # ------------------------------------------------------------------
    def step(self, messages, designated, keyvalue, first_round, span):
        """One :class:`StepCommand` per fragment — the round's phase
        where something is pending (the first round: PEval everywhere),
        an idle command (report + drain only) elsewhere — executed by
        the session, replayed through failures."""
        designated, keyvalue = designated or {}, keyvalue or {}
        phase = PHASE_PEVAL if first_round else self.phase
        commands = {
            fid: StepCommand(
                phase=(phase if fid in messages or fid in designated
                       or fid in keyvalue else PHASE_IDLE),
                message=messages.get(fid), designated=designated.get(fid),
                keyvalue=keyvalue.get(fid), blocks=self.coordinator.blocks,
                span_id=span.span_id if span is not None else None)
            for fid in range(len(self.fragments))}
        outcomes = self._step_with_recovery(commands)
        fids = sorted(outcomes)
        return ([outcomes[fid].elapsed for fid in fids],
                {fid: outcomes[fid].report for fid in fids}, outcomes)

    def _step_with_recovery(self, commands: Dict[int, StepCommand]):
        """Run one superstep; recover failures and replay (the
        arbitrator's task-transfer protocol).

        A failed worker aborts the step: a plane ``crash`` on the serial
        / thread backends raises :exc:`~repro.runtime.fault.WorkerFailure`
        once every task of the step has finished, a **real worker death**
        on the process backend raises
        :exc:`~repro.runtime.executors.WorkerProcessDied` (or
        :exc:`~repro.runtime.executors.WorkerHung`, a worker killed for
        missing heartbeats).  Both take one path: with a checkpoint
        available the session is re-opened (on fresh pool workers), the
        checkpoint restored into it and the step replayed.  A death
        during the recovery itself (the replacement worker dies while
        states are being restored) retries the whole sequence.  Known
        limitation: a death landing inside the *checkpoint* exchange
        (``collect_states``) rather than the step fails the run loudly
        with :exc:`WorkerProcessDied` — the next consistent resume point
        would predate work the coordinator has already folded; callers
        treat it as a failed (safely re-runnable) query.

        Only the attempt whose outcomes are returned becomes a
        superstep, so a recovered run's logical account — supersteps,
        traffic — equals an uninterrupted run's on every backend
        (``recoveries`` says what it went through).

        The fault plane's ``exec.step`` site is consulted here, exactly
        once per fragment per *logical* superstep; a fired action rides
        the :class:`StepCommand` to wherever the fragment executes.
        Every attempt strips the embedded faults on its way out — each
        fault fires exactly once, so recovery always converges.  The
        deadline (absolute monotonic) and the cancel flag are checked
        before every attempt; an unrecoverable hang is reported as
        :exc:`~repro.resilience.errors.DeadlineExceeded` when the query
        had a time budget (the caller asked for bounded latency, and
        that is the bound that broke).
        """
        if self.plane is not None:
            for fid in sorted(commands):
                commands[fid].fault = self.plane.check("exec.step", key=fid)
        arbitrator, deadline, budget_s = (self.arbitrator, self.deadline,
                                          self.config.deadline_s)
        attempts = 0
        while True:
            attempts += 1
            if self.cancel is not None and self.cancel.is_set():
                raise QueryCancelled(
                    "query cancelled at a superstep boundary")
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlineExceeded(
                    f"query exceeded its {budget_s}s budget at a "
                    "superstep boundary", budget_s=budget_s)
            try:
                return self.session.step(commands, deadline=deadline,
                                         cancel=self.cancel)
            except DeadlineExceeded as exc:
                # Raised inside a pipe wait, where only the absolute
                # deadline is known — stamp the budget on the way out.
                if exc.budget_s is None:
                    exc.budget_s = budget_s
                raise
            except (WorkerProcessDied, WorkerFailure) as exc:
                if attempts > 25 or not arbitrator.has_checkpoint:
                    if isinstance(exc, WorkerHung) and deadline is not None:
                        raise DeadlineExceeded(
                            f"worker hung and could not be replaced "
                            f"within the {budget_s}s budget: {exc}",
                            budget_s=budget_s) from exc
                    raise
                while True:
                    try:
                        self._reopen()
                        self._restore()
                        break
                    except WorkerProcessDied:
                        attempts += 1
                        if attempts > 25:
                            raise
                _events.emit("worker.recovered",
                             error=type(exc).__name__, attempts=attempts)
            finally:
                for command in commands.values():
                    command.fault = None

    # ------------------------------------------------------------------
    def assemble(self, wall_start: float) -> GrapeResult:
        """Pull the partial results, combine them and close the metrics."""
        session, metrics = self.session, self.metrics
        states = session.collect_states()
        start = time.perf_counter()
        answer = self.program.assemble(self.query, self.fragmentation,
                                       states)
        assemble_s = time.perf_counter() - start
        if self.trace is not None:
            self.trace.record("assemble", assemble_s)
        metrics.assemble_s += assemble_s
        metrics.parallel_time_s += assemble_s
        metrics.total_compute_s += assemble_s
        metrics.dict_views_materialised += sum(
            getattr(state, "views_materialised", 0)
            for state in states.values())
        self.finish()
        for name in _SESSION_FIGURES:
            setattr(metrics, name, getattr(session, name))
        shm_stats = getattr(self.backend, "shm_stats", None)
        if shm_stats is not None:
            metrics.shm_segments_active, metrics.shm_bytes_mapped = \
                shm_stats()
        metrics.wall_clock_s = time.perf_counter() - wall_start
        metrics.recoveries = self.arbitrator.recoveries
        return GrapeResult(answer=answer, metrics=metrics,
                           fragmentation=self.fragmentation, states=states,
                           recoveries=self.arbitrator.recoveries,
                           trace=self.trace)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
