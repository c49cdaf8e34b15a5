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

Folding, composing and pricing are the job of one
:class:`~repro.core.coordinator.Coordinator` per run — array-native when
the program and the fragmentation allow it, the generic dict plane
otherwise.  Communication is accounted both ways (changed-parameter
reports up to the coordinator, composed messages down) by the wire model
of :mod:`repro.runtime.wire`.  Supersteps, per-superstep max-worker
compute time and traffic are folded into
:class:`~repro.runtime.metrics.RunMetrics` by the simulated cluster,
together with always-on timers of the coordinator's phases.

The engine also implements:

* the paper's **GRAPE-NI** ablation (Exp-2): ``incremental=False`` applies
  messages and re-runs ``PEval`` instead of ``IncEval``;
* **monotonicity checking** (Assurance Theorem instrumentation);
* **fault tolerance** (Section 6): per-superstep checkpoints through an
  :class:`~repro.runtime.fault.Arbitrator`; injected worker failures roll
  the failed superstep back and replay it.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Union

from repro.core.coordinator import make_coordinator
from repro.core.monotonic import MonotonicityChecker
from repro.core.pie import PIEProgram
from repro.obs import events as _events
from repro.obs.trace import Span
from repro.graph.graph import Graph
from repro.partition.base import Fragmentation, PartitionStrategy
from repro.partition.strategies import HashPartition
from repro.resilience import faults as fault_plane_mod
from repro.resilience.errors import DeadlineExceeded, QueryCancelled
from repro.resilience.faults import FaultPlane
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.executors import (PHASE_IDLE, PHASE_INC, PHASE_NI,
                                     PHASE_PEVAL,
                                     ExecutorBackend, StepCommand,
                                     WorkerHung, WorkerProcessDied,
                                     resolve_backend)
from repro.runtime.fault import Arbitrator, FailureInjector, WorkerFailure
from repro.runtime.message import stable_hash
from repro.runtime.metrics import CostModel, RunMetrics, message_bytes

__all__ = ["EngineConfig", "GrapeEngine", "GrapeResult"]


@dataclass(frozen=True)
class EngineConfig:
    """A reusable engine specification.

    One config can build any number of engines — the serving layer
    (:mod:`repro.service`) stores a config instead of an engine so each
    query runs on a fresh engine while sharing one declared setup, and so
    the fragmentation cache can be keyed on the partition spec.

    Fields mirror :class:`GrapeEngine`'s constructor parameters.
    """

    num_workers: int = 4
    num_fragments: Optional[int] = None
    partition: Optional[PartitionStrategy] = None
    cost_model: Optional[CostModel] = None
    executor: str = "serial"
    #: execution backend: ``"serial"``, ``"thread"``, ``"process"`` or an
    #: :class:`~repro.runtime.executors.ExecutorBackend` instance.
    #: ``None`` defers to ``executor`` (back-compat) and then to the
    #: ``REPRO_BACKEND`` environment variable.
    backend: Union[str, ExecutorBackend, None] = None
    incremental: bool = True
    check_monotonic: bool = False
    max_supersteps: int = 100_000
    failure_injector: Optional["FailureInjector"] = None
    #: directory for per-superstep disk checkpoints (fault tolerance
    #: without an injector; typically
    #: :meth:`repro.store.GraphStore.checkpoint_dir`).  Enables recovery
    #: from *real* worker deaths under the process backend.
    checkpoint_dir: Optional[str] = None
    #: per-query time budget in seconds; past it the run raises
    #: :exc:`~repro.resilience.errors.DeadlineExceeded`.  Enforced at
    #: every superstep boundary on all backends and *inside* worker
    #: pipe waits on the process backend (an inline superstep already in
    #: compute finishes first — boundary granularity).
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
    """Parallel evaluation of PIE programs on the simulated cluster.

    Parameters
    ----------
    num_workers:
        Physical workers ``n``.
    num_fragments:
        Virtual workers ``m`` (defaults to ``num_workers``); when larger,
        several fragments share a physical worker (paper Section 3.1).
    partition:
        Partition strategy ``P``; defaults to hash edge-cut.  Ignored when
        a prebuilt fragmentation is passed to :meth:`run`.
    incremental:
        ``False`` selects the GRAPE-NI ablation mode.
    check_monotonic:
        Verify the monotonic condition at runtime (small overhead).
    max_supersteps:
        Safety bound on supersteps.
    failure_injector:
        Optional fault-injection plan; failures trigger checkpoint
        recovery instead of aborting.
    """

    def __init__(self, num_workers: int, *,
                 num_fragments: Optional[int] = None,
                 partition: Optional[PartitionStrategy] = None,
                 cost_model: Optional[CostModel] = None,
                 executor: str = "serial",
                 backend: Union[str, ExecutorBackend, None] = None,
                 incremental: bool = True,
                 check_monotonic: bool = False,
                 max_supersteps: int = 100_000,
                 failure_injector: Optional[FailureInjector] = None,
                 checkpoint_dir: Optional[str] = None,
                 deadline_s: Optional[float] = None,
                 heartbeat_timeout_s: Optional[float] = None,
                 fault_plane: Optional[FaultPlane] = None):
        self.num_workers = num_workers
        self.num_fragments = num_fragments or num_workers
        if self.num_fragments < self.num_workers:
            raise ValueError("virtual workers m must be >= physical n")
        self.partition = partition or HashPartition()
        self.cost_model = cost_model
        self.executor = executor
        self.backend = backend
        self.incremental = incremental
        self.check_monotonic = check_monotonic
        self.max_supersteps = max_supersteps
        self.failure_injector = failure_injector
        self.checkpoint_dir = checkpoint_dir
        self.deadline_s = deadline_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.fault_plane = fault_plane

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: EngineConfig) -> "GrapeEngine":
        """Build an engine from a reusable :class:`EngineConfig`."""
        return cls(config.num_workers,
                   num_fragments=config.num_fragments,
                   partition=config.partition,
                   cost_model=config.cost_model,
                   executor=config.executor,
                   backend=config.backend,
                   incremental=config.incremental,
                   check_monotonic=config.check_monotonic,
                   max_supersteps=config.max_supersteps,
                   failure_injector=config.failure_injector,
                   checkpoint_dir=config.checkpoint_dir,
                   deadline_s=config.deadline_s,
                   heartbeat_timeout_s=config.heartbeat_timeout_s,
                   fault_plane=config.fault_plane)

    @property
    def config(self) -> EngineConfig:
        """This engine's parameters as a reusable spec."""
        return EngineConfig(num_workers=self.num_workers,
                            num_fragments=self.num_fragments,
                            partition=self.partition,
                            cost_model=self.cost_model,
                            executor=self.executor,
                            backend=self.backend,
                            incremental=self.incremental,
                            check_monotonic=self.check_monotonic,
                            max_supersteps=self.max_supersteps,
                            failure_injector=self.failure_injector,
                            checkpoint_dir=self.checkpoint_dir,
                            deadline_s=self.deadline_s,
                            heartbeat_timeout_s=self.heartbeat_timeout_s,
                            fault_plane=self.fault_plane)

    # ------------------------------------------------------------------
    def _resolve_backend(self) -> ExecutorBackend:
        """Pick the execution backend for a run.

        Precedence: explicit ``backend`` > ``executor="threads"``
        back-compat > the ``REPRO_BACKEND`` environment variable >
        serial.  Fault injection needs coordinator-side states for
        checkpoint recovery, so it forces an inline backend: an explicit
        non-inline choice raises, an environment-sourced one quietly
        falls back to serial.
        """
        spec = self.backend
        explicit = spec is not None
        if spec is None and self.executor == "threads":
            spec, explicit = "thread", True
        backend = resolve_backend(spec)
        if self.failure_injector is not None and not backend.inline:
            if explicit:
                raise ValueError(
                    "fault injection requires an inline backend "
                    "(backend='serial' or 'thread'); the process "
                    "backend's worker-resident states cannot be "
                    "checkpoint-restored by the coordinator")
            backend = resolve_backend("serial")
        return backend

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

        backend = self._resolve_backend()
        wall_start = time.perf_counter()
        plane = self.fault_plane or fault_plane_mod.active()
        deadline = (time.monotonic() + self.deadline_s
                    if self.deadline_s is not None else None)
        # Checkpoint fault tolerance turns on whenever something can
        # fail mid-run *and* recovery is possible: an injector, a disk
        # checkpoint dir, or a fault plane with pending executor faults
        # (in-memory checkpoints suffice for inline backends; the
        # process backend additionally needs a checkpoint_dir only for
        # real cross-process restores — in-memory copies restore
        # through replace_states just as well).
        ft_enabled = (self.failure_injector is not None
                      or self.checkpoint_dir is not None
                      or (plane is not None and plane.may_fire("exec.")))
        cluster = SimulatedCluster(self.num_workers,
                                   cost_model=self.cost_model,
                                   backend=backend)
        arbitrator = Arbitrator(checkpoint_dir=self.checkpoint_dir)
        checker = MonotonicityChecker(program.aggregator,
                                      enabled=self.check_monotonic)

        frags = fragmentation.fragments
        # The live session sits in a one-slot box: recovery from a real
        # worker death (process backend) swaps in a fresh session on
        # surviving/new pool workers, and every later use must see it.
        open_span = (trace.child("session.open", backend=backend.name)
                     if trace is not None else None)
        session_box = [backend.open(program, query, fragmentation,
                                    num_workers=self.num_workers,
                                    failure_injector=self.failure_injector,
                                    trace=open_span)]
        if open_span is not None:
            open_span.finish()
        session_box[0].hang_timeout = self.heartbeat_timeout_s

        def reopen():
            try:
                session_box[0].close()
            except Exception as exc:
                # The session being replaced already lost a worker; a
                # failing close must not stop the recovery, but it is
                # recorded (its workers may not have been returned to
                # the pool).
                _events.emit("session.close_failed",
                             error=type(exc).__name__, detail=str(exc))
            # Retried: another pool worker may die while the replacement
            # session is being opened (each attempt culls the handles it
            # found dead, so progress is guaranteed).
            for attempt in range(5):
                try:
                    session_box[0] = backend.open(
                        program, query, fragmentation,
                        num_workers=self.num_workers,
                        failure_injector=self.failure_injector)
                    session_box[0].hang_timeout = self.heartbeat_timeout_s
                    return
                except WorkerProcessDied:
                    if attempt == 4:
                        raise

        try:
            if trace is not None:
                with trace.child("init_states"):
                    session_box[0].init_states()
            else:
                session_box[0].init_states()

            # Optional pre-PEval data shipping (SubIso neighborhoods).
            pre_bytes = 0
            payloads = program.preprocess(query, fragmentation)
            if payloads:
                pre_bytes = sum(message_bytes(p)
                                for p in payloads.values())
                if trace is not None:
                    with trace.child("preprocess"):
                        session_box[0].apply_preprocess(payloads)
                else:
                    session_box[0].apply_preprocess(payloads)

            # Fold / compose / price live in one coordinator object:
            # the array plane when the program and the fragmentation
            # support it, the generic dict plane otherwise (always for
            # GRAPE-NI and for monotonicity checking, whose protocols
            # are per-key).
            coordinator = make_coordinator(
                program, fragmentation, checker=checker,
                arrays=self.incremental and not self.check_monotonic)
            blocks = coordinator.blocks
            metrics = cluster.metrics
            step_index = itertools.count()

            def snapshot_state():
                return {"states": session_box[0].collect_states(),
                        "coordinator": coordinator.snapshot()}

            def restore(snap):
                session_box[0].replace_states(snap["states"])
                coordinator.restore(snap["coordinator"])

            def superstep(commands, bytes_in, msgs_in, first_round=False):
                """One round: step the workers (recovering failures),
                fold their reports, compose and price the next round's
                messages, route the explicit channels, checkpoint.

                Returns ``(messages, designated, keyvalue, bytes,
                msgs)`` — the traffic this round produced, charged to
                the superstep that consumes it.  Under tracing the round
                is one ``superstep`` span: its id rides every command
                across the pipe, worker-side measurements come back
                re-attached as per-worker children, and the
                coordinator's fold / compose / accounting are recorded
                beside them.
                """
                span = None
                if trace is not None:
                    phase = next((c.phase for c in commands.values()
                                  if c.phase != PHASE_IDLE), PHASE_IDLE)
                    span = trace.child("superstep", index=next(step_index),
                                       phase=phase)
                    for command in commands.values():
                        command.span_id = span.span_id
                timers = (coordinator.fold_s, coordinator.compose_s,
                          coordinator.accounting_s)
                try:
                    outcomes = self._step_with_recovery(
                        cluster, session_box, arbitrator, commands,
                        bytes_in=bytes_in, msgs_in=msgs_in,
                        restore=restore, reopen=reopen, plane=plane,
                        deadline=deadline, budget_s=self.deadline_s,
                        cancel=cancel)
                    up_bytes, up_msgs, dirty = coordinator.fold(
                        {fid: outcome.report
                         for fid, outcome in outcomes.items()},
                        first_round=first_round)
                    messages = coordinator.compose(dirty)
                    designated, keyvalue, ch_bytes, ch_msgs = \
                        self._route_channels(frags, outcomes)
                    down_bytes = sum(coordinator.price(msg)
                                     for msg in messages.values())
                    down_bytes += sum(message_bytes(p)
                                      for p in designated.values())
                    down_bytes += sum(message_bytes(g)
                                      for g in keyvalue.values())
                finally:
                    if span is not None:
                        span.finish()
                metrics.report_read_s += sum(
                    outcome.report_s for outcome in outcomes.values())
                if span is not None:
                    for fid in sorted(outcomes):
                        outcome = outcomes[fid]
                        worker_span = span.record("worker", outcome.elapsed,
                                                  fid=fid)
                        for name, duration_s, tags in outcome.spans:
                            worker_span.record(name, duration_s, **tags)
                    span.record("coordinator.fold",
                                coordinator.fold_s - timers[0])
                    span.record("coordinator.compose",
                                coordinator.compose_s - timers[1])
                    span.record("coordinator.accounting",
                                coordinator.accounting_s - timers[2])
                if ft_enabled:
                    arbitrator.checkpoint(snapshot_state())
                return (messages, designated, keyvalue,
                        up_bytes + ch_bytes + down_bytes,
                        up_msgs + ch_msgs + len(messages)
                        + len(designated) + len(keyvalue))

            # ------------- superstep 1: PEval --------------------------
            if ft_enabled:
                arbitrator.checkpoint(snapshot_state())

            messages, designated, keyvalue, bytes_in, msgs_in = superstep(
                {f.fid: StepCommand(phase=PHASE_PEVAL, blocks=blocks)
                 for f in frags},
                pre_bytes, 1 if payloads else 0, first_round=True)

            # ------------- IncEval supersteps --------------------------
            # GRAPE-NI ablation: apply the message and redo PEval from
            # scratch instead of IncEval.
            phase = PHASE_INC if self.incremental else PHASE_NI
            rounds = 1
            while (messages or designated or keyvalue) \
                    and rounds < self.max_supersteps:
                rounds += 1
                active = set(messages) | set(designated) | set(keyvalue)
                commands = {
                    f.fid: (StepCommand(phase=phase,
                                        message=messages.get(f.fid),
                                        designated=designated.get(f.fid),
                                        keyvalue=keyvalue.get(f.fid),
                                        blocks=blocks)
                            if f.fid in active
                            else StepCommand(blocks=blocks))
                    for f in frags}
                messages, designated, keyvalue, bytes_in, msgs_in = \
                    superstep(commands, bytes_in, msgs_in)

            if messages or designated or keyvalue:
                raise RuntimeError(
                    f"no fixpoint after {self.max_supersteps} supersteps; "
                    "check the monotonic condition of the PIE program")

            # ------------- Assemble ------------------------------------
            states = session_box[0].collect_states()
            start = time.perf_counter()
            answer = program.assemble(query, fragmentation, states)
            assemble_s = time.perf_counter() - start
            if trace is not None:
                trace.record("assemble", assemble_s)
            metrics.assemble_s += assemble_s
            metrics.dict_views_materialised += sum(
                getattr(state, "views_materialised", 0)
                for state in states.values())
            coordinator.drain_timers(metrics)
            cluster.metrics.parallel_time_s += assemble_s
            cluster.metrics.total_compute_s += assemble_s
            # Trailing reports of the final round are communication too.
            cluster.metrics.comm_bytes += bytes_in
            cluster.metrics.comm_messages += msgs_in
            # Physical-execution figures come from the live session — a
            # recovery mid-run re-opened it, so they describe the session
            # that finished the run.
            session = session_box[0]
            cluster.metrics.pipe_bytes = session.pipe_bytes
            cluster.metrics.delta_bytes_shipped = session.delta_bytes_shipped
            cluster.metrics.fragments_shipped = session.fragments_shipped
            cluster.metrics.fragments_delta_shipped = \
                session.fragments_delta_shipped
            cluster.metrics.fragment_bytes_shipped = \
                session.fragment_bytes_shipped
            cluster.metrics.shm_fallbacks = session.shm_fallbacks
            shm_stats = getattr(backend, "shm_stats", None)
            if shm_stats is not None:
                segs, mapped = shm_stats()
                cluster.metrics.shm_segments_active = segs
                cluster.metrics.shm_bytes_mapped = mapped
            cluster.metrics.wall_clock_s = time.perf_counter() - wall_start
            cluster.metrics.recoveries = arbitrator.recoveries

            return GrapeResult(answer=answer, metrics=cluster.metrics,
                               fragmentation=fragmentation, states=states,
                               recoveries=arbitrator.recoveries,
                               trace=trace)
        finally:
            session_box[0].close()
            arbitrator.discard()

    # ------------------------------------------------------------------
    @staticmethod
    def _step_with_recovery(cluster, session_box, arbitrator, commands,
                            bytes_in, msgs_in, restore, reopen=None, *,
                            plane=None, deadline=None, budget_s=None,
                            cancel=None):
        """Run one superstep; recover failures and replay (the
        arbitrator's task-transfer protocol).

        Two failure shapes are handled:

        * an **injected** :exc:`WorkerFailure` (inline backends) surfaces
          in the outcomes — the checkpoint is restored and the step
          replays;
        * a **real worker death**
          (:exc:`~repro.runtime.executors.WorkerProcessDied`, process
          backend — including :exc:`~repro.runtime.executors.WorkerHung`,
          a worker killed for missing heartbeats) aborts the exchange
          mid-flight — with a checkpoint available the session is
          re-opened on fresh pool workers, the checkpoint restored into
          them and the step replayed.  A death during the recovery itself
          (the replacement worker dies while states are being restored)
          retries the whole sequence.  Known limitation: a death landing
          inside the *checkpoint* exchange (``collect_states``) rather
          than the step fails the run loudly with
          :exc:`WorkerProcessDied` — the next consistent resume point
          would predate work the coordinator has already folded; callers
          treat it as a failed (safely re-runnable) query.

        Either way a superstep is recorded only for the attempt whose
        outcomes are returned, so a recovered run's logical account —
        supersteps, traffic — equals an uninterrupted run's on every
        backend (``recoveries`` says what it went through).

        The fault plane's ``exec.step`` site is consulted here, exactly
        once per fragment per *logical* superstep; a fired action rides
        the :class:`StepCommand` to wherever the fragment executes.
        Every replay strips the embedded faults first — matching the
        injector's "each failure fires exactly once" semantics, so
        recovery always converges.  ``deadline`` (absolute monotonic)
        and ``cancel`` are checked before every attempt; an
        unrecoverable hang is reported as
        :exc:`~repro.resilience.errors.DeadlineExceeded` when the query
        had a time budget (the caller asked for bounded latency, and
        that is the bound that broke).
        """
        if plane is not None:
            for fid in sorted(commands):
                action = plane.check("exec.step", key=fid)
                if action is not None:
                    commands[fid].fault = action

        def strip_faults():
            for command in commands.values():
                command.fault = None

        attempts = 0
        while True:
            attempts += 1
            if cancel is not None and cancel.is_set():
                raise QueryCancelled(
                    "query cancelled at a superstep boundary")
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlineExceeded(
                    f"query exceeded its {budget_s}s budget at a "
                    "superstep boundary", budget_s=budget_s)
            try:
                outcomes = session_box[0].step(commands, deadline=deadline,
                                               cancel=cancel)
            except DeadlineExceeded as exc:
                # Raised inside a pipe wait, where only the absolute
                # deadline is known — stamp the budget on the way out.
                strip_faults()
                if exc.budget_s is None:
                    exc.budget_s = budget_s
                raise
            except WorkerProcessDied as exc:
                strip_faults()
                if (attempts > 25 or reopen is None
                        or not arbitrator.has_checkpoint):
                    if isinstance(exc, WorkerHung) and deadline is not None:
                        raise DeadlineExceeded(
                            f"worker hung and could not be replaced "
                            f"within the {budget_s}s budget: {exc}",
                            budget_s=budget_s) from exc
                    raise
                while True:
                    try:
                        reopen()
                        restore(arbitrator.restore())
                        break
                    except WorkerProcessDied:
                        attempts += 1
                        if attempts > 25:
                            raise
                _events.emit("worker.recovered",
                             error=type(exc).__name__, attempts=attempts)
                continue
            failure = next((o.failed for o in outcomes.values()
                            if o.failed is not None), None)
            if failure is None:
                times = [outcomes[fid].elapsed for fid in sorted(outcomes)]
                cluster.record_superstep(times, bytes_shipped=bytes_in,
                                         num_messages=msgs_in)
                return outcomes
            strip_faults()
            if attempts > 25:
                raise failure
            if arbitrator.has_checkpoint:
                restore(arbitrator.restore())
            # else: replay from the current (pre-PEval) state.

    # ------------------------------------------------------------------
    def _route_channels(self, frags, outcomes):
        """Route the designated and key-value messages the workers
        drained this superstep.

        Key-value pairs are grouped by key and assigned to workers by key
        hash — the coordinator's MapReduce-style shuffle (Section 3.5).
        Returns ``(designated, keyvalue, bytes, message_count)`` where both
        channel dicts map destination fid to deliverable content.
        """
        m = len(frags)
        designated: Dict[int, List[Any]] = {}
        grouped: Dict[Hashable, List[Any]] = {}
        ch_bytes = 0
        ch_msgs = 0
        for frag in frags:
            outcome = outcomes[frag.fid]
            des, kvs = outcome.designated, outcome.keyvalue
            for dest, items in des.items():
                if not 0 <= dest < m:
                    raise ValueError(f"designated dest {dest} out of range")
                if items:
                    designated.setdefault(dest, []).extend(items)
                    ch_bytes += message_bytes(items)
                    ch_msgs += 1
            for key, value in kvs:
                grouped.setdefault(key, []).append(value)
                ch_msgs += 1
            if kvs:
                ch_bytes += message_bytes(kvs)
        keyvalue: Dict[int, Dict[Hashable, List[Any]]] = {}
        for key, values in grouped.items():
            # stable_hash, not builtin hash: string keys must route to the
            # same worker in every process regardless of PYTHONHASHSEED.
            dest = stable_hash(key) % m
            keyvalue.setdefault(dest, {})[key] = values
        return designated, keyvalue, ch_bytes, ch_msgs
