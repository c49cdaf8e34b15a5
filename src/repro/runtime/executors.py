"""Pluggable execution backends for the GRAPE engine.

The paper's engine runs PEval/IncEval on ``n`` shared-nothing physical
workers.  In-process execution keeps the BSP *accounting* honest but caps
every dict-path workload at one core (the GIL), so the execution layer is
a pluggable backend with three implementations:

* :class:`SerialBackend` — deterministic in-process execution (default);
* :class:`ThreadBackend` — a thread pool; parallel for kernels that drop
  the GIL (numpy), still one core for pure-Python compute;
* :class:`ProcessBackend` — a persistent ``multiprocessing`` worker pool.
  Fragments are shipped to the workers **once per fragmentation** and
  cached there; afterwards only queries, step commands, messages and
  parameter updates cross the pipe.  When a fragmentation is *mutated*
  (:func:`repro.core.updates.apply_delta`), workers holding copies of
  the previous version are brought current by replaying the logged
  per-fragment :class:`~repro.graph.delta.FragmentDelta` records —
  compact delta shipping keyed by the fragmentation's version sequence —
  and only fall back to a full re-ship when the delta log no longer
  covers the gap.  Where the platform provides shared memory, fragments
  are not even shipped: the coordinator *publishes* each fragment once
  into a named segment (``repro.runtime.shm``) and workers receive only
  a compact :class:`~repro.runtime.shm.SegmentDescriptor`, attaching
  zero-copy CSR views in place — fragment bytes on the pipe drop to
  near zero and the worker-side CSR rebuild disappears.  Attach or
  publish failures degrade per fragment to the pickle path (counted in
  ``shm_fallbacks``); bulk pickled transfers still ride ``/dev/shm``
  spill files above 1 MiB.

Every backend speaks one execution contract, the PIE session protocol
(``open``/``step``): the GRAPE engine describes each superstep as data
(:class:`StepCommand` per fragment), the backend executes it wherever the
fragment lives and returns a :class:`StepOutcome` carrying the timed
compute, the fragment's changed-parameter report and its drained
explicit-channel messages.  This is what lets the process backend keep
fragments and states resident instead of re-shipping them every
superstep.

Backend selection is by name (``"serial"``, ``"thread"``, ``"process"``)
or instance; named lookups share one module-level backend per name, so
every engine built by a service reuses one warm process pool.  The
``REPRO_BACKEND`` environment variable supplies the default for engines
that do not pin a backend explicitly.
"""

from __future__ import annotations

import abc
import atexit
import os
import pickle
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (Any, Callable, Dict, Hashable, List, Optional, Set,
                    Tuple, Union)

from repro.graph.graph import DeferredGraph
from repro.obs import events as _events
from repro.resilience import faults as _fault_plane
from repro.resilience.errors import DeadlineExceeded, QueryCancelled
from repro.resilience.faults import FaultAction
from repro.runtime import shm
from repro.runtime.fault import WorkerFailure

__all__ = [
    "BACKEND_ENV_VAR",
    "ExecutorBackend",
    "ExecutorSession",
    "ProcessBackend",
    "SerialBackend",
    "StepCommand",
    "StepOutcome",
    "ThreadBackend",
    "UnpicklableProgramError",
    "WorkerHung",
    "WorkerProcessDied",
    "available_backends",
    "backend_name",
    "resolve_backend",
]

#: environment variable consulted when an engine has no explicit backend
BACKEND_ENV_VAR = "REPRO_BACKEND"

# Superstep phases a worker can be asked to run.
PHASE_IDLE = "idle"        # no message this round; report + drain only
PHASE_PEVAL = "peval"      # partial evaluation Q(F_i)
PHASE_INC = "inc"          # incremental evaluation Q(F_i ⊕ M_i)
PHASE_NI = "ni"            # GRAPE-NI ablation: apply message, redo PEval


class UnpicklableProgramError(TypeError):
    """A program/query/fragment could not cross the process boundary."""


class WorkerProcessDied(RuntimeError):
    """A pooled worker process died mid-exchange (crash or ``kill -9``).

    Distinct from :exc:`~repro.runtime.fault.WorkerFailure` (how an
    injected ``crash`` surfaces on an inline backend): this is a real
    OS-level death.  The engine recovers both the same way when a
    checkpoint exists — the session is re-opened on fresh workers and the
    last consistent checkpoint restored — and re-raises them otherwise.
    """


class WorkerHung(WorkerProcessDied):
    """A pooled worker stopped heart-beating mid-exchange.

    Raised by the coordinator after ``heartbeat_timeout_s`` without a
    beat: the worker was killed (a frozen process cannot be trusted to
    ever reply) and its handle marked dead.  Subclasses
    :exc:`WorkerProcessDied` so every death-recovery path — checkpoint
    restore on fresh workers, service-level retry, the circuit breaker
    — treats a hang exactly like a crash, which operationally it is.
    """


@dataclass
class StepCommand:
    """One fragment's share of a superstep, expressed as data.

    ``phase`` selects which sequential function runs; ``message`` is the
    composed update-parameter message ``M_i``; ``designated`` and
    ``keyvalue`` are the explicit channels (paper Section 3.5) routed to
    this fragment.  ``blocks`` selects the array plane: ``message`` is a
    :class:`~repro.runtime.wire.ParamBlock` handed to
    ``program.inceval_block`` and the report is read with
    ``program.read_changed_block``.
    """

    phase: str = PHASE_IDLE
    message: Any = None
    designated: Optional[list] = None
    keyvalue: Optional[Dict[Hashable, list]] = None
    blocks: bool = False
    #: injected fault to act out before computing (``exec.step`` site of
    #: the :class:`~repro.resilience.faults.FaultPlane`); embedded by the
    #: engine — and stripped before any replay, so a recovered step
    #: never re-fires the same fault
    fault: Optional[FaultAction] = None
    #: tracing: id of the coordinator-side superstep span this command
    #: belongs to.  ``None`` (the default) means tracing is off and the
    #: worker measures nothing beyond ``elapsed``.
    span_id: Optional[str] = None


@dataclass
class StepOutcome:
    """What one fragment's superstep produced.

    ``report`` is ``("changed", params)`` when the program tracks its own
    dirty keys, ``("full", params)`` when the coordinator must diff the
    full parameter dict against the fragment's last report, or
    ``("block", ParamBlock or None)`` on the array plane.
    """

    elapsed: float = 0.0
    report: Tuple[str, Any] = ("changed", {})
    #: seconds spent reading the report and draining the explicit
    #: channels (always measured: ``RunMetrics.report_read_s``)
    report_s: float = 0.0
    designated: Dict[int, list] = field(default_factory=dict)
    keyvalue: list = field(default_factory=list)
    #: tracing: worker-side measurements as ``(name, duration_s, tags)``
    #: tuples — spans travel the pipe by value, never as Span objects —
    #: re-attached by the engine under the superstep span whose id the
    #: command carried.  Empty when tracing is off.
    spans: List[Tuple[str, float, Dict]] = field(default_factory=list)


def run_phase(program, query, fragment, state, command: StepCommand) -> None:
    """Execute the timed compute portion of one fragment superstep.

    Shared verbatim between the inline sessions and the process workers so
    every backend runs byte-identical semantics.
    """
    if command.designated:
        program.deliver_designated(query, fragment, state, command.designated)
    if command.keyvalue:
        program.deliver_keyvalue(query, fragment, state, command.keyvalue)
    phase = command.phase
    if phase == PHASE_PEVAL:
        program.peval(query, fragment, state)
    elif phase == PHASE_INC:
        if command.blocks:
            program.inceval_block(query, fragment, state, command.message)
        else:
            program.inceval(query, fragment, state, command.message or {})
    elif phase == PHASE_NI:
        program.apply_message(query, fragment, state, command.message or {})
        program.peval(query, fragment, state)
    elif phase != PHASE_IDLE:
        raise ValueError(f"unknown step phase {phase!r}")


def read_report(program, query, fragment, state,
                full: bool) -> Tuple[str, Dict]:
    """Read one fragment's post-step parameter report.

    With ``full`` the program's dirty set is consumed (so it cannot be
    re-reported next round) and the full parameter dict is returned for a
    coordinator-side diff — how a standing query re-baselines.
    """
    changed = program.read_changed_params(query, fragment, state)
    if full and changed is not None:
        changed = None
    if changed is None:
        return ("full", program.read_update_params(query, fragment, state))
    return ("changed", changed)


def _execute_command(program, query, fragment, state,
                     command: StepCommand) -> StepOutcome:
    """Run one command and package the outcome (used by every backend)."""
    start = time.perf_counter()
    run_phase(program, query, fragment, state, command)
    computed = time.perf_counter()
    if command.blocks:
        report = ("block",
                  program.read_changed_block(query, fragment, state))
    else:
        report = read_report(program, query, fragment, state, False)
    designated, keyvalue = program.drain_messages(query, fragment, state)
    elapsed = computed - start
    report_s = time.perf_counter() - computed
    outcome = StepOutcome(elapsed=elapsed, report=report, report_s=report_s,
                          designated=designated, keyvalue=keyvalue)
    if command.span_id is not None:
        outcome.spans = [("worker.compute", elapsed,
                          {"phase": command.phase}),
                         ("worker.report", report_s, {})]
    return outcome


# ---------------------------------------------------------------------------
# The backend protocol
# ---------------------------------------------------------------------------
class ExecutorSession(abc.ABC):
    """One engine run's execution context.

    Created by :meth:`ExecutorBackend.open` with the program, query and
    fragments bound; the engine then drives supersteps through
    :meth:`step` and pulls states back for Assemble.
    """

    #: serialized bytes that crossed a process pipe (0 for inline backends)
    pipe_bytes: int = 0
    #: serialized bytes of per-fragment deltas replayed on workers to
    #: bring cached fragment copies current (0 for inline backends)
    delta_bytes_shipped: int = 0
    #: fragments shipped to workers in full during open()
    fragments_shipped: int = 0
    #: fragments brought current worker-side by delta replay instead
    fragments_delta_shipped: int = 0
    #: serialized bytes of whole-fragment payloads that crossed the pipe
    #: (zero on the shared-memory descriptor path — workers attach the
    #: published segments instead of receiving fragment pickles)
    fragment_bytes_shipped: int = 0
    #: fragments that fell back to pickle shipping because a segment
    #: could not be published or attached (permissions, exhausted
    #: /dev/shm, injected ``exec.shm.attach`` faults)
    shm_fallbacks: int = 0
    #: hung-worker grace (seconds without a heartbeat before the worker
    #: is declared dead); set by the engine after open, honored by
    #: remote sessions on every exchange, ignored by inline ones
    hang_timeout: Optional[float] = None

    @abc.abstractmethod
    def init_states(self) -> None:
        """Create every fragment's state via ``program.init_state``."""

    @abc.abstractmethod
    def apply_preprocess(self, payloads: Dict[int, Any]) -> None:
        """Deliver pre-PEval payloads (``program.apply_preprocess``)."""

    @abc.abstractmethod
    def step(self, commands: Dict[int, StepCommand], *,
             deadline: Optional[float] = None,
             cancel: Optional[threading.Event] = None,
             ) -> Dict[int, StepOutcome]:
        """Execute one superstep: one command per fragment id.

        ``deadline`` is an absolute ``time.monotonic`` cutoff and
        ``cancel`` a cooperative abort flag; remote sessions watch both
        while waiting on worker replies, inline sessions leave
        enforcement to the engine's superstep-boundary checks (an
        in-process compute cannot be preempted safely).
        """

    @abc.abstractmethod
    def collect_states(self) -> Dict[int, Any]:
        """The per-fragment states (pulled back from workers if remote)."""

    def replace_states(self, states: Dict[int, Any]) -> None:
        """Overwrite every fragment state (checkpoint recovery)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpoint recovery")

    def close(self) -> None:
        """Release resources (workers return to their backend's pool)."""


class ExecutorBackend(abc.ABC):
    """A way of executing per-fragment work: the *inline* backends
    (serial, thread) run everything in the coordinator process, the
    process backend on a pool of worker processes."""

    name: str = "abstract"

    @abc.abstractmethod
    def open(self, program, query, fragmentation, *, num_workers: int,
             trace=None) -> ExecutorSession:
        """Bind a session for one engine run.

        ``trace`` is an optional :class:`repro.obs.trace.Span` the
        backend may hang session-setup child spans off (fragment
        shipping, shm attaches, delta replay).  Inline backends have no
        setup work and ignore it.
        """

    def close(self) -> None:
        """Release long-lived resources (worker processes, thread pools)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# Inline backends (serial / thread)
# ---------------------------------------------------------------------------
class _InlineSession(ExecutorSession):
    """States live in the coordinator; compute runs in-process."""

    def __init__(self, backend: "ExecutorBackend", program, query,
                 fragmentation, num_workers: int):
        self._backend = backend
        self._program = program
        self._query = query
        self._fragments = {f.fid: f for f in fragmentation.fragments}
        self._num_workers = num_workers
        self._states: Dict[int, Any] = {}
        self._step_index = 0

    def init_states(self) -> None:
        self._states = {fid: self._program.init_state(self._query, frag)
                        for fid, frag in self._fragments.items()}

    def apply_preprocess(self, payloads: Dict[int, Any]) -> None:
        for fid, payload in payloads.items():
            self._program.apply_preprocess(self._query, self._fragments[fid],
                                           self._states[fid], payload)

    def step(self, commands: Dict[int, StepCommand], *,
             deadline: Optional[float] = None,
             cancel: Optional[threading.Event] = None,
             ) -> Dict[int, StepOutcome]:
        step_index = self._step_index
        self._step_index += 1

        def run_one(fid: int) -> Tuple[int, Optional[StepOutcome]]:
            fault = commands[fid].fault
            if fault is not None:
                # Inline acting of plane faults: a "crash" computes
                # nothing; "hang"/"slow" stall the compute, which the
                # engine's deadline check bounds at the next superstep.
                if fault.kind == "crash":
                    return fid, None
                if fault.kind == "hang":
                    time.sleep(float(fault.param("hang_s", 0.5)))
                elif fault.kind == "slow":
                    time.sleep(float(fault.param("delay_s", 0.05)))
            outcome = _execute_command(self._program, self._query,
                                       self._fragments[fid],
                                       self._states[fid], commands[fid])
            return fid, outcome

        outcomes = dict(self._backend._map(run_one, sorted(commands),
                                           self._num_workers))
        # Raised only once every task has finished, so nothing is still
        # computing while the engine restores the checkpoint — a crashed
        # worker is recovered like a dead process.
        crashed = [fid for fid, outcome in outcomes.items()
                   if outcome is None]
        if crashed:
            raise WorkerFailure(worker=crashed[0], superstep=step_index)
        return outcomes

    def collect_states(self) -> Dict[int, Any]:
        return self._states

    def replace_states(self, states: Dict[int, Any]) -> None:
        self._states.clear()
        self._states.update(states)


class SerialBackend(ExecutorBackend):
    """Deterministic single-threaded execution (the default)."""

    name = "serial"

    def open(self, program, query, fragmentation, *, num_workers: int,
             trace=None) -> ExecutorSession:
        return _InlineSession(self, program, query, fragmentation,
                              num_workers)

    @staticmethod
    def _map(fn: Callable[[Any], Any], items: List[Any],
             width: int) -> List[Any]:
        return [fn(item) for item in items]


class ThreadBackend(SerialBackend):
    """Thread-pool execution: the serial backend's sessions, their steps
    mapped over a pool.

    Worker times are still per-task perf counters and the counts are
    unaffected; wall-clock gains are limited to GIL-dropping kernels.
    """

    name = "thread"

    def __init__(self):
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_width = 0
        self._retired: List[ThreadPoolExecutor] = []
        self._lock = threading.Lock()

    def _pool_for(self, width: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None or self._pool_width < width:
                if self._pool is not None:
                    # a concurrent session may still be mapping over it;
                    # retire it instead of shutting it down under them
                    self._retired.append(self._pool)
                self._pool = ThreadPoolExecutor(
                    max_workers=width, thread_name_prefix="repro-exec")
                self._pool_width = width
            return self._pool

    def _map(self, fn: Callable[[Any], Any], items: List[Any],
             width: int) -> List[Any]:
        if len(items) <= 1:
            return SerialBackend._map(fn, items, width)
        return list(self._pool_for(max(2, width)).map(fn, items))

    def close(self) -> None:
        with self._lock:
            pools = self._retired + ([self._pool] if self._pool else [])
            self._pool = None
            self._pool_width = 0
            self._retired = []
        for pool in pools:
            pool.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Process backend plumbing
# ---------------------------------------------------------------------------
#: payloads at least this large ride shared memory instead of the pipe
_SHM_THRESHOLD = 1 << 20


def _shm_dir() -> Optional[str]:
    """Writable tmpfs for bulk transfers, if the platform provides one.

    ``/dev/shm`` is POSIX shared memory by another name — a file there
    never touches a disk, so the receiver reads the sender's pages
    straight from the page cache.  Files sidestep the
    ``multiprocessing.shared_memory`` resource-tracker accounting, which
    (before the 3.13 ``track=`` parameter) cannot express a segment
    created in one process and unlinked in another without spurious
    KeyErrors or leak warnings.
    """
    path = "/dev/shm"
    if os.path.isdir(path) and os.access(path, os.W_OK):
        return path
    return None


_SHM_DIR = _shm_dir()


def _pickle_payload(obj: Any) -> bytes:
    """Pickle a cross-process payload, translating failures into the
    actionable :class:`UnpicklableProgramError` (used both by the
    channel framing and by pre-pickled fragment/replay blobs, which are
    serialized early so their byte size can be accounted)."""
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise UnpicklableProgramError(
            f"payload cannot cross the process boundary: {exc}\n"
            "backend='process' requires the PIE program, its query, "
            "its states and every fragment to be picklable — define "
            "programs at module level and keep state dataclasses free "
            "of locks, generators and open handles (see README, "
            "'Execution backends').") from exc


class _Channel:
    """Request/reply framing over a multiprocessing connection.

    Every payload is pickled explicitly (so pickle-safety is enforced even
    under the ``fork`` start method) and counted; payloads above
    ``_SHM_THRESHOLD`` are written to a shared-memory file with only the
    path crossing the pipe.  The receiver reads the bytes out and unlinks
    the file immediately; a file whose sender was killed before that
    carries the sender's PID in the segments' namespace, so
    :func:`repro.runtime.shm.sweep_stale` reclaims it.
    """

    def __init__(self, conn):
        self._conn = conn
        self.bytes_sent = 0
        self.bytes_received = 0
        # shm files we created whose consumption is not yet confirmed;
        # request/reply framing means a successful recv() proves the
        # peer consumed everything sent before it, and close() unlinks
        # whatever is still pending (peer died mid-exchange) so crashed
        # workers cannot leak RAM-backed tmpfs files.
        self._pending_shm: List[str] = []

    def send(self, obj: Any) -> int:
        blob = _pickle_payload(obj)
        self.bytes_sent += len(blob)
        if _SHM_DIR is not None and len(blob) >= _SHM_THRESHOLD:
            path = None
            try:
                import tempfile
                fd, path = tempfile.mkstemp(prefix=shm.spill_prefix(),
                                            dir=_SHM_DIR)
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
            except OSError:  # tmpfs full or gone: fall back to the pipe
                if path is not None:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            else:
                self._pending_shm.append(path)
                self._conn.send_bytes(pickle.dumps(("shm", path)))
                return len(blob)
        self._conn.send_bytes(pickle.dumps(("pipe",)))
        self._conn.send_bytes(blob)
        return len(blob)

    def poll(self, timeout: float) -> bool:
        """Whether a reply is ready within ``timeout`` seconds."""
        return self._conn.poll(timeout)

    def recv(self) -> Any:
        header = pickle.loads(self._conn.recv_bytes())
        if header[0] == "shm":
            path = header[1]
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            finally:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - already gone
                    pass
        else:
            blob = self._conn.recv_bytes()
        self.bytes_received += len(blob)
        # the peer replied, so everything we sent before is consumed
        self._pending_shm.clear()
        return pickle.loads(blob)

    def close(self) -> None:
        self._conn.close()
        for path in self._pending_shm:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._pending_shm.clear()


#: fragmentation tokens a pooled worker keeps resident; least recently
#: used beyond this are evicted (mirrored coordinator-side in
#: ``_evict_cached`` — the two policies must stay identical)
_WORKER_CACHE_TOKENS = 8


def _evict_cached(cache: Dict[Any, Any], token) -> List[Any]:
    """Shared LRU policy for the worker fragment cache and its
    coordinator-side mirror: ``token`` becomes most recently used, older
    versions of the same fragmentation go immediately, and the least
    recently used entries are dropped beyond ``_WORKER_CACHE_TOKENS`` —
    a long-running pool must not accumulate every graph it ever served.
    Returns the evicted tokens so callers can release shared-memory
    pins tied to them.
    """
    evicted: List[Any] = []
    for stale in [t for t in cache if t[0] == token[0] and t != token]:
        del cache[stale]
        evicted.append(stale)
    if token in cache:  # refresh recency (dicts keep insertion order)
        cache[token] = cache.pop(token)
    while len(cache) > _WORKER_CACHE_TOKENS:
        oldest = next(t for t in cache if t != token)
        del cache[oldest]
        evicted.append(oldest)
    return evicted


#: how often a pooled worker writes its heartbeat (seconds)
_HEARTBEAT_INTERVAL_S = 0.02
#: how often a waiting coordinator re-polls the reply pipe (seconds)
_RECV_POLL_S = 0.02


def _apply_worker_fault(action: FaultAction,
                        hb_pause: "threading.Event") -> None:
    # pragma: no cover - runs in child process
    """Act out an injected ``exec.step`` fault inside a pooled worker.

    ``crash`` exits the process hard (no cleanup — that is the point);
    ``hang`` freezes the worker *including its heartbeat thread* for
    ``hang_s`` (a truly wedged process beats nothing), which is what
    makes coordinator-side missed-heartbeat detection honest; ``slow``
    just delays the compute, heartbeats still flowing.
    """
    kind = action.kind
    if kind == "crash":
        os._exit(32)
    elif kind == "hang":
        hb_pause.set()
        try:
            time.sleep(float(action.param("hang_s", 30.0)))
        finally:
            hb_pause.clear()
    elif kind == "slow":
        time.sleep(float(action.param("delay_s", 0.05)))


#: a fragment's lifetime counters of snapshot and table derivations, in
#: the order of ``Fragment.count_remote_csr_work``'s parameters
_DERIVED_WORK = attrgetter("csr_builds", "csr_patches", "tables_rebuilt")


def _worker_main(conn, heartbeat=None) -> None:
    # pragma: no cover - runs in child process
    """Worker process loop: hold fragments + states resident, serve steps.

    Fragments are cached per fragmentation token across sessions (LRU,
    bounded by ``_WORKER_CACHE_TOKENS``), so a pool worker that recently
    served a graph skips the re-ship entirely; CSR snapshots are rebuilt
    lazily on this side of the pipe (they are dropped from the
    fragment's pickled form).

    ``heartbeat`` is a shared ``multiprocessing.Value('d')`` this worker
    keeps stamped with ``time.monotonic()`` from a daemon thread; the
    coordinator reads it to distinguish *slow* (still beating) from
    *hung* (beats stopped) while waiting on a reply.
    """
    channel = _Channel(conn)
    # a fork copies the fill lock as it was: held, if a thread was filling
    DeferredGraph._lock = threading.RLock()
    hb_pause = threading.Event()
    if heartbeat is not None:
        def _beat():
            while True:
                if not hb_pause.is_set():
                    heartbeat.value = time.monotonic()
                time.sleep(_HEARTBEAT_INTERVAL_S)
        threading.Thread(target=_beat, daemon=True,
                         name="repro-heartbeat").start()
    program = query = None
    fragments: Dict[int, Any] = {}
    states: Dict[int, Any] = {}
    frag_cache: Dict[Any, Dict[int, Any]] = {}
    # fid -> _DERIVED_WORK counts already reported to the coordinator,
    # and the dict graph fills (a forked worker starts at its parent's)
    build_base: Dict[int, Tuple[int, ...]] = {}
    fills_base = DeferredGraph.materialised
    # (token_id, fid) -> mapped shared segment backing that fragment's
    # CSR views; kept pinned for as long as the fragment could be served
    # from cache (dropping the reference unmaps, and unlinked segments
    # free their pages only once every mapping is gone)
    seg_keep: Dict[Tuple[int, int], Any] = {}
    # set between an "init" whose attaches partially failed and the
    # coordinator's follow-up "ship" of the failed fragments
    pending: Optional[Tuple[Any, List[int]]] = None

    def _finalize(token, fids):
        nonlocal fragments, states, build_base
        cache = frag_cache[token]
        fragments = {fid: cache[fid] for fid in fids}
        states = {}
        build_base = {fid: _DERIVED_WORK(frag)
                      for fid, frag in fragments.items()}

    def _drop_dead_pins():
        live_tids = {t[0] for t in frag_cache}
        for key in [k for k in seg_keep if k[0] not in live_tids]:
            del seg_keep[key]

    while True:
        try:
            msg = channel.recv()
        except (EOFError, OSError):
            break
        try:
            kind = msg[0]
            if kind == "init":
                (token, program, query, ship_blob, reuse_fids,
                 base_token, replay_blob, descriptors, shm_fault,
                 want_trace) = msg[1:]
                # tracing: worker-side setup measurements shipped back
                # by value as (name, duration_s, tags) tuples
                wspans: List[Tuple[str, float, Dict]] = []
                # fragment and replay payloads arrive pre-pickled (the
                # coordinator sizes them once for byte accounting)
                t0 = time.perf_counter()
                shipped = pickle.loads(ship_blob) if ship_blob else {}
                if want_trace and ship_blob:
                    wspans.append(("fragment.load",
                                   time.perf_counter() - t0,
                                   {"fragments": len(shipped)}))
                replay = pickle.loads(replay_blob) if replay_blob else {}
                if base_token is not None and base_token in frag_cache:
                    # Cached copies of an older version: replay the
                    # logged per-fragment deltas to bring them current,
                    # then re-key the whole entry under the new token.
                    # Transition order mirrors the coordinator's cache
                    # mirror exactly.
                    frag_cache[token] = frag_cache.pop(base_token)
                cache = frag_cache.setdefault(token, {})
                for fid, deltas in (replay or {}).items():
                    frag = cache.get(fid)
                    if frag is not None:
                        t0 = time.perf_counter()
                        for delta in deltas:
                            delta.replay(frag)
                        if want_trace:
                            wspans.append(("delta.replay",
                                           time.perf_counter() - t0,
                                           {"fid": fid,
                                            "deltas": len(deltas)}))
                        # the copy moved past its segment (which stays
                        # mapped while a retired snapshot views it)
                        seg_keep.pop((token[0], fid), None)
                # shared-memory attaches: map each published segment and
                # wrap zero-copy CSR views; any failure falls back to a
                # coordinator re-ship of that fragment
                failed: List[int] = []
                for fid, desc in (descriptors or {}).items():
                    timings = {} if want_trace else None
                    try:
                        if shm_fault is not None:
                            raise OSError(
                                "injected exec.shm.attach fault")
                        frag, seg = shm.attach_fragment(desc,
                                                        timings=timings)
                    except Exception:
                        failed.append(fid)
                        cache.pop(fid, None)
                        seg_keep.pop((token[0], fid), None)
                    else:
                        cache[fid] = frag
                        seg_keep[(token[0], fid)] = seg
                        if want_trace:
                            wspans.append(("shm.attach",
                                           timings.get("attach_s", 0.0),
                                           {"fid": fid}))
                            wspans.append(("csr.install",
                                           timings.get("install_s", 0.0),
                                           {"fid": fid}))
                cache.update(shipped)
                if _evict_cached(frag_cache, token):
                    _drop_dead_pins()
                want = (list(shipped) + list(reuse_fids)
                        + [f for f in (descriptors or {})
                           if f not in failed])
                if failed:
                    # hold finalization until the pickle fallback lands
                    fragments = {}
                    pending = (token, want)
                else:
                    pending = None
                    _finalize(token, want)
                channel.send(("ok", (failed, wspans)))
            elif kind == "ship":
                # pickle fallback for fragments whose attach failed
                extra = pickle.loads(msg[1]) if msg[1] else {}
                token, want = pending
                pending = None
                frag_cache[token].update(extra)
                _finalize(token, want + list(extra))
                channel.send(("ok", None))
            elif kind == "init_states":
                states = {fid: program.init_state(query, frag)
                          for fid, frag in fragments.items()}
                channel.send(("ok", None))
            elif kind == "preprocess":
                for fid, payload in msg[1].items():
                    program.apply_preprocess(query, fragments[fid],
                                             states[fid], payload)
                channel.send(("ok", None))
            elif kind == "step":
                for command in msg[1].values():
                    if command.fault is not None:
                        _apply_worker_fault(command.fault, hb_pause)
                outcomes = {
                    fid: _execute_command(program, query, fragments[fid],
                                          states[fid], command)
                    for fid, command in msg[1].items()}
                channel.send(("ok", outcomes))
            elif kind == "set_states":
                # checkpoint recovery: overwrite this worker's share of
                # the states with the coordinator's restored snapshot
                states.update(msg[1])
                channel.send(("ok", None))
            elif kind == "collect":
                done = {fid: _DERIVED_WORK(frag)
                        for fid, frag in fragments.items()}
                builds = {fid: tuple(map(int.__sub__, work,
                                         build_base.get(fid, (0,) * 3)))
                          for fid, work in done.items()}
                build_base = done
                fills = DeferredGraph.materialised - fills_base
                fills_base += fills
                channel.send(("ok", (states, builds, fills)))
            elif kind == "close":
                channel.send(("ok", None))
                break
            else:
                raise ValueError(f"unknown worker request {kind!r}")
        except BaseException as exc:  # surface to the coordinator
            text = traceback.format_exc()
            try:
                channel.send(("error", exc, text))
            except Exception:
                channel.send(("error",
                              RuntimeError(f"{type(exc).__name__}: {exc}"),
                              text))
    channel.close()


class _WorkerHandle:
    """Coordinator-side view of one pooled worker process."""

    def __init__(self, ctx, index: int):
        parent, child = ctx.Pipe(duplex=True)
        #: last heartbeat the worker stamped (CLOCK_MONOTONIC is
        #: system-wide on the platforms we run on, so parent and child
        #: read the same clock)
        self.heartbeat = ctx.Value("d", time.monotonic())
        self.process = ctx.Process(target=_worker_main,
                                   args=(child, self.heartbeat),
                                   daemon=True,
                                   name=f"repro-worker-{index}")
        self.process.start()
        child.close()
        self.channel = _Channel(parent)
        #: fragmentation token -> fids this worker holds resident
        self.cached: Dict[Any, set] = {}
        #: the (token_id, fid) segments this worker has mapped; each
        #: holds one arena refcount, released when the pin is dropped
        #: (mirrors the worker's ``seg_keep``)
        self.shm_attached: Set[Tuple[int, int]] = set()
        #: set the moment a pipe error is observed: ``is_alive`` can
        #: race True for a few microseconds after a SIGKILL, and a dead
        #: handle slipping back into the idle pool would poison the
        #: next lease
        self._dead = False

    def request(self, payload: Any) -> Any:
        """One blocking request/reply exchange; re-raises worker errors."""
        self.send(payload)
        return self.receive()

    def send(self, payload: Any) -> None:
        try:
            self.channel.send(payload)
        except UnpicklableProgramError:
            raise
        except (BrokenPipeError, OSError) as exc:
            self._dead = True
            raise WorkerProcessDied(
                f"process-backend worker {self.process.name} died "
                f"(exitcode={self.process.exitcode})") from exc

    def receive(self, *, deadline: Optional[float] = None,
                hang_timeout: Optional[float] = None,
                cancel: Optional[threading.Event] = None) -> Any:
        """Wait for the worker's reply.

        With no watch parameters this blocks indefinitely (seed
        behavior).  Otherwise the reply pipe is polled and, between
        polls: a set ``cancel`` event abandons the exchange
        (:exc:`~repro.resilience.errors.QueryCancelled`); a heartbeat
        older than ``hang_timeout`` declares the worker hung
        (:exc:`WorkerHung`); a ``time.monotonic()`` past ``deadline``
        raises :exc:`~repro.resilience.errors.DeadlineExceeded`.  In
        all three cases the worker is killed and the handle marked dead
        — a worker mid-compute would otherwise push a stale reply at
        whichever session leases it next.  A reply that is already
        ready is always consumed, even past the deadline.
        """
        if deadline is None and hang_timeout is None and cancel is None:
            return self._receive_blocking()
        while True:
            try:
                ready = self.channel.poll(_RECV_POLL_S)
            except (EOFError, OSError) as exc:
                self._dead = True
                raise WorkerProcessDied(
                    f"process-backend worker {self.process.name} died "
                    f"(exitcode={self.process.exitcode})") from exc
            if ready:
                return self._receive_blocking()
            now = time.monotonic()
            if cancel is not None and cancel.is_set():
                self._abandon()
                raise QueryCancelled(
                    f"query cancelled while worker {self.process.name} "
                    "was mid-superstep; the worker was replaced")
            if (hang_timeout is not None
                    and now - self.heartbeat.value > hang_timeout):
                self._abandon()
                raise WorkerHung(
                    f"process-backend worker {self.process.name} missed "
                    f"heartbeats for {hang_timeout:.3f}s and was killed")
            if deadline is not None and now > deadline:
                self._abandon()
                raise DeadlineExceeded(
                    f"query deadline passed while waiting on worker "
                    f"{self.process.name}; the worker was replaced")

    def _abandon(self) -> None:
        """Kill the worker and mark this handle dead (the exchange it
        owes a reply for will never complete usefully)."""
        self._dead = True
        try:
            self.process.kill()
        except Exception:  # pragma: no cover - already gone
            pass

    def _receive_blocking(self) -> Any:
        try:
            reply = self.channel.recv()
        except (EOFError, OSError) as exc:
            self._dead = True
            raise WorkerProcessDied(
                f"process-backend worker {self.process.name} died "
                f"(exitcode={self.process.exitcode})") from exc
        if reply[0] == "error":
            _tag, exc, text = reply
            raise exc from RuntimeError(
                f"in process-backend worker "
                f"{self.process.name}:\n{text}")
        return reply[1]

    def stop(self) -> None:
        try:
            self.request(("close", None))
        except Exception:
            pass
        self.channel.close()
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=2.0)

    @property
    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()


class _ProcessSession(ExecutorSession):
    """A run leasing workers from a :class:`ProcessBackend` pool.

    Fragments are shipped during :meth:`ProcessBackend.open` (and only
    the ones each worker does not already cache for this fragmentation
    token); afterwards every superstep exchanges just commands and
    outcomes.  States are created and mutated worker-side and pulled back
    exactly once, for Assemble.
    """

    def __init__(self, backend: "ProcessBackend",
                 handles: List[_WorkerHandle],
                 placement: Dict[int, _WorkerHandle],
                 fragmentation, byte_base: int):
        self._backend = backend
        self._handles = handles
        self._placement = placement
        self._fragmentation = fragmentation
        self._closed = False
        self._byte_base = byte_base
        self._account()

    # -- plumbing -------------------------------------------------------
    def _broadcast(self, make_payload, *,
                   deadline: Optional[float] = None,
                   cancel: Optional[threading.Event] = None) -> List[Any]:
        """Send one request to every leased worker, then gather replies.

        Requests are written before any reply is read so the workers
        deserialize and compute concurrently.  Every sent request has its
        reply drained even when one worker errors — an unconsumed reply
        would desynchronize the channel for whichever session leases the
        worker next.  The first error is re-raised after the drain.

        Every receive watches the session's ``hang_timeout`` (hung-worker
        detection applies to any exchange, checkpoint collection
        included); step exchanges additionally thread the query's
        ``deadline`` and ``cancel`` through.  A timed-out/hung/cancelled
        worker was killed by its handle, so its "reply" surfaces as the
        typed error — the drain loop's job is only to keep healthy
        workers' channels synchronized.
        """
        first_error: Optional[BaseException] = None
        sent: List[_WorkerHandle] = []
        for handle in self._handles:
            try:
                handle.send(make_payload(handle))
            except BaseException as exc:
                first_error = exc
                break
            sent.append(handle)
        replies: List[Any] = []
        for handle in sent:
            try:
                replies.append(handle.receive(
                    deadline=deadline, hang_timeout=self.hang_timeout,
                    cancel=cancel))
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
                replies.append(None)
        if first_error is not None:
            raise first_error
        return replies

    def _fids_of(self, handle: _WorkerHandle) -> List[int]:
        return [fid for fid, h in self._placement.items() if h is handle]

    def _account(self) -> None:
        total = sum(h.channel.bytes_sent + h.channel.bytes_received
                    for h in self._handles)
        self.pipe_bytes = total - self._byte_base

    # -- session protocol ----------------------------------------------
    def init_states(self) -> None:
        self._broadcast(lambda handle: ("init_states", None))
        self._account()

    def apply_preprocess(self, payloads: Dict[int, Any]) -> None:
        self._broadcast(lambda handle: ("preprocess", {
            fid: payloads[fid] for fid in self._fids_of(handle)
            if fid in payloads}))
        self._account()

    def step(self, commands: Dict[int, StepCommand], *,
             deadline: Optional[float] = None,
             cancel: Optional[threading.Event] = None,
             ) -> Dict[int, StepOutcome]:
        replies = self._broadcast(lambda handle: ("step", {
            fid: commands[fid] for fid in self._fids_of(handle)
            if fid in commands}), deadline=deadline, cancel=cancel)
        self._account()
        outcomes: Dict[int, StepOutcome] = {}
        for reply in replies:
            outcomes.update(reply)
        return outcomes

    def replace_states(self, states: Dict[int, Any]) -> None:
        """Overwrite worker-resident states (checkpoint recovery): each
        leased worker receives its placed fragments' restored states."""
        self._broadcast(lambda handle: ("set_states", {
            fid: states[fid] for fid in self._fids_of(handle)
            if fid in states}))
        self._account()

    def collect_states(self) -> Dict[int, Any]:
        states: Dict[int, Any] = {}
        for worker_states, builds, fills in self._broadcast(
                lambda handle: ("collect", None)):
            states.update(worker_states)
            # Fold worker-side snapshot builds and splices, table
            # derivations and dict graph fills into the coordinator's
            # counters so service-level metrics stay meaningful.
            for fid, work in builds.items():
                self._fragmentation[fid].count_remote_csr_work(*work)
            with DeferredGraph._lock:
                DeferredGraph.materialised += fills
        self._account()
        return states

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._account()
            self._backend._release(self._handles)


class ProcessBackend(ExecutorBackend):
    """Persistent ``multiprocessing`` worker pool.

    Workers are spawned lazily, leased to one session (= one engine run)
    at a time, and returned to the pool afterwards with their fragment
    cache intact — a served graph is shipped to a given worker once, not
    once per query.  Graph mutations bump the fragmentation's cache
    token; on the next lease a worker's stale copies are brought current
    by replaying the fragmentation's logged per-fragment deltas (the
    happy path for churn workloads) and re-shipped in full only when the
    bounded delta log has a gap.

    Workers start by the platform's default ``multiprocessing`` method;
    payloads are explicitly pickled through the pipe, so pickle-safety
    is enforced whatever it is.  Fragments ride the shared-memory plane
    when the platform supports it (see
    :func:`repro.runtime.shm.shm_available`) and the pipe otherwise.

    Parameters
    ----------
    max_workers:
        Optional hard cap on pool size (default: grow with demand).
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        import multiprocessing
        self._ctx = multiprocessing.get_context()
        self._max_workers = max_workers
        self._idle: List[_WorkerHandle] = []
        self._spawned = 0
        self._lock = threading.Lock()
        self._closed = False
        # the arena LRU mirrors the worker fragment-cache bound so a
        # segment outlives every cache entry that may reference it
        self._arena = (shm.ShmArena(max_tokens=_WORKER_CACHE_TOKENS)
                       if shm.shm_available() else None)

    # ------------------------------------------------------------------
    def open(self, program, query, fragmentation, *, num_workers: int,
             trace=None) -> ExecutorSession:
        fragments = fragmentation.fragments
        token = fragmentation.cache_token
        want = min(max(1, num_workers), max(1, len(fragments)))
        handles = self._acquire(want, token)
        # Channels outlive sessions (the pool is persistent); the session
        # is billed for everything beyond this point, fragment shipping
        # included.
        byte_base = sum(h.channel.bytes_sent + h.channel.bytes_received
                        for h in handles)
        delta_bytes = 0
        full_shipped = 0
        delta_shipped = 0
        fragment_bytes = 0
        shm_fallbacks = 0
        arena = self._arena
        try:
            placement: Dict[int, _WorkerHandle] = {
                frag.fid: handles[i % len(handles)]
                for i, frag in enumerate(fragments)}
            for handle in handles:
                init_span = (trace.child("worker.init",
                                         worker=handle.process.name)
                             if trace is not None else None)
                assigned = {fid for fid, h in placement.items()
                            if h is handle}
                cached = set(handle.cached.get(token, set()))
                base_token = None
                replay: Dict[int, list] = {}
                if not cached:
                    # The worker may hold this fragmentation at an older
                    # version: if the delta log covers the gap for every
                    # fragment it caches, ship the compact per-fragment
                    # deltas for replay instead of whole fragments.
                    older = [t for t in handle.cached
                             if t[0] == token[0] and t[1] < token[1]]
                    if older:
                        candidate = max(older, key=lambda t: t[1])
                        held = set(handle.cached[candidate])
                        chain = fragmentation.replay_chain(
                            candidate[1], token[1], held)
                        if chain is not None:
                            base_token = candidate
                            replay = chain
                            cached = held
                need = sorted(assigned - cached)
                reuse = sorted(assigned & cached)
                # Fragments the worker lacks ride shared memory when a
                # segment can be published; each publish failure counts
                # as one fallback onto the pickle path.
                descriptors: Dict[int, Any] = {}
                ship: Dict[int, Any] = {}
                for fid in need:
                    desc = None
                    if arena is not None:
                        desc = arena.descriptor_for(
                            token[0], token[1], fragmentation[fid])
                        if desc is None:
                            shm_fallbacks += 1
                            _events.emit("shm.fallback", stage="publish",
                                         fid=fid)
                    if desc is not None:
                        descriptors[fid] = desc
                    else:
                        ship[fid] = fragmentation[fid]
                # Pickle bulk payloads exactly once: the blobs both
                # cross the pipe and are the byte-accounting figures.
                replay_blob = None
                if replay:
                    replay_blob = pickle.dumps(
                        replay, protocol=pickle.HIGHEST_PROTOCOL)
                    delta_shipped += len(replay)
                    delta_bytes += len(replay_blob)
                ship_blob = None
                if ship:
                    ship_blob = _pickle_payload(ship)
                    fragment_bytes += len(ship_blob)
                shm_fault = (_fault_plane.check("exec.shm.attach")
                             if descriptors else None)
                failed, init_spans = handle.request((
                    "init", token, program, query, ship_blob, reuse,
                    base_token, replay_blob, descriptors, shm_fault,
                    init_span is not None))
                failed = failed or []
                if init_span is not None:
                    for name, duration_s, tags in init_spans or ():
                        init_span.record(name, duration_s, **tags)
                if failed:
                    # the worker could not map these segments: degrade
                    # to pickle shipping for exactly those fragments
                    shm_fallbacks += len(failed)
                    _events.emit("shm.fallback", stage="attach",
                                 worker=handle.process.name,
                                 fragments=len(failed))
                    blob = _pickle_payload(
                        {fid: fragmentation[fid] for fid in failed})
                    fragment_bytes += len(blob)
                    handle.request(("ship", blob))
                # mirror the worker's cache transitions exactly (re-key,
                # merge, LRU-evict), so the coordinator never assumes a
                # fragment the worker dropped
                if base_token is not None:
                    handle.cached[token] = handle.cached.pop(base_token)
                entry = handle.cached.setdefault(token, set())
                handle.cached[token] = entry | assigned
                if _evict_cached(handle.cached, token):
                    self._drop_dead_pins(handle)
                # mirror the worker's segment pins: replayed fragments
                # and failed attaches drop a reference, fresh attaches
                # take one (republished generations carry their refs)
                if arena is not None:
                    pins = handle.shm_attached
                    dropped = {(token[0], fid) for fid in (*replay, *failed)}
                    attached = {(token[0], fid) for fid in descriptors
                                if fid not in failed}
                    for key in dropped & pins:
                        arena.release(*key)
                    for key in attached - pins:
                        arena.retain(*key)
                    handle.shm_attached = (pins - dropped) | attached
                full_shipped += len(need)
                if init_span is not None:
                    init_span.finish()
        except BaseException:
            self._release(handles)
            raise
        session = _ProcessSession(self, handles, placement, fragmentation,
                                  byte_base)
        session.delta_bytes_shipped = delta_bytes
        session.fragments_shipped = full_shipped
        session.fragments_delta_shipped = delta_shipped
        session.fragment_bytes_shipped = fragment_bytes
        session.shm_fallbacks = shm_fallbacks
        return session

    # ------------------------------------------------------------------
    def _drop_dead_pins(self, handle: _WorkerHandle) -> None:
        """Release arena references for segment pins whose fragmentation
        no longer appears anywhere in the handle's cache mirror (the
        worker dropped its mappings with the evicted cache entries)."""
        live_tids = {t[0] for t in handle.cached}
        for key in [k for k in handle.shm_attached
                    if k[0] not in live_tids]:
            handle.shm_attached.remove(key)
            if self._arena is not None:
                self._arena.release(*key)

    def _release_handle_refs(self, handle: _WorkerHandle) -> None:
        """A worker is gone (dead or stopped): its mappings are gone
        with it, so every arena reference it held is returned."""
        pins, handle.shm_attached = handle.shm_attached, set()
        if self._arena is not None:
            for tid, fid in pins:
                self._arena.release(tid, fid)

    def _acquire(self, count: int, token) -> List[_WorkerHandle]:
        with self._lock:
            if self._closed:
                raise RuntimeError("process backend is closed")
            # prefer workers that already hold fragments for this exact
            # token, then workers holding an older version of the same
            # fragmentation (their copies can be brought current by
            # compact delta replay instead of a full re-ship)
            self._idle.sort(key=lambda h: (
                token not in h.cached,
                not any(t[0] == token[0] for t in h.cached)))
            handles: List[_WorkerHandle] = []
            while self._idle and len(handles) < count:
                handle = self._idle.pop(0)
                if handle.alive:
                    handles.append(handle)
                else:
                    self._spawned -= 1
                    self._release_handle_refs(handle)
            while len(handles) < count:
                if (self._max_workers is not None
                        and self._spawned >= self._max_workers):
                    break
                handles.append(_WorkerHandle(self._ctx, self._spawned))
                self._spawned += 1
            if not handles:
                raise RuntimeError(
                    "process backend has no workers available "
                    f"(max_workers={self._max_workers})")
            return handles

    def _release(self, handles: List[_WorkerHandle]) -> None:
        with self._lock:
            if self._closed:
                for handle in handles:
                    handle.stop()
                    self._release_handle_refs(handle)
                return
            for handle in handles:
                if handle.alive:
                    self._idle.append(handle)
                else:
                    self._spawned -= 1
                    self._release_handle_refs(handle)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            handles, self._idle = self._idle, []
        for handle in handles:
            handle.stop()
            self._release_handle_refs(handle)
        if self._arena is not None:
            self._arena.close()

    def shm_stats(self) -> Tuple[int, int]:
        """(active segments, mapped bytes) owned by this backend's
        shared-memory arena; ``(0, 0)`` when the plane is disabled."""
        return self._arena.stats() if self._arena is not None else (0, 0)

    @property
    def pool_size(self) -> int:
        """Workers currently alive (leased + idle)."""
        with self._lock:
            return self._spawned

    def __repr__(self) -> str:
        return (f"ProcessBackend(workers={self.pool_size}, "
                f"idle={len(self._idle)})")


# ---------------------------------------------------------------------------
# Named backend registry
# ---------------------------------------------------------------------------
_ALIASES = {
    "serial": "serial",
    "sync": "serial",
    "thread": "thread",
    "threads": "thread",
    "process": "process",
    "processes": "process",
    "mp": "process",
}

_FACTORIES = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}

_shared: Dict[str, ExecutorBackend] = {}
_shared_lock = threading.Lock()


def available_backends() -> List[str]:
    """Canonical backend names accepted by ``resolve_backend``."""
    return sorted(_FACTORIES)


def backend_name(spec: str) -> str:
    """The canonical name of a backend name or alias; instantiates
    nothing."""
    if not isinstance(spec, str):
        raise TypeError(f"backend must be a name or an ExecutorBackend "
                        f"instance, got {spec!r}")
    canonical = _ALIASES.get(spec.strip().lower())
    if canonical is None:
        raise ValueError(f"unknown backend {spec!r}; "
                         f"available: {available_backends()}")
    return canonical


def resolve_backend(spec: Union[str, ExecutorBackend, None],
                    ) -> ExecutorBackend:
    """Turn a backend spec (name, instance or ``None``) into a backend.

    Named lookups return one shared instance per canonical name — every
    engine asking for ``"process"`` leases workers from the same warm
    pool.  ``None`` falls back to the ``REPRO_BACKEND`` environment
    variable, then to ``"serial"``.
    """
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or "serial"
    canonical = backend_name(spec)
    with _shared_lock:
        backend = _shared.get(canonical)
        if backend is None or getattr(backend, "_closed", False):
            # a closed shared pool (e.g. a benchmark tearing down its
            # workers) is replaced by a fresh instance on next lookup
            backend = _shared[canonical] = _FACTORIES[canonical]()
        return backend


@atexit.register
def _shutdown_shared_backends() -> None:  # pragma: no cover - exit path
    with _shared_lock:
        backends = list(_shared.values())
        _shared.clear()
    for backend in backends:
        try:
            backend.close()
        except Exception:
            pass
