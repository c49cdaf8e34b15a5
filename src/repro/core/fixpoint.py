"""The superstep driver: one round, one loop (paper Section 3.2).

The paper has one simultaneous fixpoint — PEval, then IncEval until no
update parameter moves.  :class:`Fixpoint` is the run object both callers
drive: :meth:`~Fixpoint.superstep` is a round, written once (step the
fragments, record, fold the reports, compose and price the next round's
messages, route the explicit channels, checkpoint) and
:meth:`~Fixpoint.drain` the one loop that repeats it.  Callers replace
only the *step* — where a round's compute runs:

* :class:`~repro.core.engine.GrapeEngine` steps through an executor
  session and replays a round through worker failures;
* :class:`~repro.core.updates.ContinuousQuerySession` does the first
  superstep of a batch itself (:meth:`~Fixpoint.record` +
  :meth:`~Fixpoint.settle`) and drains the rest with the in-process step
  defined here, over its own states.

**One accounting rule.**  The traffic a round produces — reports up,
messages and explicit channels down — is charged to the superstep that
consumes it; what the last round leaves reaches no superstep but is
communication all the same (:meth:`~Fixpoint.finish`).
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.coordinator import Coordinator
from repro.core.pie import PIEProgram
from repro.obs.trace import Span
from repro.partition.base import Fragmentation
from repro.runtime.executors import (PHASE_INC, PHASE_PEVAL, StepOutcome,
                                     read_report)
from repro.runtime.message import stable_hash
from repro.runtime.metrics import (CostModel, RunMetrics, message_bytes,
                                   physical_times)

__all__ = ["Fixpoint", "route_channels"]


class Fixpoint:
    """One fixpoint computation over a fragmentation: the coordinator
    that folds and composes, the metrics its rounds are recorded in, the
    budget of rounds.  ``states`` are what the in-process :meth:`step`
    works on; ``trace`` gets one ``superstep`` span per round."""

    #: phase a non-first round runs (GRAPE-NI overrides)
    phase = PHASE_INC

    def __init__(self, program: PIEProgram, query: Any,
                 fragmentation: Fragmentation, coordinator: Coordinator,
                 metrics: RunMetrics, *, num_workers: int,
                 cost_model: Optional[CostModel] = None,
                 max_supersteps: int = 100_000,
                 trace: Optional[Span] = None):
        self.program = program
        self.query = query
        self.fragments = fragmentation.fragments
        self.coordinator = coordinator
        self.metrics = metrics
        self.num_workers = num_workers
        self.cost_model = cost_model or CostModel()
        self.max_supersteps = max_supersteps
        self.trace = trace
        self.states: Dict[int, Any] = {}
        #: traffic the last round produced, not yet charged to a superstep
        self.bytes_in = 0
        self.msgs_in = 0
        self._span_index = itertools.count()

    def step(self, messages: Dict[int, Any], designated, keyvalue,
             first_round: bool, span: Optional[Span]):
        """Run one round's compute and read the reports: ``(times,
        reports, outcomes)`` — compute seconds and post-step report of
        every stepped fragment, and their
        :class:`~repro.runtime.executors.StepOutcome` when the step went
        through an executor session (else ``None``).

        This is the in-process step on the dict protocol: PEval (first
        round) or IncEval of exactly the fragments ``messages`` names,
        on :attr:`states`.  It carries no explicit channels.
        """
        program, query = self.program, self.query
        times: List[float] = []
        reports: Dict[int, Tuple[str, Any]] = {}
        for fid, message in messages.items():
            fragment, state = self.fragments[fid], self.states[fid]
            start = time.perf_counter()
            if first_round:
                program.peval(query, fragment, state)
            else:
                program.inceval(query, fragment, state, message)
            times.append(time.perf_counter() - start)
            reports[fid] = read_report(program, query, fragment, state,
                                       False)
        return times, reports, None

    def checkpoint(self) -> None:
        """Called after every round; fault-tolerant runs save a
        consistent copy of states and coordinator tables here."""

    def record(self, times: Sequence[float]) -> None:
        """Close a superstep in the metrics: the stepped fragments'
        compute seconds on ``num_workers`` physical workers, charged the
        traffic the previous round left for it."""
        self.metrics.record_superstep(
            physical_times(times, self.num_workers), self.bytes_in,
            self.msgs_in, self.cost_model)
        self.bytes_in = self.msgs_in = 0

    def settle(self, up_bytes: int, up_msgs: int, dirty: Any,
               outcomes: Optional[Dict[int, StepOutcome]] = None):
        """The second half of a round, from folded reports on: compose
        the messages the moved parameters call for, route the explicit
        channels the workers drained, price it all for the superstep
        that will consume it.  Returns what is pending, ``(messages,
        designated, keyvalue)`` by destination fragment."""
        coordinator = self.coordinator
        messages = coordinator.compose(dirty)
        self.bytes_in = up_bytes + sum(map(coordinator.price,
                                           messages.values()))
        self.msgs_in = up_msgs + len(messages)
        if outcomes is None:
            return messages, None, None
        designated, keyvalue, ch_bytes, ch_msgs = route_channels(
            len(self.fragments), outcomes)
        self.bytes_in += ch_bytes
        self.msgs_in += ch_msgs
        return messages, designated, keyvalue

    def superstep(self, messages: Dict[int, Any], designated=None,
                  keyvalue=None, *, first_round: bool = False):
        """One round — step (PEval when ``first_round``), record, fold,
        :meth:`settle`, checkpoint — returning what it left pending.

        Under tracing the round is one ``superstep`` span: the step
        stamps its id on what crosses the pipe, worker-side measurements
        come back re-attached as per-worker children, and the
        coordinator's fold / compose / accounting are recorded beside
        them.
        """
        coordinator = self.coordinator
        span = None
        if self.trace is not None:
            span = self.trace.child(
                "superstep", index=next(self._span_index),
                phase=PHASE_PEVAL if first_round else self.phase)
            timers = (coordinator.fold_s, coordinator.compose_s,
                      coordinator.accounting_s)
        try:
            times, reports, outcomes = self.step(
                messages, designated, keyvalue, first_round, span)
            self.record(times)
            pending = self.settle(
                *coordinator.fold(reports, first_round=first_round),
                outcomes)
        finally:
            if span is not None:
                span.finish()
        if outcomes is not None:
            self.metrics.report_read_s += sum(
                outcome.report_s for outcome in outcomes.values())
        if span is not None:
            for fid in sorted(outcomes or ()):
                outcome = outcomes[fid]
                worker = span.record("worker", outcome.elapsed, fid=fid)
                for name, duration_s, tags in outcome.spans:
                    worker.record(name, duration_s, **tags)
            span.record("coordinator.fold", coordinator.fold_s - timers[0])
            span.record("coordinator.compose",
                        coordinator.compose_s - timers[1])
            span.record("coordinator.accounting",
                        coordinator.accounting_s - timers[2])
        self.checkpoint()
        return pending

    def drain(self, messages: Dict[int, Any], designated=None,
              keyvalue=None) -> None:
        """Repeat :meth:`superstep` after the caller's first round until
        no update parameter moved and no explicit message is pending (the
        simultaneous fixpoint)."""
        rounds = 1
        while messages or designated or keyvalue:
            if rounds >= self.max_supersteps:
                raise RuntimeError(
                    f"no fixpoint after {self.max_supersteps} supersteps; "
                    "EngineConfig(check_monotonic=True) names the first "
                    "parameter that breaks the monotonic condition")
            rounds += 1
            messages, designated, keyvalue = self.superstep(
                messages, designated, keyvalue)

    def finish(self) -> None:
        """Close the account: the last round's traffic, and the
        coordinator's phase timers, move into the metrics."""
        self.metrics.comm_bytes += self.bytes_in
        self.metrics.comm_messages += self.msgs_in
        self.bytes_in = self.msgs_in = 0
        self.coordinator.drain_timers(self.metrics)


def route_channels(num_fragments: int, outcomes: Dict[int, StepOutcome]):
    """Route the designated and key-value messages the workers drained
    this superstep.

    Key-value pairs are grouped by key and assigned to workers by key
    hash — the coordinator's MapReduce-style shuffle (Section 3.5).
    Returns ``(designated, keyvalue, bytes, message_count)`` where both
    channel dicts map destination fid to deliverable content, and the
    traffic counts what the workers sent up and what is delivered down.
    """
    designated: Dict[int, List[Any]] = {}
    grouped: Dict[Hashable, List[Any]] = {}
    ch_bytes = 0
    ch_msgs = 0
    for fid in sorted(outcomes):
        outcome = outcomes[fid]
        for dest, items in outcome.designated.items():
            if not 0 <= dest < num_fragments:
                raise ValueError(f"designated dest {dest} out of range")
            if items:
                designated.setdefault(dest, []).extend(items)
                ch_bytes += message_bytes(items)
                ch_msgs += 1
        for key, value in outcome.keyvalue:
            grouped.setdefault(key, []).append(value)
            ch_msgs += 1
        if outcome.keyvalue:
            ch_bytes += message_bytes(outcome.keyvalue)
    keyvalue: Dict[int, Dict[Hashable, List[Any]]] = {}
    for key, values in grouped.items():
        # stable_hash, not builtin hash: string keys must route to the
        # same worker in every process regardless of PYTHONHASHSEED.
        dest = stable_hash(key) % num_fragments
        keyvalue.setdefault(dest, {})[key] = values
    ch_bytes += sum(map(message_bytes, designated.values()))
    ch_bytes += sum(map(message_bytes, keyvalue.values()))
    ch_msgs += len(designated) + len(keyvalue)
    return designated, keyvalue, ch_bytes, ch_msgs
