"""The typed error taxonomy of the resilience plane.

Every failure the serving stack can surface under faults is one of a
small set of documented exception types — a caller never sees a hang, a
bare ``Exception`` or a silently wrong answer:

* :exc:`DeadlineExceeded` — the query's time budget ran out (or a hung
  worker could not be replaced in time).  Subclasses ``TimeoutError``.
* :exc:`RetryExhausted` — a retryable fault (worker death, WAL write
  failure) recurred past the retry policy's attempt budget; the last
  underlying error is chained and carried.
* :exc:`QueryCancelled` — the caller cancelled the ticket
  (:meth:`~repro.service.tickets.QueryTicket.cancel`); the engine run
  was abandoned at a superstep boundary and its resources released.
* :exc:`StateSnapshotMismatch` — a program state's arrays met a
  fragment snapshot of another shape (a checkpoint restored onto the
  wrong fragment); nothing is ever gathered from such a pairing.
* :exc:`FailoverInterrupted` — an injected (or simulated) coordinator
  crash mid-failover; the fence holds, so re-running the failover is
  always safe.

Shedding (:class:`~repro.replication.admission.AdmissionRejected`) and
store-level errors (``WALWriteError``, ``SnapshotError``) complete the
taxonomy; they live with the subsystems that raise them.

This module is import-leaf on purpose: the executor, engine, store and
service layers all raise these types, so nothing here may import any of
them.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["DeadlineExceeded", "FailoverInterrupted", "QueryCancelled",
           "RetryExhausted", "StateSnapshotMismatch"]


class DeadlineExceeded(TimeoutError):
    """A query exceeded its time budget (``deadline_s``) or a hung
    worker exhausted its heartbeat grace without a recovery path.

    ``budget_s``/``elapsed_s`` are filled in where known (the engine's
    superstep boundary knows both; a pipe-recv timeout knows only that
    the absolute deadline passed).
    """

    def __init__(self, message: str, *, budget_s: Optional[float] = None,
                 elapsed_s: Optional[float] = None):
        super().__init__(message)
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class RetryExhausted(RuntimeError):
    """A retryable failure persisted past the policy's attempt budget.

    ``attempts`` counts every try (initial + retries); ``last_error`` is
    the final underlying failure (also chained as ``__cause__``).
    """

    def __init__(self, message: str, *, attempts: int,
                 last_error: Optional[BaseException] = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class QueryCancelled(RuntimeError):
    """The ticket owning this run was cancelled; the run was abandoned
    cleanly (no partial answer is ever published)."""


class FailoverInterrupted(RuntimeError):
    """The failover coordinator died mid-protocol (injected).  The
    epoch fence it wrote first still holds, so retrying the failover is
    safe and loses nothing."""


class StateSnapshotMismatch(ValueError):
    """A program state that crossed a process boundary carries arrays
    addressed by snapshot vertex id; the fragment it was handed to has a
    snapshot of another size, so the ids mean something else there."""
