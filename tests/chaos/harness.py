"""Seeded chaos harness: one mixed workload, one fault schedule, one
differential check.

The harness owns three things the chaos tests share:

* a **deterministic mixed workload** (:func:`build_ops`) of queries and
  update batches, generated as pure data so the oracle pass and every
  chaos pass replay byte-identical operation sequences;
* a **hard watchdog** (:func:`watchdog`, SIGALRM) so a chaos run can
  fail loudly but can never hang the suite;
* the **differential runner** (:func:`run_workload`): each operation is
  retried in a bounded loop until it completes, only the typed error
  taxonomy (:data:`TAXONOMY`) is ever caught, and the answers of the
  operations that completed are collected for bitwise comparison
  against the fault-free oracle; after every completed query the
  fragmentation's spliced snapshots and border index are compared with
  a fresh build (``tests/differential/harness.py``).
"""

from __future__ import annotations

import contextlib
import random
import signal

from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.resilience import (DeadlineExceeded, FailoverInterrupted,
                              QueryCancelled, RetryExhausted)
from repro.runtime.executors import WorkerProcessDied
from repro.runtime.fault import WorkerFailure
from repro.store.snapshot import SnapshotError
from repro.store.wal import WALWriteError

from differential.harness import assert_derived_state_fresh

#: every error a resilient run is allowed to surface — anything outside
#: this tuple propagates out of the harness and fails the test.
TAXONOMY = (DeadlineExceeded, QueryCancelled, RetryExhausted,
            WorkerProcessDied, WorkerFailure, WALWriteError,
            SnapshotError, FailoverInterrupted)

QUERY_SOURCES = (0, 7, 14, 21)


class ChaosHung(RuntimeError):
    """The hard watchdog expired: something hung."""


@contextlib.contextmanager
def watchdog(seconds: float):
    """SIGALRM-backed hard timeout: raises :class:`ChaosHung` in the
    main thread no matter what the run is blocked on."""

    def expired(signum, frame):
        raise ChaosHung(f"chaos run exceeded its {seconds}s watchdog")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def base_graph():
    return uniform_random_graph(40, 130, directed=False, seed=23)


def _delta_from_spec(spec):
    delta = GraphDelta()
    for entry in spec:
        kind, args = entry[0], entry[1:]
        getattr(delta, kind)(*args)
    return delta


def build_ops(seed: int, rounds: int = 6):
    """A deterministic interleaving of update batches and queries.

    Each round mutates the graph (an insertion plus a rotating
    deletion/reweight of a *live* edge — tracked against a mirror so
    every spec is valid at its point in the sequence) and then queries
    it.  Returned as pure data: ``("update", spec)`` and
    ``("query", program, source)`` tuples.
    """
    mirror = base_graph()
    rng = random.Random(seed)
    ops = []
    for i in range(rounds):
        edges = sorted(mirror.edges())
        u, v, w = edges[rng.randrange(len(edges))]
        spec = [("insert", rng.randrange(40), 1000 + i,
                 round(rng.uniform(0.1, 1.0), 3))]
        if i % 3 == 0:
            spec.append(("delete", u, v))
        elif i % 3 == 1:
            spec.append(("set_weight", u, v,
                         round(w * rng.uniform(0.25, 4.0), 3)))
        ops.append(("update", tuple(spec)))
        _delta_from_spec(spec).normalize(mirror).apply_to(mirror)
        ops.append(("query", "sssp", QUERY_SOURCES[i % len(QUERY_SOURCES)]))
    ops.append(("query", "cc", None))
    return ops


def run_workload(service, graph_name: str, ops, *,
                 max_op_attempts: int = 12):
    """Drive ``ops`` against ``service``; every operation must complete.

    Operations that raise a taxonomy error are retried (the schedule is
    finite, so a bounded loop always drains it); any other exception —
    or an operation still failing after ``max_op_attempts`` — is a
    harness failure.  Returns ``(answers, observed_error_types)`` where
    ``answers`` is the ordered list of completed query answers.
    """
    answers = []
    observed = []
    for op in ops:
        for attempt in range(max_op_attempts):
            try:
                if op[0] == "query":
                    _tag, program, source = op
                    ticket = service.play(program, source,
                                          graph=graph_name)
                    answers.append(ticket.answer)
                    assert_derived_state_fresh(
                        service.fragmentation(graph_name))
                else:
                    service.update(graph_name, _delta_from_spec(op[1]))
                break
            except TAXONOMY as exc:
                observed.append(type(exc))
        else:
            raise AssertionError(
                f"operation {op!r} failed {max_op_attempts} times")
    return answers, observed
