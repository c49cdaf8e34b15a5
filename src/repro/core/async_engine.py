"""Asynchronous GRAPE (the paper's announced future work, Section 8).

The paper closes with "an asynchronous version of GRAPE is also under
development" — this module builds it.  Instead of BSP supersteps with a
global barrier, fragments are activated individually as soon as messages
for them exist (GraphLab-style asynchrony), under the same PIE contract:

* ``PEval`` runs once per fragment, as before;
* thereafter a scheduler pops the fragment with the earliest-ready
  pending message, runs ``IncEval`` on *just that fragment*, folds its
  changed update parameters into the coordinator table, and enqueues the
  destinations — no barrier, no idle waiting for stragglers;
* termination: the queue drains (no pending messages anywhere).

That is a different *schedule* of the one superstep driver
(:class:`~repro.core.fixpoint.Fixpoint`: same loop, same step, fold,
compose and wire-model pricing), its round narrowed from "activate all"
to "activate the earliest-ready fragment" on a simulated clock.

Correctness: for programs satisfying the monotonic condition, the
asynchronous fixpoint equals the synchronous one — update parameters
move along the same partial order whatever the activation order, and the
engine only stops when no parameter can change (the Assurance Theorem's
argument does not use the barrier).  Tests assert async ≡ sync answers,
bitwise for SSSP, BFS and CC.

Timing uses a discrete-event simulation: every fragment activation is
really executed and measured; it is scheduled on its physical worker at
``max(worker_free, message_ready)``; messages become ready after a
transfer delay from the sender's finish time.  The response time is the
latest finish — so stragglers only delay their own dependents, the
advertised benefit of asynchrony on skewed workloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.core.coordinator import DictCoordinator
from repro.core.engine import EngineConfig
from repro.core.fixpoint import Fixpoint
from repro.core.monotonic import MonotonicityChecker
from repro.core.pie import PIEProgram
from repro.graph.graph import Graph
from repro.partition.base import Fragmentation, PartitionStrategy
from repro.runtime.metrics import CostModel, RunMetrics, message_bytes

__all__ = ["AsyncGrapeEngine", "AsyncGrapeResult"]


@dataclass
class AsyncGrapeResult:
    """Outcome of one asynchronous GRAPE run."""

    answer: Any
    metrics: RunMetrics
    fragmentation: Fragmentation
    states: Dict[int, Any]
    #: number of individual fragment activations (the async analogue of
    #: supersteps x active fragments)
    activations: int = 0


class _AsyncRun(Fixpoint):
    """The barrier-free schedule: a round activates one fragment, on a
    simulated clock (one timeline per physical worker; a message is
    ready a transfer delay after its sender finished)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.worker_free = [0.0] * self.num_workers
        self.ready_at: Dict[int, float] = {}
        #: compute seconds of the last activation
        self.elapsed = 0.0

    def _start(self, fid: int) -> float:
        return max(self.worker_free[fid % self.num_workers],
                   self.ready_at.get(fid, 0.0))

    def superstep(self, pending: Dict[int, Any], designated=None,
                  keyvalue=None, *, first_round: bool = False):
        """Activate the fragment that can start earliest."""
        fid = min(pending, key=lambda f: (self._start(f), f))
        return self.activate(fid, pending.pop(fid), pending), None, None

    def activate(self, fid: int, message: Any, pending: Dict[int, Any],
                 first_round: bool = False) -> Dict[int, Any]:
        """One round of the driver on fragment ``fid`` alone (PEval when
        ``first_round``); what it composes queues up in ``pending``."""
        worker = fid % self.num_workers
        # PEval starts as soon as its worker is free; an activation also
        # waits for (and consumes) its message.
        start = self.worker_free[worker] if first_round else self._start(fid)
        if not first_round:
            self.ready_at.pop(fid, None)
        fresh, _designated, _keyvalue = super().superstep(
            {fid: message}, first_round=first_round)
        finish = self.worker_free[worker] = start + self.elapsed
        cost = self.cost_model
        for dest, batch in fresh.items():
            transfer = (self.coordinator.price(batch) * cost.seconds_per_byte
                        + cost.sync_latency_s)
            pending.setdefault(dest, {}).update(batch)
            self.ready_at[dest] = max(self.ready_at.get(dest, 0.0),
                                      finish + transfer)
        return pending

    def record(self, times: Sequence[float]) -> None:
        """An activation, not a BSP superstep: no barrier to charge."""
        metrics = self.metrics
        (self.elapsed,) = times
        metrics.supersteps += 1  # async analogue: activations
        metrics.total_compute_s += self.elapsed
        metrics.comm_bytes += self.bytes_in
        metrics.comm_messages += self.msgs_in
        self.bytes_in = self.msgs_in = 0


class AsyncGrapeEngine:
    """Barrier-free evaluation of PIE programs.

    Shares the PIE contract with :class:`~repro.core.engine.GrapeEngine`
    (``peval``/``inceval``/``read_update_params``/``assemble`` and the
    aggregator) and its superstep driver; explicit designated/key-value
    channels are not supported (they encode BSP synchrony by
    construction).

    Parameters mirror the synchronous engine where they make sense (and
    are validated as its :class:`~repro.core.engine.EngineConfig`).
    """

    def __init__(self, num_workers: int, *,
                 num_fragments: Optional[int] = None,
                 partition: Optional[PartitionStrategy] = None,
                 cost_model: Optional[CostModel] = None,
                 check_monotonic: bool = False,
                 max_activations: int = 1_000_000):
        self.config = EngineConfig(
            num_workers=num_workers, num_fragments=num_fragments,
            partition=partition, cost_model=cost_model,
            check_monotonic=check_monotonic, max_supersteps=max_activations)

    # ------------------------------------------------------------------
    def make_fragmentation(self, graph: Graph) -> Fragmentation:
        return self.config.build().make_fragmentation(graph)

    # ------------------------------------------------------------------
    def run(self, program: PIEProgram, query: Any,
            graph: Optional[Graph] = None,
            fragmentation: Optional[Fragmentation] = None,
            ) -> AsyncGrapeResult:
        """Compute ``Q(G)`` without barriers."""
        if fragmentation is None:
            if graph is None:
                raise ValueError("pass either graph or fragmentation")
            fragmentation = self.make_fragmentation(graph)

        config = self.config
        frags = fragmentation.fragments
        checker = MonotonicityChecker(program.aggregator,
                                      enabled=config.check_monotonic)
        metrics = RunMetrics()
        run = _AsyncRun(program, query, fragmentation,
                        DictCoordinator(program, fragmentation, checker),
                        metrics, num_workers=config.num_workers,
                        cost_model=config.cost_model,
                        max_supersteps=config.max_supersteps)
        states = run.states = {f.fid: program.init_state(query, f)
                               for f in frags}
        payloads = program.preprocess(query, fragmentation)
        if payloads:
            for fid, payload in payloads.items():
                metrics.comm_bytes += message_bytes(payload)
                metrics.comm_messages += 1
                program.apply_preprocess(query, frags[fid], states[fid],
                                         payload)

        # PEval: every fragment once, each reporting as it finishes;
        # IncEval: one activation per round until the queue drains.
        pending: Dict[int, Any] = {}
        for frag in frags:
            run.activate(frag.fid, None, pending, first_round=True)
        run.drain(pending, rounds=len(frags))
        run.finish()

        t0 = time.perf_counter()
        answer = program.assemble(query, fragmentation, states)
        assemble_s = time.perf_counter() - t0
        metrics.total_compute_s += assemble_s
        metrics.parallel_time_s = max(run.worker_free) + assemble_s
        return AsyncGrapeResult(answer=answer, metrics=metrics,
                                fragmentation=fragmentation, states=states,
                                activations=metrics.supersteps)
