"""The simulated shared-nothing cluster.

A :class:`SimulatedCluster` plays the role of the paper's ``n`` physical
workers plus MPI controller for the baseline engines, which submit one
*task per virtual worker* per superstep; the cluster

* executes every task (on an inline executor backend), timing each with
  a performance counter,
* maps virtual workers onto physical workers (paper Section 3.1: ``m``
  virtual workers on ``n`` physical workers share memory when ``n < m``),
* folds the timings into :class:`~repro.runtime.metrics.RunMetrics` using
  the BSP cost model: a superstep costs the *max over physical workers* of
  their assigned virtual workers' summed compute time, plus communication.

The GRAPE engine executes through
:class:`~repro.runtime.executors.ExecutorSession` and records its rounds
through :class:`~repro.core.fixpoint.Fixpoint`; what it shares with the
cluster is the placement, :func:`physical_times`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.runtime.executors import ExecutorBackend, resolve_backend
from repro.runtime.metrics import CostModel, RunMetrics, message_bytes

__all__ = ["SimulatedCluster", "LoadBalancer", "physical_times"]


class LoadBalancer:
    """Assign ``m`` virtual workers to ``n`` physical workers.

    The paper's Load Balancer minimizes a bi-criteria objective over
    fragment size and border count; we implement the classic greedy
    longest-processing-time heuristic over per-fragment cost estimates.
    """

    def assign(self, costs: Sequence[float], num_physical: int) -> List[int]:
        """Return ``phys[i]`` = physical worker for virtual worker ``i``."""
        loads = [0.0] * num_physical
        placement = [0] * len(costs)
        order = sorted(range(len(costs)), key=lambda i: -costs[i])
        for i in order:
            target = min(range(num_physical), key=lambda p: loads[p])
            placement[i] = target
            loads[target] += costs[i]
        return placement


def physical_times(times: Sequence[float], num_physical: int,
                   costs: Optional[Sequence[float]] = None
                   ) -> Sequence[float]:
    """Per-physical-worker compute seconds of one superstep: the virtual
    workers' ``times`` summed where the :class:`LoadBalancer` places them
    (by ``costs``, default the times themselves).  With no more virtual
    workers than physical ones every one has a worker to itself, so the
    placement is the identity and none is computed."""
    if len(times) <= num_physical:
        return times
    placement = LoadBalancer().assign(times if costs is None else costs,
                                      num_physical)
    physical = [0.0] * num_physical
    for i, t in enumerate(times):
        physical[placement[i]] += t
    return physical


class SimulatedCluster:
    """``n`` physical workers with synchronous (BSP) supersteps.

    Parameters
    ----------
    num_workers:
        Number of *physical* workers ``n``.
    cost_model:
        BSP cost parameters; defaults to :class:`CostModel` defaults.
    backend:
        An :class:`~repro.runtime.executors.ExecutorBackend` name or
        instance executing the per-worker tasks (default ``"serial"``,
        deterministic; ``"thread"`` still times every task with its own
        perf counter, so the cost model is unaffected).  Closure tasks
        require an *inline* backend — the process backend only speaks
        the PIE session protocol driven by
        :class:`~repro.core.engine.GrapeEngine`.
    """

    def __init__(self, num_workers: int, cost_model: Optional[CostModel] = None,
                 backend: Union[str, ExecutorBackend] = "serial"):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.cost_model = cost_model or CostModel()
        self.backend = resolve_backend(backend)
        self.metrics = RunMetrics(backend=self.backend.name)

    # ------------------------------------------------------------------
    def reset_metrics(self) -> None:
        self.metrics = RunMetrics(backend=self.backend.name)

    # ------------------------------------------------------------------
    def run_superstep(self, tasks: Sequence[Callable[[], Any]],
                      virtual_costs: Optional[Sequence[float]] = None,
                      bytes_shipped: int = 0,
                      num_messages: int = 0) -> List[Any]:
        """Execute one superstep: one task per virtual worker.

        Returns the task results in order.  ``bytes_shipped`` and
        ``num_messages`` describe the traffic *delivered at the start of*
        this superstep (routed by the coordinator), charged to it per the
        BSP cost formula.
        """
        def timed(task: Callable[[], Any]):
            start = time.perf_counter()
            value = task()
            return time.perf_counter() - start, value

        # Delegated to the backend; raises TypeError for non-inline
        # backends, whose workers cannot receive in-process closures.
        outcomes = self.backend.run_tasks(
            [lambda t=t: timed(t) for t in tasks], self.num_workers)
        times = [elapsed for elapsed, _value in outcomes]
        self.metrics.record_superstep(
            physical_times(times, self.num_workers, virtual_costs),
            bytes_shipped, num_messages, self.cost_model)
        return [value for _elapsed, value in outcomes]

    # ------------------------------------------------------------------
    def account_payload(self, payload: Any) -> int:
        """Measure a payload's wire size (helper for engines)."""
        return message_bytes(payload)

    def __repr__(self) -> str:
        return (f"SimulatedCluster(n={self.num_workers}, "
                f"backend={self.backend.name!r})")
