"""Recovery from worker failures (paper Section 6, "Fault tolerance").

GRAPE reserves an *arbitrator* worker that heart-beats every worker and the
coordinator; on a worker failure the arbitrator transfers the failed
worker's tasks elsewhere, and a standby coordinator takes over on
coordinator failure.

In the simulation:

* failures are scheduled by the one injector, ``exec.step`` specs of a
  :class:`~repro.resilience.faults.FaultPlane`;
* :exc:`WorkerFailure` is how a ``crash`` spec surfaces on the inline
  backends (under the process backend the worker really dies); the engine
  recovers both the same way;
* :class:`Arbitrator` implements the recovery policy used by the GRAPE
  engine: it keeps per-fragment state checkpoints and, on failure,
  hands them back so the superstep can be re-run on a fresh session
  (simulating the task transfer to a healthy worker).

Checkpoints are deep copies held by the coordinator.  That is enough for
a ``kill -9``'d process-backend worker too: the states it held were
collected into the coordinator at the last superstep boundary and are
restored into a fresh worker.
"""

from __future__ import annotations

import copy
from typing import Any, Dict

__all__ = ["WorkerFailure", "Arbitrator"]


class WorkerFailure(RuntimeError):
    """A simulated worker crash during a superstep."""

    def __init__(self, worker: int, superstep: int):
        super().__init__(f"worker {worker} failed at superstep {superstep}")
        self.worker = worker
        self.superstep = superstep


class Arbitrator:
    """Checkpoint/restore recovery used by the GRAPE engine.

    The engine checkpoints every fragment's mutable state at the end of each
    successful superstep; when a worker fails, the engine asks the
    arbitrator for the last consistent snapshot and replays the superstep
    (GRAPE's "transfer its computation tasks to another worker").
    """

    def __init__(self):
        self._snapshots: Dict[int, Any] = {}
        self.recoveries = 0

    def checkpoint(self, fragment_states: Dict[int, Any]) -> None:
        """Store a consistent (deep) copy of every fragment's state."""
        self._snapshots = {fid: copy.deepcopy(state)
                           for fid, state in fragment_states.items()}

    def restore(self) -> Dict[int, Any]:
        """Return the last consistent snapshot (copied back out, so the
        caller may mutate it freely)."""
        self.recoveries += 1
        return {fid: copy.deepcopy(state)
                for fid, state in self._snapshots.items()}

    @property
    def has_checkpoint(self) -> bool:
        return bool(self._snapshots)
