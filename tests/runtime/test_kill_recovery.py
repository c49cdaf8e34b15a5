"""End-to-end crash recovery: ``kill -9`` a pooled process-backend
worker mid-run and recover from the arbitrator's checkpoint.

With checkpoints enabled (``checkpoint=True``), a run whose worker
process is SIGKILLed mid-superstep is transparently recovered — the
engine re-opens its session on fresh pool workers, restores the last
consistent checkpoint (held in the coordinator's memory: the states the
dead worker held were collected at the last superstep boundary),
replays the superstep, and finishes with the *same answer and the same
account* as an uninterrupted run.  This is real OS-level death, not an
injected :class:`~repro.runtime.fault.WorkerFailure`.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.engine import GrapeEngine
from repro.graph.generators import grid_road_graph
from repro.pie_programs import SSSPProgram
from repro.runtime.executors import WorkerProcessDied, resolve_backend
from repro.sequential import sssp_distances

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="SIGKILL semantics are POSIX-only")


class KillOwnWorkerSSSP(SSSPProgram):
    """SSSP whose first IncEval SIGKILLs its own worker process.

    The marker file is the one-shot guard: it is written *before* the
    kill, so the replayed superstep (and every fragment on every other
    worker) runs normally.  Because the marker lives on the shared
    filesystem it also tells the test which pid died.
    """

    def __init__(self, marker: str):
        super().__init__()
        self.marker = marker

    def inceval(self, query, fragment, state, message):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write(str(os.getpid()))
                fh.flush()
                os.fsync(fh.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        super().inceval(query, fragment, state, message)


def test_sigkilled_worker_recovers_from_checkpoint(tmp_path):
    g = grid_road_graph(6, 6, seed=3)
    marker = str(tmp_path / "killed.pid")

    clean = GrapeEngine(4, backend="process").run(
        SSSPProgram(), query=0, graph=g)

    engine = GrapeEngine(4, backend="process", checkpoint=True)
    result = engine.run(KillOwnWorkerSSSP(marker), query=0,
                        fragmentation=clean.fragmentation)

    # The kill really happened: the marker was written and that process
    # is gone (SIGKILL is unmaskable, so if the pid were still this
    # pool's worker it would have answered the next exchange instead).
    assert os.path.exists(marker)
    killed_pid = int(open(marker).read())
    assert killed_pid != os.getpid()

    assert result.recoveries >= 1
    assert result.answer == pytest.approx(sssp_distances(g, 0))
    assert result.answer == pytest.approx(clean.answer)
    # The aborted attempt is not recorded (no complete outcome set
    # exists for it), so the recovered run's logical account equals the
    # uninterrupted run's.
    assert (result.supersteps, result.metrics.comm_bytes,
            result.metrics.comm_messages) == (
                clean.supersteps, clean.metrics.comm_bytes,
                clean.metrics.comm_messages)
    assert result.metrics.recoveries == result.recoveries


def test_death_without_checkpoints_still_raises(tmp_path):
    """Without checkpoints the death is a hard error."""
    g = grid_road_graph(4, 4, seed=1)
    marker = str(tmp_path / "killed.pid")
    engine = GrapeEngine(2, backend="process")
    with pytest.raises(WorkerProcessDied):
        engine.run(KillOwnWorkerSSSP(marker), query=0, graph=g)
    # the shared pool replaces dead workers on the next lease
    result = GrapeEngine(2, backend="process").run(SSSPProgram(), query=0,
                                                   graph=g)
    assert result.answer == pytest.approx(sssp_distances(g, 0))
