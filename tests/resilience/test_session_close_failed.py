"""Failure-path audit: a session that cannot be closed during recovery
is reported, not swallowed."""

from __future__ import annotations

import pytest

from repro.core.engine import GrapeEngine
from repro.graph.generators import grid_road_graph
from repro.obs import events
from repro.pie_programs import SSSPProgram
from repro.runtime.executors import SerialBackend, WorkerProcessDied
from repro.sequential import sssp_distances


class _DyingSession:
    """Delegates to a healthy inline session, loses a "worker" on its
    second superstep and then refuses to close."""

    def __init__(self, inner):
        self._inner = inner
        self._steps = 0

    def step(self, commands, **kwargs):
        self._steps += 1
        if self._steps == 2:
            raise WorkerProcessDied("simulated worker death")
        return self._inner.step(commands, **kwargs)

    def close(self):
        raise OSError("pipe already gone")

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _FlakyBackend(SerialBackend):
    def __init__(self):
        self.opened = 0

    def open(self, *args, **kwargs):
        session = super().open(*args, **kwargs)
        self.opened += 1
        return _DyingSession(session) if self.opened == 1 else session


def test_failed_close_during_recovery_emits_an_event():
    g = grid_road_graph(6, 6, seed=3)
    backend = _FlakyBackend()
    engine = GrapeEngine(4, backend=backend, checkpoint=True)
    with events.use(events.EventLog()) as log:
        result = engine.run(SSSPProgram(), query=0, graph=g)
    # the recovery went ahead on a fresh session ...
    assert backend.opened == 2
    assert result.recoveries == 1
    assert result.answer == pytest.approx(sssp_distances(g, 0))
    # ... and the close failure is on the record, with its type
    failed = log.events("session.close_failed")
    assert len(failed) == 1
    assert failed[0].fields["error"] == "OSError"
    assert "pipe already gone" in failed[0].fields["detail"]
    assert [e.kind for e in log.events("worker.recovered")] \
        == ["worker.recovered"]
