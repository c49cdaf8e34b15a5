"""Backend degradation: retry + circuit breaker at the service layer.

`WorkerKillerSSSP` kills any worker process it lands on (it dies iff
its pid differs from the coordinator's), so it fails on the process
backend and succeeds on the inline ones — exactly the shape of a
backend-specific fault the breaker exists for: retries burn through the
failure threshold, the breaker degrades the graph one level down the
process→thread→serial chain, and the query completes with the exact
fault-free answer on the degraded backend.
"""

from __future__ import annotations

import os

import pytest

from repro.core.engine import EngineConfig
from repro.graph.generators import grid_road_graph
from repro.pie_programs import SSSPProgram
from repro.resilience import BackendCircuitBreaker, RetryPolicy
from repro.sequential import sssp_distances
from repro.service import GrapeService

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="worker kill semantics are POSIX")


class WorkerKillerSSSP(SSSPProgram):
    """Dies instantly on any process-backend worker; a plain SSSP on
    inline backends.  ``home_pid`` pickles with the program, so shipped
    copies know they are not at home."""

    def __init__(self):
        super().__init__()
        self.home_pid = os.getpid()

    def peval(self, query, fragment, state):
        if os.getpid() != self.home_pid:
            os._exit(41)
        super().peval(query, fragment, state)


@pytest.fixture
def graph():
    return grid_road_graph(6, 6, seed=3)


def make_service(graph, breaker, retry):
    svc = GrapeService(engine=EngineConfig(num_workers=4, backend="process"),
                       degradation=breaker,
                       retry=retry, grouping=False)
    svc.program("killer")(WorkerKillerSSSP)
    svc.load_graph("road", graph)
    return svc


def test_retries_degrade_and_the_query_still_answers(graph):
    breaker = BackendCircuitBreaker(failure_threshold=2,
                                    cooldown_s=1000.0)
    retry = RetryPolicy(max_attempts=3, base_backoff_s=0.001, jitter=0.0)
    svc = make_service(graph, breaker, retry)
    try:
        ticket = svc.play("killer", 0, graph="road")
        # attempt 1: process dies; attempt 2: process dies -> breaker
        # trips; attempt 3: thread backend answers.
        assert ticket.answer == pytest.approx(sssp_distances(graph, 0))
        assert svc.stats.queries_retried == 1
        assert svc.stats.retries_total == 2
        assert svc.stats.backend_degradations == 1
        assert breaker.degraded_backend("road") == "thread"
        assert breaker.transitions[0][:4] == ("degrade", "road",
                                              "process", "thread")
        # While degraded, the same query runs first-try on thread.
        again = svc.play("killer", 7, graph="road")
        assert again.answer == pytest.approx(sssp_distances(graph, 7))
        assert svc.stats.retries_total == 2  # no new retries needed
    finally:
        svc.close()


def test_cooldown_probe_restores_the_configured_backend(graph):
    clock = [0.0]
    breaker = BackendCircuitBreaker(failure_threshold=1, cooldown_s=60.0,
                                    clock=lambda: clock[0])
    retry = RetryPolicy(max_attempts=2, base_backoff_s=0.001, jitter=0.0)
    svc = make_service(graph, breaker, retry)
    try:
        ticket = svc.play("killer", 0, graph="road")
        assert ticket.answer == pytest.approx(sssp_distances(graph, 0))
        assert breaker.degraded_backend("road") == "thread"

        clock[0] = 61.0  # cooldown over: next query probes process
        probe = svc.play("sssp", 0, graph="road")
        assert probe.answer == pytest.approx(sssp_distances(graph, 0))
        assert breaker.degraded_backend("road") is None
        assert svc.stats.backend_probes == 1
        assert svc.stats.backend_restorations == 1
        assert [t[0] for t in breaker.transitions] == \
            ["degrade", "probe", "restore"]
    finally:
        svc.close()


def test_degradation_true_builds_a_default_breaker(graph):
    svc = GrapeService(degradation=True)
    try:
        assert isinstance(svc.breaker, BackendCircuitBreaker)
    finally:
        svc.close()


def test_without_degradation_the_failure_propagates(graph):
    svc = GrapeService(engine=EngineConfig(num_workers=4, backend="process"),
                       grouping=False)
    svc.program("killer")(WorkerKillerSSSP)
    svc.load_graph("road", graph)
    try:
        from repro.runtime.executors import WorkerProcessDied
        with pytest.raises(WorkerProcessDied):
            svc.play("killer", 0, graph="road")
        assert svc.stats.queries_failed == 1
    finally:
        svc.close()
