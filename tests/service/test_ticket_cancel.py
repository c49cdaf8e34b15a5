"""Ticket cancellation and service-level deadlines.

`QueryTicket.cancel()` is best-effort and asynchronous: a queued ticket
fails fast without ever running; a running one is aborted at the next
superstep boundary.  Either way the outcome is the typed
:class:`~repro.resilience.errors.QueryCancelled`, status ``cancelled``,
and a cleanly released pool slot.
"""

from __future__ import annotations

import time

import pytest

from repro.core.engine import EngineConfig
from repro.graph.generators import grid_road_graph
from repro.pie_programs import SSSPProgram
from repro.resilience import DeadlineExceeded, QueryCancelled
from repro.sequential import sssp_distances
from repro.service import GrapeService


class NapSSSP(SSSPProgram):
    """SSSP that naps every IncEval — gives cancel/deadline races a
    wide-open superstep boundary to land in.  Module-level so it stays
    picklable."""

    def __init__(self, nap_s: float = 0.03):
        super().__init__()
        self.nap_s = nap_s

    def inceval(self, query, fragment, state, message):
        time.sleep(self.nap_s)
        super().inceval(query, fragment, state, message)


@pytest.fixture
def graph():
    return grid_road_graph(6, 6, seed=3)


@pytest.fixture
def service(graph):
    svc = GrapeService(engine=EngineConfig(num_workers=4),
                       concurrency=1, grouping=False)
    svc.program("napsssp")(NapSSSP)
    svc.load_graph("road", graph)
    yield svc
    svc.close()


def test_cancel_a_queued_ticket(service, graph):
    slow = service.submit("napsssp", 0, graph="road")
    queued = service.submit("sssp", 7, graph="road")
    assert queued.cancel() is True
    assert queued.wait(timeout=60)
    assert queued.status == "cancelled"
    with pytest.raises(QueryCancelled, match="before it started"):
        queued.result()
    # The in-flight query is untouched.
    assert slow.result(timeout=60) == pytest.approx(
        sssp_distances(graph, 0))
    assert service.stats.queries_cancelled == 1
    assert service.stats.queries_failed == 1


def test_cancel_mid_run_releases_the_slot(service, graph):
    ticket = service.submit("napsssp", 0, graph="road",
                            nap_s=0.05)
    while ticket.status == "pending":
        time.sleep(0.005)
    time.sleep(0.05)  # let it get at least one superstep deep
    assert ticket.cancel() is True
    assert ticket.wait(timeout=60)
    assert ticket.status == "cancelled"
    with pytest.raises(QueryCancelled):
        ticket.result()
    # concurrency=1: this only completes if the cancelled run released
    # its pool slot.
    follow_up = service.play("sssp", 0, graph="road")
    assert follow_up.answer == pytest.approx(sssp_distances(graph, 0))
    assert service.stats.queries_cancelled == 1


def test_result_cancel_on_timeout(service):
    ticket = service.submit("napsssp", 0, graph="road",
                            nap_s=0.05)
    with pytest.raises(TimeoutError, match="not finished"):
        ticket.result(timeout=0.05, cancel_on_timeout=True)
    assert ticket.cancelled
    assert ticket.wait(timeout=60)
    assert ticket.status == "cancelled"


def test_result_timeout_without_flag_leaves_the_run_alone(service, graph):
    ticket = service.submit("napsssp", 0, graph="road")
    with pytest.raises(TimeoutError):
        ticket.result(timeout=0.01)
    assert not ticket.cancelled
    assert ticket.result(timeout=60) == pytest.approx(
        sssp_distances(graph, 0))
    assert ticket.status == "done"


def test_cancel_after_done_is_a_noop(service):
    ticket = service.play("sssp", 0, graph="road")
    assert ticket.cancel() is False
    assert ticket.status == "done"


def test_service_deadline_surfaces_and_counts(graph):
    svc = GrapeService(engine=EngineConfig(num_workers=4, deadline_s=0.1),
                       grouping=False)
    svc.program("napsssp")(NapSSSP)
    svc.load_graph("road", graph)
    try:
        slow = svc.submit("napsssp", 0, graph="road",
                          nap_s=0.06)
        slow.wait(timeout=60)
        assert slow.status == "failed"
        with pytest.raises(DeadlineExceeded):
            slow.result()
        assert svc.stats.deadlines_exceeded == 1
        # A fast query fits the same budget comfortably.
        quick = svc.play("sssp", 0, graph="road")
        assert quick.answer == pytest.approx(sssp_distances(graph, 0))
    finally:
        svc.close()
