"""The monotonic condition of the Assurance Theorem (paper Section 4.1),
checked on the coordinator's report tables: a regressed report raises
:exc:`MonotonicityViolation` on either plane and in a standing query's
maintenance, and the check changes neither the plane nor anything a run
counts."""

import numpy as np
import pytest

from repro.core import MonotonicityViolation
from repro.core import engine as engine_mod
from repro.core.aggregators import MinAggregator
from repro.core.engine import EngineConfig, GrapeEngine
from repro.core.pie import PIEProgram
from repro.core.updates import ContinuousQuerySession
from repro.graph.delta import GraphDelta
from repro.graph.generators import grid_road_graph, preferential_attachment
from repro.graph.graph import Graph
from repro.partition.base import build_edge_cut_fragments
from repro.pie_programs import (BFSProgram, CCProgram, PageRankProgram,
                                PageRankQuery, SSSPProgram)
from repro.service import GrapeService


class OneThenNine(PIEProgram):
    """Reports 1 for every ``F_i.O`` key after PEval and 9 after IncEval:
    under ``min`` the second report moves every key backwards."""

    aggregator = MinAggregator()

    def init_state(self, query, fragment):
        return {"value": None}

    def read_update_params(self, query, fragment, state):
        return {(v, "x"): state["value"] for v in fragment.outer}

    def peval(self, query, fragment, state):
        state["value"] = 1

    def inceval(self, query, fragment, state, message):
        state["value"] = 9

    def assemble(self, query, fragmentation, states):
        return None


class RegressingSSSP(SSSPProgram):
    """SSSP whose array-plane IncEval raises one finite ``F_i.O``
    distance by 100 after every relax."""

    calls = 0
    raised = []

    def inceval_block(self, query, fragment, state, block):
        type(self).calls += 1
        super().inceval_block(query, fragment, state, block)
        labels, vids = fragment.outer_slots()
        dist = state.array(fragment)
        finite = np.flatnonzero(dist[vids] < np.inf)
        if finite.size:
            dist[vids[finite[0]]] += 100.0
            type(self).raised.append((fragment.fid,
                                      labels[finite[0]].item()))


class RegressingMaintenance(SSSPProgram):
    """SSSP whose maintenance raises one finite ``F_i.O`` distance
    outside the reset region by 100 on every fragment it refreshes."""

    raised = []

    def apply_nonmonotone(self, query, fragment, state, delta, affected):
        super().apply_nonmonotone(query, fragment, state, delta, affected)
        dist = state.dist
        victim = next((v for v in sorted(fragment.outer)
                       if v not in affected and dist.get(v, np.inf)
                       < np.inf), None)
        if victim is not None:
            dist[victim] += 100.0
            state.mark(fragment, (victim,))
            type(self).raised.append((fragment.fid, victim))


def _cycle_fragments():
    """0 -> 1 -> 2 | 3 -> 4, cut between 2 and 3, plus 4 -> 0 back."""
    g = Graph(directed=True)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]:
        g.add_edge(u, v, weight=1.0)
    return build_edge_cut_fragments(g, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}, 2)


def _power_law():
    return preferential_attachment(600, 3, seed=4)


def _names_a_raised_node(exc):
    return any(f"fragment {fid} moved node {node} " in str(exc)
               for fid, node in RegressingSSSP.raised)


@pytest.fixture(autouse=True)
def _fresh_counters():
    RegressingSSSP.calls, RegressingSSSP.raised = 0, []
    RegressingMaintenance.raised = []


class TestRegressionsAreCaught:
    def test_dict_plane_names_fragment_key_and_values(self):
        frag = _cycle_fragments()
        quiet = GrapeEngine(2, backend="serial").run(
            OneThenNine(), None, fragmentation=frag)
        assert quiet.supersteps == 2  # without the check: nothing noticed
        with pytest.raises(MonotonicityViolation, match=(
                "fragment 0 moved 'x' of node 3 from 1 → 9")):
            GrapeEngine(2, backend="serial", check_monotonic=True).run(
                OneThenNine(), None, fragmentation=frag)

    def test_array_plane_names_the_node(self):
        with pytest.raises(MonotonicityViolation) as caught:
            GrapeEngine(4, backend="serial", check_monotonic=True).run(
                RegressingSSSP(), 0, graph=_power_law())
        assert RegressingSSSP.calls > 0  # the array plane ran
        assert _names_a_raised_node(caught.value)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_served_query_raises_it_unwrapped(self, backend):
        config = EngineConfig(num_workers=4, backend=backend,
                              check_monotonic=True)
        with GrapeService(engine=config) as service:
            service.load_graph("g", _power_law())
            service.plug("regressing-sssp", RegressingSSSP)
            with pytest.raises(MonotonicityViolation) as caught:
                service.play("regressing-sssp", 0, graph="g")
        assert caught.type is MonotonicityViolation
        assert "moved node" in str(caught.value)


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_a_batch_first_round_is_checked(op):
    """The first round of a maintained batch is folded by the session's
    rebaseline, for a monotone batch and a non-monotone one alike."""
    def session(check):
        engine = GrapeEngine(4, backend="serial", check_monotonic=check)
        return ContinuousQuerySession(engine, RegressingMaintenance(), 0,
                                      grid_road_graph(12, 12, seed=3))

    quiet = session(False)
    u, v, _w = sorted(quiet.fragmentation.graph.edges())[70]
    delta = (GraphDelta().insert(0, 143, 0.25) if op == "insert"
             else GraphDelta().delete(u, v))
    quiet.update(delta)  # without the check: nothing noticed
    assert RegressingMaintenance.raised

    RegressingMaintenance.raised = []
    with pytest.raises(MonotonicityViolation) as caught:
        session(True).update(delta)
    assert any(f"fragment {fid} moved 'dist' of node {node!r} " in
               str(caught.value)
               for fid, node in RegressingMaintenance.raised)


@pytest.mark.parametrize("make_program,query", [
    (SSSPProgram, 0), (BFSProgram, 0), (CCProgram, None),
    (PageRankProgram, PageRankQuery(max_iterations=6))],
    ids=["sssp", "bfs", "cc", "pagerank"])
def test_the_check_changes_neither_plane_nor_counts(monkeypatch,
                                                    make_program, query):
    planes = []
    real = engine_mod.make_coordinator

    def spy(*args, **kwargs):
        coordinator = real(*args, **kwargs)
        planes.append(type(coordinator).__name__)
        return coordinator

    monkeypatch.setattr(engine_mod, "make_coordinator", spy)
    graph = preferential_attachment(300, 3, directed=query is not None,
                                    seed=7)
    runs = [GrapeEngine(4, backend="serial", check_monotonic=check).run(
        make_program(), query, graph=graph.copy()) for check in (False, True)]
    assert planes == ["ArrayCoordinator"] * 2
    off, on = ((run.answer, run.supersteps, run.metrics.comm_bytes,
                run.metrics.comm_messages) for run in runs)
    assert on == off
