"""The array/dict duality of the CSR programs' states, checked.

The value array is the per-fragment state of SSSP / BFS / CC / PageRank
and every dict a view derived on demand
(:mod:`repro.pie_programs._blocks`).  These tests pin what that has to
mean: asking for the view at any superstep boundary changes nothing a
run decides, the view is the ``use_csr=False`` state entry for entry, the
first dict-plane report after an array PEval names everything, a state
crosses a process boundary as arrays and is refused by a snapshot of
another shape, and a served array-plane query never builds a view.
"""

import copy
import pickle
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import engine as engine_mod
from repro.core.engine import EngineConfig, GrapeEngine
from repro.graph.delta import FragmentDelta
from repro.graph.generators import grid_road_graph, uniform_random_graph
from repro.graph.graph import Graph
from repro.partition.base import build_edge_cut_fragments
from repro.partition.strategies import HashPartition, MetisLikePartition
from repro.pie_programs import (BFSProgram, CCProgram, PageRankProgram,
                                PageRankQuery, SSSPProgram)
from repro.resilience.errors import StateSnapshotMismatch
from repro.resilience.faults import FaultPlane
from repro.runtime import executors
from repro.service import GrapeService

PAGERANK = PageRankQuery(max_iterations=4)
#: program, query, the state attribute that is its dict view
PROGRAMS = {
    "sssp": (SSSPProgram, 0, "dist"),
    "bfs": (BFSProgram, 0, "hops"),
    "cc": (CCProgram, None, "comps"),
    "pagerank": (PageRankProgram, PAGERANK, "rank"),
}
PARTITIONS = {"hash": HashPartition, "metis": MetisLikePartition}
#: engine keyword arguments per leg; "dict" additionally pins the plane
LEGS = {"array": {}, "dict": {}, "ni": {"incremental": False},
        "monotonic": {"check_monotonic": True}}
FRAGMENTS = 4


def view_of(state, attr):
    view = getattr(state, attr)
    return view.cid if attr == "comps" else view


def frozen(answer):
    return {k: frozenset(v) if isinstance(v, set) else v
            for k, v in answer.items()}


def run(name, graph, partition, leg, *, use_csr=True, force=()):
    """One engine run; ``force`` names the ``(round, fid)`` boundaries
    at which the fragment's dict view is read."""
    make, query, attr = PROGRAMS[name]
    rounds = {}
    real = executors._execute_command

    def execute(program, query_, fragment, state, command):
        outcome = real(program, query_, fragment, state, command)
        r = rounds[fragment.fid] = rounds.get(fragment.fid, 0) + 1
        if (r, fragment.fid) in force:
            getattr(state, attr)
        return outcome

    real_make = engine_mod.make_coordinator

    def dict_plane(*args, **kwargs):
        return real_make(*args, **dict(kwargs, arrays=False))

    engine = GrapeEngine(FRAGMENTS, backend="serial",
                         partition=PARTITIONS[partition](), **LEGS[leg])
    with mock.patch.object(executors, "_execute_command", execute), \
            mock.patch.object(engine_mod, "make_coordinator",
                              dict_plane if leg == "dict" else real_make):
        result = engine.run(make(use_csr=use_csr), query, graph=graph)
    costs = (result.supersteps, result.metrics.comm_bytes,
             result.metrics.comm_messages)
    return result, costs


@st.composite
def graphs(draw, max_nodes=14):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    g = Graph(directed=draw(st.booleans()))
    for v in range(n):
        g.add_node(v)
    for _ in range(draw(st.integers(min_value=1, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v, weight=draw(
                st.floats(min_value=0.1, max_value=5.0, allow_nan=False)))
    return g


@pytest.mark.parametrize("leg", sorted(LEGS))
@pytest.mark.parametrize("partition", sorted(PARTITIONS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(),
       force=st.sets(st.tuples(st.integers(1, 6),
                               st.integers(0, FRAGMENTS - 1)), max_size=8))
def test_forcing_the_view_changes_nothing_and_equals_the_dict_state(
        name, partition, leg, graph, force):
    attr = PROGRAMS[name][2]
    plain, plain_costs = run(name, graph.copy(), partition, leg)
    forced, forced_costs = run(name, graph.copy(), partition, leg,
                               force=force)
    assert frozen(forced.answer) == frozen(plain.answer)
    assert forced_costs == plain_costs
    if leg == "array":
        assert plain.metrics.dict_views_materialised == 0
        if any(r == 1 for r, _fid in force):  # every fragment runs PEval
            assert forced.metrics.dict_views_materialised >= 1
    reference, _ = run(name, graph.copy(), partition, leg, use_csr=False)
    assert frozen(reference.answer) == frozen(plain.answer)
    for fid, state in reference.states.items():
        want = view_of(state, attr)
        assert view_of(plain.states[fid], attr) == want
        assert view_of(forced.states[fid], attr) == want


def _split_path():
    """Directed weighted path 0 -> 1 -> 2 -> 3 split at 1|2."""
    g = Graph(directed=True)
    g.add_edge(0, 1, weight=1.0)
    g.add_edge(1, 2, weight=2.0)
    g.add_edge(2, 3, weight=3.0)
    return g, build_edge_cut_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)


class TestFirstDictPlaneReport:
    """After an array PEval nothing was diffed and nothing marked dirty:
    the first dict-plane read must still name everything."""

    @pytest.mark.parametrize("make,finite", [
        (SSSPProgram, {(2, "dist"): 3.0}), (BFSProgram, {(2, "hop"): 2})])
    def test_every_finite_outer_entry(self, make, finite):
        _g, frag = _split_path()
        prog = make()
        state = prog.init_state(0, frag[0])
        prog.peval(0, frag[0], state)
        assert state.views_materialised == 0  # the kernel ran and stopped
        assert prog.read_changed_params(0, frag[0], state) == finite
        assert prog.read_changed_params(0, frag[0], state) == {}
        # the fragment that never saw the source has nothing finite
        other = prog.init_state(0, frag[1])
        prog.peval(0, frag[1], other)
        assert prog.read_changed_params(0, frag[1], other) == {}

    def test_every_border_node_for_cc(self):
        g = uniform_random_graph(40, 50, directed=False, seed=2)
        fragmentation = HashPartition().partition(g, 3)
        prog = CCProgram()
        for frag in fragmentation:
            state = prog.init_state(None, frag)
            prog.peval(None, frag, state)
            assert state.views_materialised == 0
            first = prog.read_changed_params(None, frag, state)
            assert {v for v, _name in first} == frag.border_nodes
            assert prog.read_changed_params(None, frag, state) == {}
            # the component structure, asked for now, agrees
            assert all(state.comps.cid[v] == cid
                       for (v, _name), cid in first.items())

    def test_cc_view_taken_mid_run_carries_what_was_not_reported_yet(self):
        g = uniform_random_graph(40, 50, directed=False, seed=2)
        frag = HashPartition().partition(g, 3)[0]
        prog = CCProgram()
        state = prog.init_state(None, frag)
        prog.peval(None, frag, state)
        prog.read_changed_block(None, frag, state)
        v = max(frag.border_nodes)
        prog.inceval(None, frag, state, {(v, "cid"): -7})
        members = set(state.comps.component_members(v))  # the view, now
        changed = prog.read_changed_params(None, frag, state)
        assert changed == {(m, "cid"): -7
                           for m in members & frag.border_nodes}


class TestEstimatesForUnknownNodes:
    def test_survive_a_later_kernel_call(self):
        _g, frag = _split_path()
        prog = SSSPProgram()
        state = prog.init_state(0, frag[1])
        prog.peval(0, frag[1], state)
        # node 0 is unknown to fragment 1: recorded, not propagated
        prog.inceval(0, frag[1], state, {(0, "dist"): 0.5, (2, "dist"): 3.0})
        assert state.dist[0] == 0.5 and state.dist[3] == 6.0
        prog.inceval(0, frag[1], state, {(2, "dist"): 1.0})
        assert state.dist[0] == 0.5
        assert (state.dist[2], state.dist[3]) == (1.0, 4.0)
        # the array plane's kernel call keeps the view in step too
        from repro.runtime.wire import ParamBlock
        prog.inceval_block(0, frag[1], state, ParamBlock(
            np.array([2], dtype=np.int64), np.array([0.25])))
        assert state.dist[0] == 0.5 and state.dist[3] == 3.25


class TestWhoWroteLastDecides:
    """Dict-plane IncEval follows the state's representation, not the
    snapshot cache: once a dict algorithm wrote, the view is the state,
    and a live snapshot (an inline compaction re-caches them between a
    batch and the refresh) does not bring the kernel back."""

    @pytest.mark.parametrize("make,name,msg,want", [
        (SSSPProgram, "dist", 1.0, {2: 0.25, 3: 3.25}),
        (BFSProgram, "hop", 1, {2: 0, 3: 1})])
    def test_no_kernel_and_no_array_after_a_dict_write(self, make, name,
                                                       msg, want):
        _g, frag = _split_path()
        prog = make()
        state = prog.init_state(0, frag[1])
        prog.peval(0, frag[1], state)
        prog.inceval(0, frag[1], state, {(2, name): 5 * msg})
        assert state.current(frag[1])  # the kernel ran: arrays are the state
        # maintenance folds a cheaper edge into 2 (query 1 is its tail)
        prog.apply_nonmonotone(1, frag[1], state, FragmentDelta(
            fid=1, insertions=[(1, 2, 0.5)]), set())
        assert frag[1].csr_cached and not state.has_arrays
        with mock.patch.object(make, "_kernel",
                               side_effect=AssertionError("kernel call")):
            prog.inceval(0, frag[1], state, {(2, name): msg})  # no gain
            prog.inceval(0, frag[1], state, {(2, name): want[2]})
        view = state.view
        assert {v: view[v] for v in want} == want
        assert not state.has_arrays and state.views_materialised == 1
        with pytest.raises(StateSnapshotMismatch):
            state.array(frag[1])  # never rebuilt from the view


class TestCrossingAProcessBoundary:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_a_state_pickles_arrays_never_a_per_vertex_dict(self, name):
        make, query, attr = PROGRAMS[name]
        g = uniform_random_graph(60, 150, directed=False, seed=4)
        result = GrapeEngine(3).run(make(), query, graph=g)
        for fid, state in result.states.items():
            getattr(state, attr)  # even with the view materialised
            clone = pickle.loads(pickle.dumps(state))
            if name != "cc":  # (asking CC for comps makes them the state)
                assert clone.has_arrays and clone._view is None
            assert clone._epoch is None and clone._keys is None
        restored = {fid: pickle.loads(pickle.dumps(state))
                    for fid, state in GrapeEngine(3).run(
                        make(), query, graph=g).states.items()}
        assert all(s.has_arrays for s in restored.values())
        assert frozen(make().assemble(query, result.fragmentation,
                                      restored)) == frozen(result.answer)

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_another_shape_is_refused_not_gathered_from(self, name):
        make, query, attr = PROGRAMS[name]
        g = uniform_random_graph(60, 150, directed=False, seed=4)
        result = GrapeEngine(3).run(make(), query, graph=g)
        other = HashPartition().partition(
            uniform_random_graph(75, 150, directed=False, seed=4), 3)
        moved = {fid: copy.deepcopy(state)
                 for fid, state in result.states.items()}
        with pytest.raises(StateSnapshotMismatch):
            make().assemble(query, other, moved)
        with pytest.raises(StateSnapshotMismatch):
            getattr(copy.deepcopy(result.states[0]), attr)  # never bound

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_checkpoint_restore_continue_with_array_only_states(
            self, backend, name):
        """Every fragment's state goes through a checkpoint (a deep copy
        that keeps the arrays only) each superstep; two crashes restore
        them (on ``process``: onto fresh workers whose fragment copies
        start at another epoch)."""
        make, query, _attr = PROGRAMS[name]
        g = grid_road_graph(7, 7, seed=3)
        clean = GrapeEngine(3, backend=backend).run(make(), query, graph=g)
        # the coordinator's copy of the fragments has seen a mutation the
        # workers' copies have not: the epochs differ
        for frag in clean.fragmentation:
            frag.invalidate_csr(())
        plane = (FaultPlane().plan("exec.step", "crash", key=0, at=2)
                 .plan("exec.step", "crash", key=1, at=1))
        recovered = GrapeEngine(3, backend=backend, fault_plane=plane,
                                checkpoint=True).run(
            make(), query, fragmentation=clean.fragmentation)
        assert recovered.recoveries >= 1
        assert recovered.metrics.dict_views_materialised == 0
        assert frozen(recovered.answer) == frozen(clean.answer)
        assert (recovered.supersteps, recovered.metrics.comm_bytes) == (
            clean.supersteps, clean.metrics.comm_bytes)


class TestServedQueriesNeverBuildAView:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_array_plane_queries_materialise_zero_dict_views(self, backend):
        g = uniform_random_graph(120, 400, directed=False, seed=8)
        with GrapeService(engine=EngineConfig(num_workers=3,
                                              backend=backend)) as svc:
            svc.load_graph("g", g)
            for name, (_make, query, _attr) in sorted(PROGRAMS.items()):
                ticket = svc.play(name, query, graph="g")
                assert ticket.metrics.dict_views_materialised == 0, name
            assert svc.stats.dict_views_materialised == 0
            # the dict plane does build them, and says so
            ticket = svc.play("sssp", 0, graph="g", engine=EngineConfig(
                num_workers=3, backend=backend, incremental=False))
            assert ticket.metrics.dict_views_materialised > 0
            report = svc.debug_report()
        assert (report["metrics"]["repro_dict_views_materialised"]
                == ticket.metrics.dict_views_materialised)
