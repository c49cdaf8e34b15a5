"""The coordinator object: plane selection, the array fold / compose,
and checkpoint / restore of the array tables."""

import os

import numpy as np
import pytest

from repro.core import engine as engine_mod
from repro.core.coordinator import (ArrayCoordinator, DictCoordinator,
                                    MonotonicityViolation, make_coordinator)
from repro.core.engine import GrapeEngine
from repro.graph.generators import grid_road_graph, uniform_random_graph
from repro.graph.graph import Graph
from repro.partition.base import build_edge_cut_fragments
from repro.pie_programs import (BFSProgram, CCProgram, PageRankProgram,
                                PageRankQuery, SimProgram, SSSPProgram)
from repro.resilience import FaultPlane
from repro.runtime.fault import Arbitrator
from repro.runtime.metrics import RunMetrics
from repro.runtime.wire import ParamBlock, wire_bytes
from repro.sequential import sssp_distances

needs_posix = pytest.mark.skipif(os.name != "posix",
                                 reason="worker kill semantics are POSIX")


def _two_fragments():
    """0 -> 1 -> 2 | 3 -> 4, cut between 2 and 3, plus 4 -> 0 back."""
    g = Graph(directed=True)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]:
        g.add_edge(u, v, weight=1.0)
    return build_edge_cut_fragments(g, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}, 2)


def _block(ids, vals, dtype=np.float64):
    return ("block", ParamBlock(np.array(ids, dtype=np.int64),
                                np.array(vals, dtype=dtype)))


class InstrumentedSSSP(SSSPProgram):
    def inceval(self, query, fragment, state, message):
        super().inceval(query, fragment, state, message)


class TestPlaneSelection:
    def test_array_plane_needs_a_spec_and_an_index(self):
        frag = _two_fragments()
        for program in (SSSPProgram(), BFSProgram(), CCProgram(),
                        PageRankProgram()):
            assert isinstance(make_coordinator(program, frag),
                              ArrayCoordinator)
        for program in (SSSPProgram(use_csr=False),
                        CCProgram(use_csr=False), SimProgram()):
            coord = make_coordinator(program, frag)
            assert isinstance(coord, DictCoordinator) and not coord.blocks

    def test_dict_only_protocols_stay_on_the_dict_plane(self):
        frag = _two_fragments()
        assert isinstance(make_coordinator(SSSPProgram(), frag,
                                           arrays=False), DictCoordinator)

    def test_customised_dict_hooks_keep_being_called(self):
        frag = _two_fragments()
        assert isinstance(make_coordinator(InstrumentedSSSP(), frag),
                          DictCoordinator)

    def test_engine_follows_the_same_rule(self, monkeypatch):
        taken = []
        real = engine_mod.make_coordinator

        def spy(*args, **kwargs):
            coord = real(*args, **kwargs)
            taken.append(type(coord).__name__)
            return coord

        monkeypatch.setattr(engine_mod, "make_coordinator", spy)
        g = grid_road_graph(5, 5, seed=2)
        for kwargs in ({}, {"incremental": False},
                       {"check_monotonic": True}):
            GrapeEngine(3, **kwargs).run(SSSPProgram(), query=0, graph=g)
        # the monotonic check does not change the plane
        assert taken == ["ArrayCoordinator", "DictCoordinator",
                         "ArrayCoordinator"]


class TestArrayFoldAndCompose:
    def test_min_fold_routes_to_the_owner_and_skips_the_holder(self):
        frag = _two_fragments()
        coord = make_coordinator(SSSPProgram(), frag)
        # F0 reports its copy of node 3; F1 its copy of node 0
        up_bytes, up_msgs, dirty = coord.fold(
            {0: _block([3], [2.0]), 1: _block([0], [5.0])},
            first_round=True)
        assert (up_bytes, up_msgs) == (2 * wire_bytes(1, 8), 2)
        messages = coord.compose(dirty)
        assert sorted(messages) == [0, 1]
        assert messages[1].ids.tolist() == [3]
        assert messages[1].vals.tolist() == [2.0]
        assert messages[0].ids.tolist() == [0]
        # no change: nothing folds, nothing is composed
        _b, msgs, dirty = coord.fold({0: ("block", None),
                                      1: ("block", None)})
        assert msgs == 0 and coord.compose(dirty) == {}
        # a worse value is not progress
        _b, _m, dirty = coord.fold({0: _block([3], [9.0])})
        assert coord.compose(dirty) == {}

    def test_holder_routing_tells_everyone_but_the_reporter(self):
        frag = _two_fragments()
        coord = make_coordinator(CCProgram(), frag)
        _b, _m, dirty = coord.fold(
            {0: _block([0, 3], [0, 0], np.int64),
             1: _block([0, 3], [3, 3], np.int64)}, first_round=True)
        messages = coord.compose(dirty)
        # F0 already holds the winning cid for both nodes
        assert sorted(messages) == [1]
        assert sorted(messages[1].ids.tolist()) == [0, 3]
        assert messages[1].vals.tolist() == [0, 0]

    def test_per_source_blocks_are_routed_not_folded(self):
        frag = _two_fragments()
        coord = make_coordinator(PageRankProgram(), frag)
        assert coord.table is None
        up_bytes, up_msgs, dirty = coord.fold(
            {0: _block([3], [0.25]), 1: _block([0], [0.5])})
        assert (up_bytes, up_msgs) == (2 * wire_bytes(1, 16), 2)
        messages = coord.compose(dirty)
        assert messages[1].ids.tolist() == [3]
        assert messages[1].src.tolist() == [0]
        assert messages[0].src.tolist() == [1]

    @pytest.mark.parametrize("check", [False, True])
    def test_same_messages_as_the_dict_plane(self, check):
        frag = _two_fragments()
        array = make_coordinator(SSSPProgram(), frag, check=check)
        plain = make_coordinator(SSSPProgram(use_csr=False), frag,
                                 check=check)
        rounds = [({0: {3: 2.0}, 1: {0: 5.0}}, True),
                  ({0: {3: 1.5}, 1: {}}, False),
                  ({0: {}, 1: {0: 7.0}}, False)]  # a worse value: F1 regressed
        for reports, first in rounds:
            blocks = {fid: (_block(list(r), list(r.values())) if r
                            else ("block", None))
                      for fid, r in reports.items()}
            dicts = {fid: ("changed", {(v, "dist"): x for v, x in r.items()})
                     for fid, r in reports.items()}
            if check and reports[1].get(0) == 7.0:
                for coord, folded in ((array, blocks), (plain, dicts)):
                    with pytest.raises(MonotonicityViolation,
                                       match="node 0 from 5.0 → 7.0"):
                        coord.fold(folded)
                return
            a = array.fold(blocks, first_round=first)
            d = plain.fold(dicts, first_round=first)
            assert a[:2] == d[:2]
            blocks, dicts = array.compose(a[2]), plain.compose(d[2])
            assert sorted(blocks) == sorted(dicts)
            for fid, block in blocks.items():
                assert dict(zip(block.ids.tolist(), block.vals.tolist())) \
                    == {v: x for (v, _n), x in dicts[fid].items()}
                assert array.price(block) == plain.price(dicts[fid])

    def test_timers_drain_into_run_metrics(self):
        coord = make_coordinator(SSSPProgram(), _two_fragments())
        _b, _m, dirty = coord.fold({0: _block([3], [2.0])},
                                   first_round=True)
        coord.compose(dirty)
        metrics = RunMetrics()
        coord.drain_timers(metrics)
        assert metrics.fold_s > 0 and metrics.compose_s > 0
        assert metrics.accounting_s > 0
        assert coord.fold_s == coord.compose_s == coord.accounting_s == 0


class TestCheckpointRestore:
    def test_tables_are_copied_and_restored(self):
        coord = make_coordinator(SSSPProgram(), _two_fragments())
        coord.fold({0: _block([3], [2.0])}, first_round=True)
        arbitrator = Arbitrator()
        arbitrator.checkpoint({"coordinator": coord.snapshot()})
        table, reported = coord.table.copy(), coord.reported.copy()
        coord.fold({0: _block([3], [1.0]), 1: _block([0], [4.0])})
        assert not np.array_equal(coord.table, table)
        coord.restore(arbitrator.restore()["coordinator"])
        assert np.array_equal(coord.table, table)
        assert np.array_equal(coord.reported, reported)
        # the restored tables are the coordinator's own again
        coord.fold({1: _block([0], [4.0])})
        assert not np.array_equal(coord.table, table)

    @pytest.mark.parametrize("make_program,query", [
        (SSSPProgram, 0), (BFSProgram, 0), (CCProgram, None),
        (PageRankProgram, PageRankQuery(max_iterations=5))])
    def test_inline_crash_mid_run_recovers_the_answer(self, make_program,
                                                      query):
        g = uniform_random_graph(90, 260, directed=False, seed=6)
        clean = GrapeEngine(4).run(make_program(), query, graph=g)
        plane = (FaultPlane().plan("exec.step", "crash", key=1, at=2)
                 .plan("exec.step", "crash", key=2, at=1))
        faulty = GrapeEngine(4, fault_plane=plane).run(
            make_program(), query, fragmentation=clean.fragmentation)
        assert faulty.recoveries >= 1
        assert faulty.answer == clean.answer
        # a recovered run accounts like the uninterrupted one, whatever
        # backend the ambient REPRO_BACKEND picked
        assert (faulty.supersteps, faulty.metrics.comm_bytes,
                faulty.metrics.comm_messages) == (
                    clean.supersteps, clean.metrics.comm_bytes,
                    clean.metrics.comm_messages)
        assert len(plane.fired) == 2

    @needs_posix
    @pytest.mark.parametrize("make_program,query", [
        (SSSPProgram, 0), (CCProgram, None),
        (PageRankProgram, PageRankQuery(max_iterations=5))])
    def test_process_worker_death_keeps_the_supersteps(self, make_program,
                                                       query):
        """A pooled worker really dies mid-run (the plane's ``crash``
        is ``os._exit`` there); the run resumes from the checkpoint on a
        fresh worker with the array tables restored, so its logical
        account equals the uninterrupted run's."""
        g = grid_road_graph(7, 7, seed=3)
        clean = GrapeEngine(3, backend="process").run(
            make_program(), query, graph=g)
        plane = FaultPlane().plan("exec.step", "crash", key=0, at=2)
        recovered = GrapeEngine(
            3, backend="process", fault_plane=plane,
            checkpoint=True).run(
                make_program(), query, fragmentation=clean.fragmentation)
        assert recovered.recoveries >= 1
        assert recovered.answer == clean.answer
        assert (recovered.supersteps, recovered.metrics.comm_bytes,
                recovered.metrics.comm_messages) == (
                    clean.supersteps, clean.metrics.comm_bytes,
                    clean.metrics.comm_messages)
        if make_program is SSSPProgram:
            assert recovered.answer == pytest.approx(sssp_distances(g, 0))
