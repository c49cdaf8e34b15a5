"""Asynchronous GRAPE: barrier-free evaluation reaches the same fixpoint
(the paper's announced future-work extension)."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import async_engine as async_engine_mod
from repro.core.async_engine import AsyncGrapeEngine
from repro.core.coordinator import DictCoordinator
from repro.core.engine import GrapeEngine
from repro.graph.generators import (grid_road_graph, labeled_graph,
                                    uniform_random_graph)
from repro.graph.graph import Graph
from repro.partition.strategies import HashPartition, MetisLikePartition
from repro.pie_programs import BFSProgram, CCProgram, SimProgram, \
    SSSPProgram, SubIsoProgram
from repro.runtime.wire import wire_bytes
from repro.sequential import (canonical_match, connected_components,
                              maximum_simulation, sssp_distances,
                              vf2_all_matches)


class TestAsyncConfig:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            AsyncGrapeEngine(0)

    def test_virtual_less_than_physical(self):
        with pytest.raises(ValueError):
            AsyncGrapeEngine(4, num_fragments=2)

    def test_requires_graph_or_fragmentation(self):
        with pytest.raises(ValueError):
            AsyncGrapeEngine(2).run(SSSPProgram(), query=0)

    def test_activation_budget(self, small_road):
        engine = AsyncGrapeEngine(4, max_activations=3)
        with pytest.raises(RuntimeError, match="no fixpoint"):
            engine.run(SSSPProgram(), query=0, graph=small_road)


class TestAsyncEqualsSync:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_sssp(self, small_road, n):
        truth = sssp_distances(small_road, 0)
        result = AsyncGrapeEngine(n).run(SSSPProgram(), query=0,
                                         graph=small_road)
        assert result.answer == pytest.approx(truth)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_cc(self, small_undirected, n):
        expected = {}
        for v, c in connected_components(small_undirected).items():
            expected.setdefault(c, set()).add(v)
        result = AsyncGrapeEngine(n).run(CCProgram(), query=None,
                                         graph=small_undirected)
        assert result.answer == expected

    def test_sim(self, small_labeled, path_pattern):
        truth = maximum_simulation(path_pattern, small_labeled)
        result = AsyncGrapeEngine(4).run(SimProgram(), query=path_pattern,
                                         graph=small_labeled)
        assert result.answer == truth

    def test_subiso_via_preprocess(self, small_labeled, path_pattern):
        truth = {canonical_match(m)
                 for m in vf2_all_matches(path_pattern, small_labeled)}
        result = AsyncGrapeEngine(4).run(SubIsoProgram(),
                                         query=path_pattern,
                                         graph=small_labeled)
        assert {canonical_match(m) for m in result.answer} == truth

    def test_same_answer_as_sync_engine(self, small_road):
        frag_engine = GrapeEngine(4, partition=MetisLikePartition())
        fragmentation = frag_engine.make_fragmentation(small_road)
        sync = frag_engine.run(SSSPProgram(), query=0,
                               fragmentation=fragmentation)
        async_result = AsyncGrapeEngine(4).run(
            SSSPProgram(), query=0, fragmentation=fragmentation)
        assert async_result.answer == pytest.approx(sync.answer)

    def test_monotonic_check(self, small_road):
        engine = AsyncGrapeEngine(4, check_monotonic=True)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(
            sssp_distances(small_road, 0))


class TestAsyncBehaviour:
    def test_activations_counted(self, small_road):
        result = AsyncGrapeEngine(4).run(SSSPProgram(), query=0,
                                         graph=small_road)
        # At least one PEval per fragment.
        assert result.activations >= 4

    def test_communication_accounted(self, small_road):
        result = AsyncGrapeEngine(4).run(SSSPProgram(), query=0,
                                         graph=small_road)
        assert result.metrics.comm_bytes > 0
        assert result.metrics.parallel_time_s > 0

    def test_single_fragment_no_messages(self, small_road):
        result = AsyncGrapeEngine(1).run(SSSPProgram(), query=0,
                                         graph=small_road)
        assert result.activations == 1
        assert result.metrics.comm_bytes == 0

    def test_activations_at_most_sync_work(self, small_undirected):
        """Async activates only fragments with real messages; the total
        is bounded by the synchronous supersteps x fragments."""
        sync = GrapeEngine(4).run(CCProgram(), query=None,
                                  graph=small_undirected)
        async_result = AsyncGrapeEngine(4).run(CCProgram(), query=None,
                                               graph=small_undirected)
        assert async_result.activations <= sync.supersteps * 4



@st.composite
def graphs(draw, max_nodes=16):
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


class TestScheduleIndependence:
    """A value is a min over paths of the path's weights summed from the
    source outward — the same float whichever order the fragments ran
    in — so the barrier-free schedule must reproduce the BSP answer
    *bitwise*, not approximately."""

    @pytest.mark.parametrize("partition", [HashPartition(),
                                           MetisLikePartition()],
                             ids=["hash", "metis"])
    @pytest.mark.parametrize("make_program,query", [
        (SSSPProgram, 0), (BFSProgram, 0), (CCProgram, None)],
        ids=["sssp", "bfs", "cc"])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=graphs(), workers=st.integers(min_value=1, max_value=4))
    def test_async_equals_sync_bitwise(self, make_program, query, partition,
                                       graph, workers):
        if query is None and graph.directed:
            return  # CC is defined on undirected graphs
        fragmentation = partition.partition(graph, 4)
        sync = GrapeEngine(workers, num_fragments=4).run(
            make_program(), query, fragmentation=fragmentation)
        barrier_free = AsyncGrapeEngine(workers, num_fragments=4).run(
            make_program(), query, fragmentation=fragmentation)
        assert barrier_free.answer == sync.answer


class TestAsyncAccounting:
    @pytest.mark.parametrize("make_program,query,fixture", [
        (SSSPProgram, 0, "small_road"),
        (CCProgram, None, "small_undirected")], ids=["sssp", "cc"])
    def test_comm_bytes_obey_the_wire_model(self, monkeypatch, request,
                                            make_program, query, fixture):
        """Every non-empty report and every composed message is one
        message charged ``16 + n * (8 + width)`` — the closed form the
        synchronous engine uses, no pickling."""
        sizes = []
        fold, compose = DictCoordinator._fold, DictCoordinator._compose

        def spy_fold(coord, reports, first_round):
            sizes.extend(len(params) for _kind, params in reports.values()
                         if params)
            return fold(coord, reports, first_round)

        def spy_compose(coord, dirty):
            messages = compose(coord, dirty)
            sizes.extend(len(message) for message in messages.values())
            return messages

        monkeypatch.setattr(DictCoordinator, "_fold", spy_fold)
        monkeypatch.setattr(DictCoordinator, "_compose", spy_compose)
        monkeypatch.setattr(async_engine_mod, "message_bytes",
                            lambda payload: pytest.fail(
                                "an update parameter was priced by pickle"))
        result = AsyncGrapeEngine(4).run(
            make_program(), query,
            graph=request.getfixturevalue(fixture))
        assert len(sizes) > 4
        assert result.metrics.comm_messages == len(sizes)
        assert result.metrics.comm_bytes == sum(
            wire_bytes(n, make_program.param_width) for n in sizes)
