"""GRAPE engine tests: correctness against sequential oracles for every
PIE program, across partition strategies and worker counts — the
executable Assurance Theorem."""

from math import inf

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.engine import GrapeEngine
from repro.graph.generators import (grid_road_graph, labeled_graph,
                                    uniform_random_graph)
from repro.graph.graph import Graph
from repro.partition.strategies import (HashPartition, MetisLikePartition,
                                        StreamingPartition)
from repro.pie_programs import (BFSProgram, CCProgram, CFProgram, CFQuery,
                                SimProgram, SSSPProgram, SubIsoProgram)
from repro.sequential import (canonical_match, connected_components,
                              maximum_simulation, sssp_distances,
                              vf2_all_matches)

STRATEGIES = [HashPartition(), MetisLikePartition(), StreamingPartition()]


def cc_oracle(g):
    buckets = {}
    for v, c in connected_components(g).items():
        buckets.setdefault(c, set()).add(v)
    return buckets


class TestEngineConfig:
    def test_requires_graph_or_fragmentation(self):
        with pytest.raises(ValueError):
            GrapeEngine(2).run(SSSPProgram(), query=0)

    def test_virtual_less_than_physical_rejected(self):
        with pytest.raises(ValueError):
            GrapeEngine(4, num_fragments=2)

    def test_nonterminating_program_detected(self, small_road):
        engine = GrapeEngine(2, max_supersteps=2)
        with pytest.raises(RuntimeError, match="no fixpoint"):
            engine.run(SSSPProgram(), query=0, graph=small_road)


class TestSSSPOnGrape:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_matches_oracle_workers(self, small_road, n):
        truth = sssp_distances(small_road, 0)
        result = GrapeEngine(n).run(SSSPProgram(), query=0,
                                    graph=small_road)
        assert result.answer == pytest.approx(truth)

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.name)
    def test_matches_oracle_strategies(self, small_road, strategy):
        truth = sssp_distances(small_road, 0)
        engine = GrapeEngine(4, partition=strategy)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(truth)

    def test_more_fragments_than_workers(self, small_road):
        truth = sssp_distances(small_road, 0)
        engine = GrapeEngine(2, num_fragments=6)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(truth)

    def test_unreachable_nodes_inf(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_node(99)
        result = GrapeEngine(2).run(SSSPProgram(), query=0, graph=g)
        assert result.answer[99] == inf

    def test_source_missing(self, small_road):
        result = GrapeEngine(2).run(SSSPProgram(), query="ghost",
                                    graph=small_road)
        assert all(d == inf for d in result.answer.values())

    def test_monotonic_check_passes(self, small_road):
        engine = GrapeEngine(4, check_monotonic=True)
        truth = sssp_distances(small_road, 0)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(truth)

    def test_ni_mode_same_answer(self, small_road):
        truth = sssp_distances(small_road, 0)
        engine = GrapeEngine(4, incremental=False)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(truth)

    def test_fragmentation_reused_across_queries(self, small_road):
        engine = GrapeEngine(4)
        frag = engine.make_fragmentation(small_road)
        for source in (0, 7, 21):
            result = engine.run(SSSPProgram(), query=source,
                                fragmentation=frag)
            assert result.answer == pytest.approx(
                sssp_distances(small_road, source))

    def test_communication_is_accounted(self, small_road):
        result = GrapeEngine(4).run(SSSPProgram(), query=0,
                                    graph=small_road)
        assert result.metrics.comm_bytes > 0
        assert result.metrics.comm_messages > 0
        assert result.supersteps >= 2

    def test_single_worker_two_supersteps(self, small_road):
        """With one fragment there are no border nodes: PEval answers."""
        result = GrapeEngine(1).run(SSSPProgram(), query=0,
                                    graph=small_road)
        assert result.supersteps == 1
        assert result.metrics.comm_bytes == 0


class TestCCOnGrape:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_oracle(self, small_undirected, n):
        result = GrapeEngine(n).run(CCProgram(), query=None,
                                    graph=small_undirected)
        assert result.answer == cc_oracle(small_undirected)

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.name)
    def test_strategies(self, small_undirected, strategy):
        engine = GrapeEngine(4, partition=strategy)
        result = engine.run(CCProgram(), query=None,
                            graph=small_undirected)
        assert result.answer == cc_oracle(small_undirected)

    def test_ni_mode(self, small_undirected):
        engine = GrapeEngine(4, incremental=False)
        result = engine.run(CCProgram(), query=None,
                            graph=small_undirected)
        assert result.answer == cc_oracle(small_undirected)

    def test_isolated_nodes(self):
        g = Graph(directed=False)
        for v in range(5):
            g.add_node(v)
        result = GrapeEngine(2).run(CCProgram(), query=None, graph=g)
        assert result.answer == {v: {v} for v in range(5)}

    def test_long_chain_across_fragments(self):
        """A path forces multi-round cid propagation."""
        from repro.graph.builders import path_graph
        g = path_graph(40)
        result = GrapeEngine(8).run(CCProgram(), query=None, graph=g)
        assert result.answer == {0: set(range(40))}
        assert result.supersteps > 2  # needed several IncEval rounds


class TestSimOnGrape:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_oracle(self, small_labeled, path_pattern, n):
        truth = maximum_simulation(path_pattern, small_labeled)
        result = GrapeEngine(n).run(SimProgram(), query=path_pattern,
                                    graph=small_labeled)
        assert result.answer == truth

    def test_ni_mode_same_answer(self, small_labeled, path_pattern):
        truth = maximum_simulation(path_pattern, small_labeled)
        engine = GrapeEngine(4, incremental=False)
        result = engine.run(SimProgram(), query=path_pattern,
                            graph=small_labeled)
        assert result.answer == truth

    def test_no_match_empty(self, small_labeled):
        pattern = Graph(directed=True)
        pattern.add_node("u", "no-such-label")
        result = GrapeEngine(3).run(SimProgram(), query=pattern,
                                    graph=small_labeled)
        assert result.answer == {"u": set()}

    def test_monotonic_check(self, small_labeled, path_pattern):
        engine = GrapeEngine(4, check_monotonic=True)
        truth = maximum_simulation(path_pattern, small_labeled)
        result = engine.run(SimProgram(), query=path_pattern,
                            graph=small_labeled)
        assert result.answer == truth

    def test_cyclic_pattern(self, small_labeled):
        pattern = Graph(directed=True)
        pattern.add_node("a", "l0")
        pattern.add_node("b", "l1")
        pattern.add_edge("a", "b")
        pattern.add_edge("b", "a")
        truth = maximum_simulation(pattern, small_labeled)
        result = GrapeEngine(4).run(SimProgram(), query=pattern,
                                    graph=small_labeled)
        assert result.answer == truth


class TestSubIsoOnGrape:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_oracle(self, small_labeled, path_pattern, n):
        truth = {canonical_match(m)
                 for m in vf2_all_matches(path_pattern, small_labeled)}
        result = GrapeEngine(n).run(SubIsoProgram(), query=path_pattern,
                                    graph=small_labeled)
        assert {canonical_match(m) for m in result.answer} == truth

    def test_single_superstep(self, small_labeled, path_pattern):
        """SubIso terminates after PEval (paper: two supersteps, ours
        folds the shipping into superstep 1)."""
        result = GrapeEngine(4).run(SubIsoProgram(), query=path_pattern,
                                    graph=small_labeled)
        assert result.supersteps == 1

    def test_neighborhood_shipping_charged(self, small_labeled,
                                           path_pattern):
        result = GrapeEngine(4).run(SubIsoProgram(), query=path_pattern,
                                    graph=small_labeled)
        assert result.metrics.comm_bytes > 0

    def test_no_duplicates(self, small_labeled, path_pattern):
        result = GrapeEngine(4).run(SubIsoProgram(), query=path_pattern,
                                    graph=small_labeled)
        keys = [canonical_match(m) for m in result.answer]
        assert len(keys) == len(set(keys))


class TestCFOnGrape:
    def test_runs_epoch_budget(self):
        from repro.graph.generators import bipartite_ratings_graph
        g, _uf, _itf = bipartite_ratings_graph(30, 15, 250, seed=3)
        query = CFQuery(num_factors=4, max_epochs=5, seed=1)
        result = GrapeEngine(3).run(CFProgram(), query=query, graph=g)
        assert result.supersteps >= query.max_epochs
        assert len(result.answer) == 45  # every node got factors

    def test_learning_reduces_error(self):
        from repro.graph.generators import bipartite_ratings_graph
        from repro.sequential.cf import FactorModel, extract_ratings, rmse
        g, _uf, _itf = bipartite_ratings_graph(40, 20, 400, noise=0.05,
                                               seed=5)
        ratings = extract_ratings(g)
        baseline = FactorModel(6, seed=2)
        before = rmse(ratings, baseline)

        query = CFQuery(num_factors=6, max_epochs=12, learning_rate=0.05,
                        seed=2)
        result = GrapeEngine(3).run(CFProgram(), query=query, graph=g)
        trained = FactorModel(6, seed=2)
        trained.factors = dict(result.answer)
        assert rmse(ratings, trained) < before * 0.8

    def test_target_rmse_stops_early(self):
        from repro.graph.generators import bipartite_ratings_graph
        g, _uf, _itf = bipartite_ratings_graph(20, 10, 150, seed=7)
        query = CFQuery(num_factors=4, max_epochs=50, target_rmse=1e9,
                        seed=1)
        result = GrapeEngine(2).run(CFProgram(), query=query, graph=g)
        # Absurdly lax target: every fragment converges immediately.
        assert result.supersteps <= 3


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
    """Virtual fragments are only scheduled onto the physical workers:
    a superstep folds every fragment's report before composing, so how
    many workers share the fragments changes neither the fixpoint
    (*bitwise*) nor the supersteps and traffic it takes to reach it."""

    @pytest.mark.parametrize("partition", [HashPartition(),
                                           MetisLikePartition()],
                             ids=["hash", "metis"])
    @pytest.mark.parametrize("make_program,query", [
        (SSSPProgram, 0), (BFSProgram, 0), (CCProgram, None)],
        ids=["sssp", "bfs", "cc"])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=graphs(), workers=st.integers(min_value=1, max_value=3))
    def test_worker_count_never_changes_the_fixpoint(
            self, make_program, query, partition, graph, workers):
        if query is None and graph.directed:
            return  # CC is defined on undirected graphs
        fragmentation = partition.partition(graph, 4)
        one_each = GrapeEngine(4).run(
            make_program(), query, fragmentation=fragmentation)
        shared = GrapeEngine(workers, num_fragments=4).run(
            make_program(), query, fragmentation=fragmentation)
        assert shared.answer == one_each.answer
        assert (shared.supersteps, shared.metrics.comm_bytes,
                shared.metrics.comm_messages) == (
            one_each.supersteps, one_each.metrics.comm_bytes,
            one_each.metrics.comm_messages)
