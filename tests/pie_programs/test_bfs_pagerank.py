"""Tests for the library-extension PIE programs: BFS and PageRank."""

from collections import deque

import networkx as nx
import pytest

from repro.core.engine import GrapeEngine
from repro.graph.generators import (grid_road_graph,
                                    preferential_attachment,
                                    uniform_random_graph)
from repro.graph.graph import Graph
from repro.pie_programs import (BFSProgram, PageRankProgram, PageRankQuery)


def bfs_oracle(g, source):
    hops = {v: -1 for v in g.nodes()}
    if g.has_node(source):
        hops[source] = 0
        dq = deque([source])
        while dq:
            v = dq.popleft()
            for w in g.successors(v):
                if hops[w] == -1:
                    hops[w] = hops[v] + 1
                    dq.append(w)
    return hops


def pagerank_reference(g, query, iterations):
    """Sequential power iteration with the same (no dangling
    redistribution) convention as the PIE program."""
    n = g.num_nodes
    rank = {v: 1.0 / n for v in g.nodes()}
    teleport = (1.0 - query.damping) / n
    for _ in range(iterations):
        incoming = {v: 0.0 for v in g.nodes()}
        for v in g.nodes():
            deg = g.out_degree(v)
            if deg == 0:
                continue
            share = rank[v] / deg
            for w in g.successors(v):
                incoming[w] += share
        rank = {v: teleport + query.damping * incoming[v]
                for v in g.nodes()}
    return rank


class TestBFS:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_oracle(self, small_road, n):
        truth = bfs_oracle(small_road, 0)
        result = GrapeEngine(n).run(BFSProgram(), query=0,
                                    graph=small_road)
        assert result.answer == truth

    def test_unreachable_minus_one(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        g.add_node(5)
        result = GrapeEngine(2).run(BFSProgram(), query=0, graph=g)
        assert result.answer[5] == -1

    def test_more_fragments_than_workers(self, small_road):
        result = GrapeEngine(2, num_fragments=6).run(
            BFSProgram(), query=0, graph=small_road)
        assert result.answer == bfs_oracle(small_road, 0)

    def test_ni_mode(self, small_road):
        truth = bfs_oracle(small_road, 0)
        engine = GrapeEngine(3, incremental=False)
        result = engine.run(BFSProgram(), query=0, graph=small_road)
        assert result.answer == truth

    def test_monotonic_check(self, small_road):
        engine = GrapeEngine(4, check_monotonic=True)
        result = engine.run(BFSProgram(), query=0, graph=small_road)
        assert result.answer == bfs_oracle(small_road, 0)

    def test_random_graph(self):
        g = uniform_random_graph(80, 250, seed=5)
        result = GrapeEngine(4).run(BFSProgram(), query=0, graph=g)
        assert result.answer == bfs_oracle(g, 0)


class TestPageRank:
    @pytest.fixture(scope="class")
    def social(self):
        return preferential_attachment(120, edges_per_node=3, seed=5)

    def test_converges_to_reference_fixpoint(self, social):
        query = PageRankQuery(max_iterations=60)
        result = GrapeEngine(4).run(PageRankProgram(), query, graph=social)
        reference = pagerank_reference(social, query, 60)
        for v in social.nodes():
            assert result.answer[v] == pytest.approx(reference[v],
                                                     abs=2e-3)

    def test_ranking_matches_networkx(self, social):
        nxg = nx.DiGraph()
        nxg.add_nodes_from(social.nodes())
        nxg.add_edges_from((u, v) for u, v, _w in social.edges())
        truth = nx.pagerank(nxg, alpha=0.85)
        query = PageRankQuery(max_iterations=40)
        result = GrapeEngine(4).run(PageRankProgram(), query, graph=social)
        top_mine = sorted(result.answer, key=result.answer.get,
                          reverse=True)[:5]
        top_truth = sorted(truth, key=truth.get, reverse=True)[:5]
        assert top_mine == top_truth

    def test_iteration_budget_respected(self, social):
        query = PageRankQuery(max_iterations=5)
        result = GrapeEngine(3).run(PageRankProgram(), query, graph=social)
        assert result.supersteps <= 5 + 3

    def test_tolerance_stops_early(self, social):
        lax = PageRankQuery(max_iterations=500, tolerance=1e9)
        result = GrapeEngine(3).run(PageRankProgram(), lax, graph=social)
        assert result.supersteps <= 4

    def test_single_worker_equals_sequential(self, social):
        query = PageRankQuery(max_iterations=20)
        result = GrapeEngine(1).run(PageRankProgram(), query, graph=social)
        reference = pagerank_reference(social, query, 20)
        for v in social.nodes():
            assert result.answer[v] == pytest.approx(reference[v])

    def test_every_node_ranked_positive(self, social):
        query = PageRankQuery(max_iterations=10)
        result = GrapeEngine(4).run(PageRankProgram(), query, graph=social)
        assert set(result.answer) == set(social.nodes())
        assert all(rank > 0 for rank in result.answer.values())
