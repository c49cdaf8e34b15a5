"""Tests for fragments, fragmentation and the fragmentation graph G_P."""

import pytest

from repro.graph.builders import from_weighted_edges, path_graph
from repro.graph.generators import uniform_random_graph
from repro.graph.graph import Graph
from repro.partition.base import (build_edge_cut_fragments,
                                  build_vertex_cut_fragments, cut_edges,
                                  replication_factor)


@pytest.fixture
def chain():
    """Directed path 0 -> 1 -> 2 -> 3 split into two fragments."""
    g = path_graph(4, directed=True)
    frag = build_edge_cut_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    return g, frag


class TestEdgeCutFragments:
    def test_owned_cover(self, chain):
        g, frag = chain
        owned = set()
        for f in frag:
            owned |= f.owned
        assert owned == set(g.nodes())

    def test_border_sets(self, chain):
        _g, frag = chain
        f0, f1 = frag[0], frag[1]
        # Edge 1 -> 2 crosses: 2 is F0.O (copy at 0) and F1.I (owned at 1).
        assert f0.outer == {2}
        assert f0.inner == set()
        assert f1.inner == {2}
        assert f1.outer == set()

    def test_copy_has_edge(self, chain):
        _g, frag = chain
        assert frag[0].graph.has_edge(1, 2)  # cut edge stored at owner of 1

    def test_border_nodes_union(self, chain):
        _g, frag = chain
        assert frag[0].border_nodes == {2}

    def test_validate_passes(self, chain):
        _g, frag = chain
        frag.validate()

    def test_fragment_of(self, chain):
        _g, frag = chain
        assert frag.fragment_of(1).fid == 0
        assert frag.fragment_of(2).fid == 1

    def test_missing_assignment_raises(self):
        g = path_graph(3, directed=True)
        with pytest.raises(ValueError):
            build_edge_cut_fragments(g, {0: 0, 1: 0}, 2)

    def test_out_of_range_fid_raises(self):
        g = path_graph(2, directed=True)
        with pytest.raises(ValueError):
            build_edge_cut_fragments(g, {0: 0, 1: 5}, 2)

    def test_undirected_cross_edge_present_in_both(self):
        g = path_graph(3, directed=False)
        frag = build_edge_cut_fragments(g, {0: 0, 1: 0, 2: 1}, 2)
        assert frag[0].graph.has_edge(1, 2)
        assert frag[1].graph.has_edge(2, 1)
        assert 2 in frag[0].outer
        assert 1 in frag[1].outer

    def test_single_fragment_no_borders(self):
        g = uniform_random_graph(20, 40, seed=1)
        frag = build_edge_cut_fragments(g, {v: 0 for v in g.nodes()}, 1)
        assert frag[0].inner == set() and frag[0].outer == set()
        frag.validate()

    def test_fragment_repr(self, chain):
        assert "Fragment(fid=0" in repr(chain[1][0])


class TestFragmentationGraph:
    def test_owner(self, chain):
        _g, frag = chain
        assert frag.gp.owner(2) == 1

    def test_holders(self, chain):
        _g, frag = chain
        assert frag.gp.holders(2) == frozenset({0, 1})
        assert frag.gp.holders(0) == frozenset({0})

    def test_holder_sets_are_shared(self):
        """One frozenset per distinct holder set, not one per node: a
        warm restart rebuilds ``G_P``, and a tracked object per node
        would set off the cyclic collector's full passes."""
        g = uniform_random_graph(300, 900, seed=1)
        frag = build_edge_cut_fragments(g, {v: v % 4 for v in g.nodes()}, 4)
        sets = list(frag.gp._holders.values())
        assert len(sets) == 300
        assert len({id(fs) for fs in sets}) == len(set(sets)) <= 2 ** 4
        for f in frag:
            for v in g.nodes():
                assert (f.fid in frag.gp.holders(v)) == f.graph.has_node(v)

    def test_pairs(self, chain):
        _g, frag = chain
        assert frag.gp.pairs(2) == [(0, 1)]

    def test_destinations(self, chain):
        _g, frag = chain
        assert frag.gp.destinations(2, from_fragment=0) == frozenset({1})
        assert frag.gp.destinations(2, from_fragment=1) == frozenset({0})

    def test_border_nodes_iter(self, chain):
        _g, frag = chain
        assert set(frag.gp.border_nodes()) == {2}

    def test_contains(self, chain):
        _g, frag = chain
        assert 2 in frag.gp
        assert "nope" not in frag.gp


class TestVertexCut:
    def test_basic_replication(self):
        g = from_weighted_edges([(0, 1, 1.0), (1, 2, 1.0)])
        frag = build_vertex_cut_fragments(g, {(0, 1): 0, (1, 2): 1}, 2)
        # Node 1 is replicated in both fragments.
        assert frag[0].graph.has_node(1) and frag[1].graph.has_node(1)
        assert frag.gp.holders(1) == frozenset({0, 1})
        frag.validate()

    def test_master_is_min_fid(self):
        g = from_weighted_edges([(0, 1, 1.0), (1, 2, 1.0)])
        frag = build_vertex_cut_fragments(g, {(0, 1): 1, (1, 2): 0}, 2)
        assert frag.gp.owner(1) == 0

    def test_isolated_nodes_go_to_fragment_zero(self):
        g = Graph(directed=True)
        g.add_node("solo")
        g.add_edge(1, 2)
        frag = build_vertex_cut_fragments(g, {(1, 2): 1}, 2)
        assert frag.gp.owner("solo") == 0

    def test_replication_factor(self):
        g = from_weighted_edges([(0, 1, 1.0), (1, 2, 1.0)])
        frag = build_vertex_cut_fragments(g, {(0, 1): 0, (1, 2): 1}, 2)
        assert replication_factor(frag) == pytest.approx(4 / 3)


class TestCutEdges:
    def test_counts_cross_edges(self):
        g = path_graph(4, directed=True)
        assert cut_edges(g, {0: 0, 1: 0, 2: 1, 3: 1}) == 1
        assert cut_edges(g, {0: 0, 1: 1, 2: 0, 3: 1}) == 3
        assert cut_edges(g, {v: 0 for v in g.nodes()}) == 0
