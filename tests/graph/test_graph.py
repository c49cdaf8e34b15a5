"""Unit tests for the core Graph structure."""

import gc
import platform

import pytest

from repro.graph.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(1, label="a")
        g.add_node(1)
        assert g.num_nodes == 1
        assert g.node_label(1) == "a"

    def test_add_node_label_update(self):
        g = Graph()
        g.add_node(1, label="a")
        g.add_node(1, label="b")
        assert g.node_label(1) == "b"

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge("x", "y", weight=2.5)
        assert g.has_node("x") and g.has_node("y")
        assert g.has_edge("x", "y")
        assert g.edge_weight("x", "y") == 2.5

    def test_directed_edge_one_way(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_undirected_edge_both_ways(self):
        g = Graph(directed=False)
        g.add_edge(1, 2, weight=3.0)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.edge_weight(2, 1) == 3.0
        assert g.num_edges == 1

    def test_readd_edge_overwrites_weight(self):
        g = Graph()
        g.add_edge(1, 2, weight=1.0)
        g.add_edge(1, 2, weight=9.0)
        assert g.edge_weight(1, 2) == 9.0
        assert g.num_edges == 1

    def test_edge_labels(self):
        g = Graph()
        g.add_edge(1, 2, label="knows")
        assert g.edge_label(1, 2) == "knows"
        assert g.edge_label(2, 1) is None

    def test_undirected_edge_label_symmetric(self):
        g = Graph(directed=False)
        g.add_edge(1, 2, label="friend")
        assert g.edge_label(2, 1) == "friend"

    def test_set_node_label_missing_raises(self):
        g = Graph()
        with pytest.raises(KeyError):
            g.set_node_label(42, "x")

    def test_self_loop(self):
        g = Graph()
        g.add_edge(1, 1)
        assert g.has_edge(1, 1)
        assert g.num_edges == 1


class TestRemoval:
    def test_remove_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.has_node(1) and g.has_node(2)

    def test_remove_edge_missing_raises(self):
        g = Graph()
        g.add_node(1)
        g.add_node(2)
        with pytest.raises(KeyError):
            g.remove_edge(1, 2)

    def test_remove_undirected_edge(self):
        g = Graph(directed=False)
        g.add_edge(1, 2)
        g.remove_edge(2, 1)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 0

    def test_remove_node_removes_incident_edges(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 1)
        g.remove_node(2)
        assert not g.has_node(2)
        assert g.has_edge(3, 1)
        assert g.num_edges == 1

    def test_remove_node_with_self_loop(self):
        g = Graph()
        g.add_edge(1, 1)
        g.remove_node(1)
        assert g.num_nodes == 0

    @pytest.mark.parametrize("directed", [True, False])
    def test_num_edges_follows_every_mutation(self, directed):
        g = Graph(directed=directed)
        for u, v in [(1, 2), (2, 3), (3, 1), (3, 3), (2, 1)]:
            g.add_edge(u, v)
        g.add_edge(1, 2, weight=5.0)  # overwrite: not a new edge
        g.set_edge_weight(2, 3, 2.0)
        assert g.num_edges == len(list(g.edges())) == (5 if directed else 4)
        g.remove_edge(3, 3)
        g.remove_node(2)
        assert g.num_edges == len(list(g.edges())) == 1
        with pytest.raises(KeyError):
            g.remove_edge(1, 2)
        assert g.num_edges == 1


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="about CPython's generational collector")
def test_a_mutation_hands_the_young_collector_no_edge_sized_table():
    """A full collection stops tracking a dict whose keys and values it
    need not visit; one fresh tuple key puts the dict back — into the
    youngest generation, where every collection walks all of it (5 ms at
    130k stored edges, inside whichever update batch it lands in).  The
    adjacency rows, node -> float, never come back."""
    g = Graph(directed=False)
    for i in range(3000):
        g.add_edge(i, i + 1, weight=1.5)
    gc.collect()
    g.add_edge(0, 2000, weight=0.5)
    g.set_edge_weight(5, 6, 2.5)
    g.remove_edge(10, 11)
    young = [obj for generation in (0, 1)
             for obj in gc.get_objects(generation=generation)
             if type(obj) is dict]
    assert max(map(len, young), default=0) < 1000


class TestQueries:
    def test_degrees_directed(self, diamond):
        assert diamond.out_degree(0) == 3
        assert diamond.in_degree(3) == 3
        assert diamond.degree(0) == 3

    def test_degrees_undirected(self):
        g = Graph(directed=False)
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        assert g.degree(1) == 2
        assert g.out_degree(1) == 2  # symmetric storage

    def test_successors_predecessors(self, diamond):
        assert set(diamond.successors(0)) == {1, 2, 3}
        assert set(diamond.predecessors(3)) == {1, 2, 0}

    def test_neighbors_directed_union(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(3, 1)
        assert set(g.neighbors(1)) == {2, 3}

    def test_successors_with_weights(self, diamond):
        weights = dict(diamond.successors_with_weights(0))
        assert weights == {1: 1.0, 2: 4.0, 3: 10.0}

    def test_edges_iteration_directed(self, diamond):
        assert len(list(diamond.edges())) == 5

    def test_edges_iteration_undirected_once(self):
        g = Graph(directed=False)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        edges = list(g.edges())
        assert len(edges) == 2

    def test_contains_len_iter(self, diamond):
        assert 0 in diamond
        assert 99 not in diamond
        assert len(diamond) == 4
        assert set(iter(diamond)) == {0, 1, 2, 3}

    def test_repr(self, diamond):
        assert "nodes=4" in repr(diamond)


class TestDerivedGraphs:
    def test_copy_independent(self, diamond):
        dup = diamond.copy()
        assert dup == diamond
        dup.add_edge(3, 0)
        assert not diamond.has_edge(3, 0)

    def test_equality_considers_labels(self):
        a = Graph()
        a.add_node(1, "x")
        b = Graph()
        b.add_node(1, "y")
        assert a != b

    def test_equality_considers_direction(self):
        a = Graph(directed=True)
        b = Graph(directed=False)
        assert a != b

    def test_equality_considers_weights(self):
        a = Graph()
        a.add_edge(1, 2, weight=1.0)
        b = Graph()
        b.add_edge(1, 2, weight=2.0)
        assert a != b

    def test_equality_considers_edge_labels_in_both_orders(self):
        """Regression: only ``self``'s label table was compared, so a
        label on the right-hand graph alone went unnoticed — and two
        graphs that compared equal hashed apart."""
        a = Graph()
        a.add_edge(1, 2)
        b = Graph()
        b.add_edge(1, 2, label="x")
        assert a != b
        assert b != a
        b._edge_labels[(1, 2)] = None  # an explicit None is no label
        assert a == b and b == a
        assert a.content_hash() == b.content_hash()


class TestContentHash:
    """Order-independent integrity hash (store snapshot verification)."""

    def test_insertion_order_does_not_matter(self):
        a = Graph()
        a.add_edge(1, 2, weight=1.0)
        a.add_edge(2, 3, weight=2.0)
        a.add_node(9, "lbl")
        b = Graph()
        b.add_node(9, "lbl")
        b.add_edge(2, 3, weight=2.0)
        b.add_edge(1, 2, weight=1.0)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_undirected_insertion_order(self):
        a = Graph(directed=False)
        a.add_edge("x", "y", weight=1.5)
        a.add_edge("y", "z", weight=2.5)
        b = Graph(directed=False)
        b.add_edge("z", "y", weight=2.5)
        b.add_edge("y", "x", weight=1.5)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_weight_changes_hash(self):
        a = Graph()
        a.add_edge(1, 2, weight=1.0)
        b = Graph()
        b.add_edge(1, 2, weight=2.0)
        assert a.content_hash() != b.content_hash()

    def test_labels_change_hash(self):
        a = Graph()
        a.add_node(1, "x")
        b = Graph()
        b.add_node(1, "y")
        assert a.content_hash() != b.content_hash()

    def test_edge_label_changes_hash(self):
        a = Graph()
        a.add_edge(1, 2, label="r")
        b = Graph()
        b.add_edge(1, 2)
        assert a.content_hash() != b.content_hash()

    def test_directedness_changes_hash(self):
        a = Graph(directed=True)
        a.add_node(1)
        b = Graph(directed=False)
        b.add_node(1)
        assert a.content_hash() != b.content_hash()

    def test_stable_across_mutation_round_trip(self):
        g = Graph()
        g.add_edge(1, 2, weight=1.0)
        before = g.content_hash()
        g.add_edge(2, 3, weight=5.0)
        assert g.content_hash() != before
        g.remove_node(3)  # drops the edge and the node it created
        assert g.content_hash() == before

    def test_stable_across_processes_seeded(self):
        """The hash must not depend on PYTHONHASHSEED (it keys snapshot
        integrity across processes) — string ids exercise that."""
        import subprocess, sys, os
        code = ("import sys; sys.path.insert(0, 'src');"
                "from repro.graph.graph import Graph;"
                "g = Graph(); g.add_edge('a', 'b', weight=2.0);"
                "print(g.content_hash())")
        outs = set()
        for seed in ("0", "1", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            outs.add(subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=".",
                capture_output=True, text=True, check=True).stdout.strip())
        assert len(outs) == 1
