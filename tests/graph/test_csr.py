"""Tests for the CSR snapshot."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import uniform_random_graph
from repro.graph.graph import Graph


class TestCSRBasics:
    def test_from_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert csr.n == 0
        assert csr.num_directed_edges == 0

    def test_counts(self, diamond):
        csr = diamond.to_csr()
        assert csr.n == 4
        assert csr.num_directed_edges == 5

    def test_out_neighbors_match(self, diamond):
        csr = diamond.to_csr()
        vid = csr.id_of[0]
        nbrs = {csr.node_of[int(i)] for i in csr.out_neighbors(vid)}
        assert nbrs == set(diamond.successors(0))

    def test_degrees(self, diamond):
        csr = diamond.to_csr()
        for v in diamond.nodes():
            vid = csr.id_of[v]
            assert csr.out_degree(vid) == diamond.out_degree(v)

    def test_weights_preserved(self, diamond):
        csr = diamond.to_csr()
        vid = csr.id_of[0]
        pairs = {csr.node_of[int(i)]: w
                 for i, w in zip(csr.out_neighbors(vid),
                                 csr.out_weights(vid))}
        assert pairs == dict(diamond.successors_with_weights(0))

    def test_labels_carried(self):
        g = Graph()
        g.add_node("a", label="L")
        csr = g.to_csr()
        assert csr.labels[csr.id_of["a"]] == "L"

    def test_repr(self, diamond):
        assert "CSRGraph" in repr(diamond.to_csr())


class TestFromEdges:
    def test_directed_matches_graph_replay(self):
        edges = list(uniform_random_graph(50, 180, seed=8).edges())
        g = Graph(directed=True)
        for u, v, w in edges:
            g.add_edge(u, v, weight=w)
        a = CSRGraph.from_graph(g)
        b = CSRGraph.from_edges(edges, directed=True)
        assert a.node_of == b.node_of
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    def test_undirected_with_self_loop(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 2, 3.0)]
        g = Graph(directed=False)
        for u, v, w in edges:
            g.add_edge(u, v, weight=w)
        a = CSRGraph.from_graph(g)
        b = CSRGraph.from_edges(edges, directed=False)
        assert a.node_of == b.node_of
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    def test_explicit_nodes_and_labels(self):
        csr = CSRGraph.from_edges([("b", "a", 1.0)],
                                  nodes=["a", "b", "isolated"],
                                  labels={"a": "L", "isolated": "I"})
        assert csr.node_of == ["a", "b", "isolated"]
        assert csr.out_degree(csr.id_of["isolated"]) == 0
        assert csr.labels[csr.id_of["a"]] == "L"
        assert csr.labels[csr.id_of["b"]] is None

    def test_first_seen_id_order(self):
        csr = CSRGraph.from_edges([(7, 3, 1.0), (3, 9, 1.0)])
        assert csr.node_of == [7, 3, 9]


class TestRoundTrip:
    def test_directed_round_trip(self):
        g = uniform_random_graph(40, 120, seed=2)
        back = g.to_csr().to_graph()
        assert set(back.nodes()) == set(g.nodes())
        for u, v, w in g.edges():
            assert back.has_edge(u, v)
            assert back.edge_weight(u, v) == pytest.approx(w)

    def test_undirected_round_trip_edges(self):
        g = uniform_random_graph(30, 50, directed=False, seed=4)
        back = g.to_csr().to_graph()
        assert back.num_edges == g.num_edges
        for u, v, _w in g.edges():
            assert back.has_edge(u, v) and back.has_edge(v, u)

    def test_csr_arrays_consistent(self):
        g = uniform_random_graph(25, 60, seed=6)
        csr = g.to_csr()
        assert csr.indptr[-1] == csr.num_directed_edges
        # Every edge appears exactly once.
        fwd = sorted((int(csr.indptr[v]), int(i))
                     for v in range(csr.n)
                     for i in csr.out_neighbors(v))
        assert len(fwd) == csr.num_directed_edges


class TestArraySerialization:
    """to_arrays/from_arrays: the durable store's snapshot payload."""

    def test_round_trip(self):
        from repro.graph.generators import uniform_random_graph
        g = uniform_random_graph(40, 120, seed=6)
        csr = CSRGraph.from_graph(g)
        arrays = csr.to_arrays()
        assert set(arrays) == {"indptr", "indices", "weights"}
        back = CSRGraph.from_arrays(directed=csr.directed,
                                    node_of=csr.node_of,
                                    labels=csr.labels, **arrays)
        assert back.n == csr.n
        assert (back.indptr == csr.indptr).all()
        assert (back.indices == csr.indices).all()
        assert (back.weights == csr.weights).all()
        assert back.id_of == csr.id_of
        assert back.to_graph() == csr.to_graph()

    def test_undirected_round_trip(self):
        from repro.graph.generators import uniform_random_graph
        g = uniform_random_graph(30, 50, directed=False, seed=2)
        csr = CSRGraph.from_graph(g)
        back = CSRGraph.from_arrays(directed=False, node_of=csr.node_of,
                                    labels=csr.labels, **csr.to_arrays())
        assert back.to_graph() == g

    def test_indptr_length_validated(self):
        import numpy as np
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph.from_arrays(directed=True,
                                 indptr=np.array([0, 1]),
                                 indices=np.array([0]),
                                 weights=np.array([1.0]),
                                 node_of=[1, 2, 3])


class TestReadOnly:
    """A snapshot is never written after construction: its arrays refuse
    writes whichever way it was made."""

    def snapshots(self):
        g = uniform_random_graph(20, 60, seed=3)
        built = CSRGraph.from_graph(g)
        yield "from_graph", built
        u, v, w = next(iter(g.edges()))
        g.set_edge_weight(u, v, w + 1.0)
        yield "weight splice", CSRGraph.from_graph(g, base=built,
                                                   dirty={u, v})
        g.add_edge(u, "fresh", weight=0.5)
        yield "remapping splice", CSRGraph.from_graph(g, base=built,
                                                      dirty={u, v, "fresh"})
        yield "from_edges", CSRGraph.from_edges(list(g.edges()))
        arrays = {name: arr.copy()
                  for name, arr in built.to_arrays().items()}
        yield "from_arrays", CSRGraph.from_arrays(
            directed=built.directed, node_of=built.node_of, **arrays)
        buf = bytearray(built.shared_nbytes())
        yield "from_shared", CSRGraph.from_shared(
            buf, built.to_shared(buf), n=built.n, directed=built.directed,
            id_of=built.id_of, node_of=built.node_of, labels=built.labels)

    def test_every_construction_path_is_read_only(self):
        for path, snap in self.snapshots():
            for name in ("indptr", "indices", "weights"):
                arr = getattr(snap, name)
                assert not arr.flags.writeable, (path, name)
                with pytest.raises(ValueError, match="read-only"):
                    arr[:1] = 0
