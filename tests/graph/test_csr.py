"""Tests for the CSR snapshot."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph, int_array
from repro.graph.generators import uniform_random_graph
from repro.graph.graph import Graph


def row(csr, vid):
    """Row ``vid`` of the snapshot read off its arrays: ``(neighbour
    ids, weights)``."""
    lo, hi = csr.indptr[vid], csr.indptr[vid + 1]
    return csr.indices[lo:hi], csr.weights[lo:hi]


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
        nbrs = {csr.node_of[int(i)] for i in row(csr, vid)[0]}
        assert nbrs == set(diamond.successors(0))

    def test_degrees(self, diamond):
        csr = diamond.to_csr()
        for v in diamond.nodes():
            vid = csr.id_of[v]
            assert len(row(csr, vid)[0]) == diamond.out_degree(v)

    def test_weights_preserved(self, diamond):
        csr = diamond.to_csr()
        vid = csr.id_of[0]
        pairs = {csr.node_of[int(i)]: w for i, w in zip(*row(csr, vid))}
        assert pairs == dict(diamond.successors_with_weights(0))

    def test_labels_carried(self):
        g = Graph()
        g.add_node("a", label="L")
        csr = g.to_csr()
        assert csr.labels[csr.id_of["a"]] == "L"

    def test_repr(self, diamond):
        assert "CSRGraph" in repr(diamond.to_csr())


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
                     for i in row(csr, v)[0])
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


class TestIntLabels:
    """One scan decides whether labels are array values (the snapshot's
    label index, the border index and its patches all ask it)."""

    def test_plain_ints_only(self):
        assert int_array([3, 1, 2]).tolist() == [3, 1, 2]
        assert int_array([3, 1, 2]).dtype == np.int64
        assert int_array([]).shape == (0,)
        for labels in ([1, "a"], [1, 2.0], [1, None], [1, 2 ** 63],
                       [0, True], [np.int64(1)]):
            assert int_array(labels) is None, labels

    def test_bool_labels_stay_off_the_array_plane(self):
        g = Graph()
        g.add_edge(0, 2, weight=1.0)
        assert g.to_csr().int_labels.tolist() == [0, 2]
        g.add_edge(True, 2, weight=1.0)  # a bool is not a plain int
        assert g.to_csr().int_labels is None
        with pytest.raises(TypeError, match="plain ints"):
            g.to_csr().ids_of(np.array([2]))


class TestSpliceHandsOverWhatItLearned:
    def spliced(self):
        g = Graph()
        for u, v in ((10, 20), (20, 30), (30, 40), (40, 10)):
            g.add_edge(u, v, weight=1.0)
        base = g.to_csr()
        assert base.int_labels.tolist() == [10, 20, 30, 40]
        g.remove_node(20)              # gone
        g.remove_node(30)
        g.add_edge(30, 40, weight=2.0)  # moved to the end
        g.add_edge(5, 10, weight=3.0)   # appended
        return g, base, {10, 20, 30, 40, 5}

    def test_remap_appended_and_the_carried_label_index(self):
        g, base, dirty = self.spliced()
        snap = CSRGraph.from_graph(g, base=base, dirty=dirty)
        assert snap.node_of == [10, 40, 30, 5]
        assert snap.remap.tolist() == [0, -1, 2, 1]
        assert snap.appended.tolist() == [3]
        fresh = g.to_csr()
        assert (fresh.remap, fresh.appended) == (None, None)
        assert snap._label_index is not None  # carried, not re-learned
        fresh.int_labels
        for got, want in zip(snap._label_index, fresh._label_index):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert snap.ids_of(np.array([5, 30])).tolist() == [3, 2]

    def test_a_label_index_nobody_asked_for_is_not_derived(self):
        g = Graph()
        g.add_edge(1, 2, weight=1.0)
        base = g.to_csr()
        g.add_edge(2, 3, weight=1.0)
        snap = CSRGraph.from_graph(g, base=base, dirty={2, 3})
        assert snap._label_index is None
        assert snap.int_labels.tolist() == [1, 2, 3]

    def test_an_appended_label_that_is_no_array_value(self):
        g, base, dirty = self.spliced()
        g.add_edge("s", 10, weight=1.0)
        snap = CSRGraph.from_graph(g, base=base, dirty=dirty | {"s"})
        assert snap.int_labels is None and g.to_csr().int_labels is None

    def test_dirty_must_name_every_node_that_came_or_went(self):
        g, base, dirty = self.spliced()
        with pytest.raises(ValueError, match="dirty does not name"):
            CSRGraph.from_graph(g, base=base, dirty=dirty - {5})
