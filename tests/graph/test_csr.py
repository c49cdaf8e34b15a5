"""Tests for the CSR snapshot."""

import gc
import tracemalloc

import numpy as np
import pytest

from differential.harness import ids_after
from repro.graph.csr import CSRGraph, int_array
from repro.graph.generators import uniform_random_graph
from repro.graph.graph import Graph


def splice(g, base, dirty):
    """``g``'s snapshot spliced over ``base``, under the id table a
    fragment would hold (ids stay, tombstones, appended new nodes)."""
    return CSRGraph.from_graph(g, ids=ids_after(base, g), base=base,
                               dirty=dirty)


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
        yield "weight splice", splice(g, built, {u, v})
        g.add_edge(u, "fresh", weight=0.5)
        yield "appending splice", splice(g, built, {u, v, "fresh"})
        arrays = {name: arr.copy()
                  for name, arr in built.to_arrays().items()}
        yield "from_arrays", CSRGraph.from_arrays(
            directed=built.directed, node_of=built.node_of, **arrays)
        buf = bytearray(built.shared_nbytes())
        yield "from_shared", CSRGraph.from_shared(
            buf, built.to_shared(buf), directed=built.directed,
            node_of=built.node_of, labels=built.labels)

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


class TestSpliceKeepsIds:
    def spliced(self):
        g = Graph()
        for u, v in ((10, 20), (20, 30), (30, 40), (40, 10)):
            g.add_edge(u, v, weight=1.0)
        base = g.to_csr()
        assert base.int_labels.tolist() == [10, 20, 30, 40]
        g.remove_node(20)              # gone: a tombstone
        g.remove_node(30)
        g.add_edge(30, 40, weight=2.0)  # back: its old id
        g.add_edge(5, 10, weight=3.0)   # appended
        return g, base, {10, 20, 30, 40, 5}

    def test_ids_stay_and_the_label_index_is_extended(self):
        g, base, dirty = self.spliced()
        snap = splice(g, base, dirty)
        assert snap.node_of == [10, 20, 30, 40, 5]
        assert snap.dead.tolist() == [1]
        assert snap.id_of == {10: 0, 30: 2, 40: 3, 5: 4}
        assert np.diff(snap.indptr).tolist() == [0, 0, 1, 1, 1]
        assert snap._label_index is not None  # extended, not re-learned
        want = np.array([10, 20, 30, 40, 5])
        order = np.argsort(want, kind="stable")
        for got, exp in zip(snap._label_index, (want, want[order], order)):
            assert got.dtype == np.int64 and got.tolist() == exp.tolist()
        assert snap.ids_of(np.array([5, 30])).tolist() == [4, 2]

    def test_a_label_index_nobody_asked_for_is_not_derived(self):
        g = Graph()
        g.add_edge(1, 2, weight=1.0)
        base = g.to_csr()
        g.add_edge(2, 3, weight=1.0)
        snap = splice(g, base, {2, 3})
        assert snap._label_index is None
        assert snap.int_labels.tolist() == [1, 2, 3]

    def test_an_appended_label_that_is_no_array_value(self):
        g, base, dirty = self.spliced()
        g.add_edge("s", 10, weight=1.0)
        snap = splice(g, base, dirty | {"s"})
        assert snap.int_labels is None and g.to_csr().int_labels is None

    def test_dirty_must_name_every_node_that_left(self):
        g, base, dirty = self.spliced()
        with pytest.raises(ValueError, match="dirty does not name"):
            splice(g, base, dirty - {20})

    def test_a_splice_needs_the_id_table(self):
        g, base, dirty = self.spliced()
        with pytest.raises(ValueError, match="needs the id table"):
            CSRGraph.from_graph(g, base=base, dirty=dirty)

    def test_a_dirty_node_of_the_graph_must_be_in_the_table(self):
        """A node that joined the graph behind the table's back (a
        mutation no ``Fragment.absorb`` saw) is refused, not dropped."""
        g, base, dirty = self.spliced()
        node_of, id_of, dead = ids_after(base, g)
        node_of.remove(5)
        del id_of[5]
        with pytest.raises(ValueError, match="not in the id table"):
            CSRGraph.from_graph(g, ids=(node_of, id_of, dead), base=base,
                                dirty=dirty)


class TestToGraphFill:
    """The deferred fill of a snapshot's dict graph stores what an
    edge-by-edge build stores: one weight object per undirected edge,
    shared by both orientations and ``_pred``; tombstones are no nodes."""

    @staticmethod
    def traced(build) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            kept = build()  # noqa: F841 -- measured while alive
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_an_undirected_fill_shares_one_weight_per_edge(self):
        snap = uniform_random_graph(300, 900, directed=False, seed=5).to_csr()
        filled = snap.to_graph()
        for u, row in filled._succ.items():
            for v, w in row.items():
                assert filled._succ[v][u] is w and filled._pred[v][u] is w

        def fill():
            g = snap.to_graph()
            g._succ  # noqa: B018 -- the fill
            return g

        def edge_by_edge():
            g = Graph(directed=False)
            ws, cols = snap.weights.tolist(), snap.indices.tolist()
            ptr = snap.indptr.tolist()
            for v in snap.node_of:
                g.add_node(v)
            for i, u in enumerate(snap.node_of):
                for k in range(ptr[i], ptr[i + 1]):
                    if cols[k] >= i:  # each edge once, from one end
                        g.add_edge(u, snap.node_of[cols[k]], weight=ws[k])
            return g

        # a float per stored entry instead would be ~8 % more
        assert self.traced(fill) <= 1.02 * self.traced(edge_by_edge)

    def test_tombstones_are_left_out(self):
        g = Graph(directed=False)
        g.add_edge(1, 2, weight=1.0)
        g.add_edge(2, 3, weight=2.0)
        base = g.to_csr()
        g.remove_node(3)
        snap = splice(g, base, {2, 3})
        assert snap.dead.tolist() == [2]
        assert snap.to_graph() == g
        assert list(snap.to_graph().nodes()) == [1, 2]


class TestFoundInSorted:
    def test_equals_isin(self):
        from repro.graph.csr import found_in_sorted
        rng = np.random.default_rng(4)
        for size in (0, 1, 50, 3000):
            table = np.unique(rng.integers(-500, 10_000, size))
            for ids in (rng.integers(-600, 10_100, 40), table[::7],
                        np.empty(0, dtype=np.int64)):
                assert np.array_equal(found_in_sorted(table, ids),
                                      np.isin(table, ids))
