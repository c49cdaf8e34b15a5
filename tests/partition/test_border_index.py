"""The dense border index: brought current lazily per version (spliced
from the previous index where the delta log allows), equal to a fresh
build after any update batch."""

import pickle

import numpy as np
import pytest

from repro.core.updates import apply_delta
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.graph.graph import Graph
from repro.partition.base import (BorderIndex, Fragmentation,
                                  build_edge_cut_fragments)
from repro.partition.strategies import HashPartition
from repro.service import GrapeService


def _fragmentation(seed=4, n=60, m=150, directed=True, parts=3):
    return HashPartition().partition(
        uniform_random_graph(n, m, directed=directed, seed=seed), parts)


def _rebuilt_from_scratch(fragmentation):
    """The index of a fresh partition of the (mutated) graph under the
    ownership the live fragmentation ended up with."""
    graph = fragmentation.graph
    assignment = {v: fragmentation.gp.owner(v) for v in graph.nodes()}
    return BorderIndex.build(build_edge_cut_fragments(
        graph, assignment, fragmentation.num_fragments))


class TestBuild:
    def test_rows_agree_with_gp_and_border_sets(self):
        frag = _fragmentation()
        index = frag.border_index()
        border = set()
        for f in frag:
            border |= f.inner | f.outer
        assert index.nodes.tolist() == sorted(border)
        assert index.nodes.dtype == np.int64
        assert index.owner.dtype == np.int32
        for b, v in enumerate(index.nodes.tolist()):
            assert index.owner[b] == frag.gp.owner(v)
            held = index.holder_fid[index.holder_ptr[b]:
                                    index.holder_ptr[b + 1]]
            assert held.tolist() == sorted(frag.gp.holders(v))

    def test_ids_of_is_the_inverse_of_nodes(self):
        index = _fragmentation().border_index()
        picks = index.nodes[::3][::-1]
        assert np.array_equal(index.nodes[index.ids_of(picks)], picks)
        assert index.ids_of(np.empty(0, dtype=np.int64)).size == 0

    def test_unknown_label_raises(self):
        index = _fragmentation().border_index()
        for stranger in (-1, int(index.nodes.max()) + 1):
            with pytest.raises(KeyError):
                index.ids_of(np.array([stranger], dtype=np.int64))

    def test_non_integer_labels_have_no_index(self):
        g = Graph(directed=True)
        for u, v in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]:
            g.add_edge(u, v, weight=1.0)
        assert HashPartition().partition(g, 2).border_index() is None
        mixed = uniform_random_graph(20, 40, seed=2)
        mixed.add_edge(0, "x", weight=1.0)
        assert HashPartition().partition(mixed, 2).border_index() is None


class TestLifecycle:
    def test_cached_per_version(self):
        frag = _fragmentation()
        assert frag.border_index() is frag.border_index()
        first = frag.border_index()
        frag.bump_version()
        assert frag.border_index() is not first
        assert frag.border_index() == first  # nothing actually changed

    def test_apply_delta_does_not_build_it(self, monkeypatch):
        frag = _fragmentation()
        frag.border_index()
        builds = []
        real = BorderIndex.build.__func__
        monkeypatch.setattr(
            BorderIndex, "build",
            classmethod(lambda cls, f: builds.append(1) or real(cls, f)))
        apply_delta(frag, GraphDelta().insert(0, 59, 1.0))
        assert builds == [] and frag.border_index_patches == 0
        frag.border_index()
        frag.border_index()
        # ... and the first use afterwards splices the cached index
        assert builds == [] and frag.border_index_patches == 1
        assert frag.border_index() == real(BorderIndex, frag)
        # a version the delta log does not cover cannot be spliced
        frag.bump_version()
        frag.border_index()
        assert builds == [1] and frag.border_index_patches == 1

    def test_service_update_does_not_build_it(self, monkeypatch):
        g = uniform_random_graph(60, 150, seed=4)
        builds = []
        real = BorderIndex.build.__func__
        monkeypatch.setattr(
            BorderIndex, "build",
            classmethod(lambda cls, f: builds.append(1) or real(cls, f)))
        with GrapeService(grouping=False) as service:
            service.load_graph("g", g)
            service.play("sssp", 0, graph="g")
            assert builds == [1]
            # a maintained standing query keeps the dict plane busy
            # inside update(); nothing there needs the index
            service.watch("cc", None, graph="g")
            before = len(builds)
            service.update("g", GraphDelta().insert(1, 58, 0.5))
            assert len(builds) == before
            assert service.fragmentation("g").border_index_patches == 0
            service.play("sssp", 0, graph="g")
            assert len(builds) == before
            assert service.fragmentation("g").border_index_patches == 1

    @pytest.mark.parametrize("directed", [True, False])
    def test_equal_to_a_fresh_build_after_border_churn(self, directed):
        frag = _fragmentation(seed=9, n=80, m=70, directed=directed)
        graph = frag.graph
        gp = frag.gp
        frag.border_index()

        # a border node is added: an edge between two interior nodes of
        # different fragments
        interior = [v for v in sorted(graph.nodes())
                    if len(gp.holders(v)) == 1]
        u = interior[0]
        v = next(x for x in interior if gp.owner(x) != gp.owner(u))
        w = next(x for x in interior if x not in (u, v))
        apply_delta(frag, GraphDelta().insert(u, v, 2.0)
                    .insert(w, 1000, 1.0))  # and a brand-new node
        index = frag.border_index()
        joined = {v} if directed else {u, v}
        assert joined <= set(index.nodes.tolist())
        assert index == _rebuilt_from_scratch(frag)
        assert index == BorderIndex.build(
            Fragmentation(graph, frag.fragments))

        # ... and retired again: its only cross edge is deleted
        apply_delta(frag, GraphDelta().delete(u, v))
        index = frag.border_index()
        assert not {u, v} & set(index.nodes.tolist())
        assert index == _rebuilt_from_scratch(frag)

        # a whole mirror copy goes: delete every cross edge into one node
        victim = next(x for x in index.nodes.tolist()
                      if len(gp.holders(x)) == 2)
        batch = GraphDelta()
        for a, b, _w in list(graph.edges()):
            if victim in (a, b) and gp.owner(a) != gp.owner(b):
                batch.delete(a, b)
        apply_delta(frag, batch)
        assert victim not in frag.border_index().nodes.tolist()
        assert frag.border_index() == _rebuilt_from_scratch(frag)

    def test_fragmentation_still_pickles(self):
        frag = _fragmentation()
        index = frag.border_index()
        clone = pickle.loads(pickle.dumps(frag))
        assert clone.border_index() == index


class TestOuterSlots:
    def test_lines_up_with_the_snapshot(self):
        frag = _fragmentation()
        for f in frag:
            labels, vids = f.outer_slots()
            assert labels.tolist() == sorted(f.outer)
            assert [f.csr().node_of[i] for i in vids.tolist()] \
                == labels.tolist()

    def test_follows_the_epoch(self):
        frag = _fragmentation()
        f = frag[0]
        before = f.outer_slots()[0].tolist()
        target = next(v for v in sorted(frag.graph.nodes())
                      if frag.gp.owner(v) != 0 and v not in f.outer)
        source = next(iter(sorted(f.owned)))
        apply_delta(frag, GraphDelta().insert(source, target, 1.0))
        assert f.outer_slots()[0].tolist() == sorted(before + [target])
