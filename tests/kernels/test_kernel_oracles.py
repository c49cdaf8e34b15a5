"""Property-style equivalence: every CSR kernel vs its sequential oracle.

Random directed/undirected, weighted, optionally labeled graphs —
including disconnected pieces and self-loops — must produce *exactly*
the same results from the vectorized kernels as from the dict-graph
algorithms in :mod:`repro.sequential` (floats compared with ``==``: the
kernels replay the same IEEE additions, not approximations of them).
"""

from collections import deque
from math import inf

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from differential.harness import ids_after
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.kernels import (UNREACHED_HOPS, csr_bfs, csr_components,
                           csr_pagerank_push, csr_sssp)
from repro.sequential.sssp import dijkstra
from repro.sequential.wcc import connected_components


def splice(g, base, dirty):
    """``g``'s snapshot spliced over ``base``, under the id table a
    fragment would hold (ids stay, tombstones, appended new nodes)."""
    return CSRGraph.from_graph(g, ids=ids_after(base, g), base=base,
                               dirty=dirty)


@st.composite
def random_graphs(draw, directed=True, max_nodes=24, labeled=False,
                  self_loops=True):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    g = Graph(directed=directed)
    for v in range(n):
        g.add_node(v, label=f"l{v % 3}" if labeled else None)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v and not self_loops:
            continue
        w = draw(st.floats(min_value=0.0, max_value=5.0,
                           allow_nan=False, allow_infinity=False))
        g.add_edge(u, v, weight=w)
    return g


class TestSSSPKernel:
    @given(random_graphs(), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_dijkstra_directed(self, g, source):
        self._check(g, source)

    @given(random_graphs(directed=False, labeled=True), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_dijkstra_undirected(self, g, source):
        self._check(g, source)

    @staticmethod
    def _check(g, source):
        truth = dijkstra(g, source)
        csr = g.to_csr()
        seeds = ({csr.id_of[source]: 0.0} if g.has_node(source) else {})
        dist, changed = csr_sssp(csr, seeds)
        got = dict(zip(csr.node_of, dist.tolist()))
        assert got == truth  # exact, including inf for unreachable
        finite = {csr.node_of[i] for i in changed.tolist()}
        assert finite == {v for v, d in truth.items() if d < inf}

    def test_seeds_only_improve_and_propagate(self):
        g = Graph()
        g.add_edge(0, 1, weight=5.0)
        g.add_edge(1, 2, weight=1.0)
        csr = g.to_csr()
        dist = np.array([0.0, inf, inf])
        out, changed = csr_sssp(csr, {csr.id_of[1]: 2.0}, dist)
        assert out.tolist() == [0.0, 2.0, 3.0]
        assert sorted(csr.node_of[i] for i in changed.tolist()) == [1, 2]
        # A non-improving seed is ignored: nothing changes.
        out, changed = csr_sssp(csr, {csr.id_of[1]: 4.0}, out)
        assert out.tolist() == [0.0, 2.0, 3.0]
        assert changed.size == 0

    def test_negative_weight_rejected(self):
        g = Graph()
        g.add_edge(0, 1, weight=-1.0)
        csr = g.to_csr()
        with pytest.raises(ValueError, match="negative edge weight"):
            csr_sssp(csr, {csr.id_of[0]: 0.0})


class TestBFSKernel:
    @staticmethod
    def _oracle(g, source):
        hops = {}
        if g.has_node(source):
            hops[source] = 0
            dq = deque([(source, 0)])
            while dq:
                v, d = dq.popleft()
                for w in g.successors(v):
                    if w not in hops:
                        hops[w] = d + 1
                        dq.append((w, d + 1))
        return hops

    @given(random_graphs(), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_queue_bfs(self, g, source):
        truth = self._oracle(g, source)
        csr = g.to_csr()
        seeds = {csr.id_of[source]: 0} if g.has_node(source) else {}
        hops, _changed = csr_bfs(csr, seeds)
        got = {v: h for v, h in zip(csr.node_of, hops.tolist())
               if h < UNREACHED_HOPS}
        assert got == truth

    @given(random_graphs(directed=False))
    @settings(max_examples=30, deadline=None)
    def test_undirected(self, g):
        truth = self._oracle(g, 0)
        csr = g.to_csr()
        hops, _ = csr_bfs(csr, {csr.id_of[0]: 0})
        got = {v: h for v, h in zip(csr.node_of, hops.tolist())
               if h < UNREACHED_HOPS}
        assert got == truth

    @pytest.mark.parametrize("directed", [True, False])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_is_the_sssp_relaxation_at_unit_cost(self, directed, data):
        """One frontier loop serves both kernels: on unit weights they
        agree value for value and frontier for frontier (``changed``
        ids) — from a cold start on dict seeds, and resuming over the
        estimates that left on array seeds."""
        g = data.draw(random_graphs(directed=directed))
        unit = Graph(directed=directed)
        for v in g.nodes():
            unit.add_node(v)
        for u, v, _w in g.edges():
            unit.add_edge(u, v, weight=1.0)
        csr = unit.to_csr()
        hops = dist = None
        for as_arrays in (False, True):
            ids = data.draw(st.lists(st.integers(0, csr.n - 1),
                                     max_size=4, unique=True))
            vals = [data.draw(st.integers(0, 6)) for _ in ids]
            if as_arrays:
                ids = np.array(ids, dtype=np.int64)
                hop_seeds = (ids, np.array(vals, dtype=np.int64))
                dist_seeds = (ids, np.array(vals, dtype=np.float64))
            else:
                hop_seeds = dict(zip(ids, vals))
                dist_seeds = {i: float(h) for i, h in hop_seeds.items()}
            hops, moved_hops = csr_bfs(csr, hop_seeds, hops)
            dist, moved_dist = csr_sssp(csr, dist_seeds, dist)
            assert hops.dtype == np.int64 and dist.dtype == np.float64
            assert moved_hops.tolist() == moved_dist.tolist()
            assert dist.tolist() == [h if h < UNREACHED_HOPS else inf
                                     for h in hops.tolist()]


class TestComponentsKernel:
    @staticmethod
    def _partition(cid):
        groups = {}
        for v, c in cid.items():
            groups.setdefault(c, set()).add(v)
        return frozenset(frozenset(s) for s in groups.values())

    @given(random_graphs(directed=False))
    @settings(max_examples=60, deadline=None)
    def test_same_partition_undirected(self, g):
        self._check(g)

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_same_partition_directed_edges_ignored(self, g):
        # connected_components treats direction as irrelevant; so must
        # the kernel (it propagates along both CSR and CSC edges).
        self._check(g)

    def _check(self, g):
        csr = g.to_csr()
        comp = csr_components(csr)
        got = {v: int(c) for v, c in zip(csr.node_of, comp.tolist())}
        assert self._partition(got) == self._partition(
            connected_components(g))
        # Representative = smallest dense id of the component.
        for v, c in got.items():
            assert c <= csr.id_of[v]

    def test_isolated_nodes_are_singletons(self):
        g = Graph(directed=False)
        for v in range(5):
            g.add_node(v)
        comp = csr_components(g.to_csr())
        assert comp.tolist() == [0, 1, 2, 3, 4]


class TestPageRankPushKernel:
    @given(random_graphs(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_identical_to_dict_push(self, g, seed):
        csr = g.to_csr()
        rng = np.random.default_rng(seed)
        rank_vals = rng.random(csr.n)

        incoming = {v: 0.0 for v in g.nodes()}
        for v in g.nodes():
            out_deg = g.out_degree(v)
            if out_deg == 0:
                continue
            share = rank_vals[csr.id_of[v]] / out_deg
            for w in g.successors(v):
                incoming[w] = incoming.get(w, 0.0) + share

        ids = np.arange(csr.n, dtype=np.int64)
        got = csr_pagerank_push(csr, rank_vals, ids)
        assert [incoming[v] for v in csr.node_of] == got.tolist()


# ----------------------------------------------------------------------
# Kernels that do not pay per round: parent hooking in the components
# kernels, once-per-snapshot weight validation in csr_sssp — on built
# *and* spliced snapshots, directed and undirected.
# ----------------------------------------------------------------------
def _label_pushing_components(csr):
    """The reference loop: labels move vertex to vertex, both ways over
    every edge, with the full pointer jump (the kernel before parents
    were hooked)."""
    comp = np.arange(csr.n, dtype=np.int64)
    src = np.repeat(np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr))
    dst = csr.indices
    while src.size:
        new = comp.copy()
        np.minimum.at(new, dst, comp[src])
        np.minimum.at(new, src, comp[dst])
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, comp):
            break
        comp = new
    return comp


@st.composite
def spliced_snapshots(draw, directed):
    """A graph, mutated after a snapshot was taken, with the snapshot
    spliced from the old one and the dirty rows."""
    g = draw(random_graphs(directed=directed, self_loops=False))
    base = CSRGraph.from_graph(g)
    n = g.num_nodes
    dirty = set()
    for _ in range(draw(st.integers(0, 6))):
        u, v = draw(st.integers(0, n + 1)), draw(st.integers(0, n + 1))
        if u == v:
            continue
        if g.has_node(u) and g.has_node(v) and g.has_edge(u, v) \
                and draw(st.booleans()):
            g.remove_edge(u, v)
        else:
            g.add_edge(u, v, weight=draw(st.floats(0.0, 5.0)))
        dirty.update((u, v))
    if n > 2 and draw(st.booleans()):
        gone = draw(st.integers(0, n - 1))
        dirty.update(g.neighbors(gone))
        dirty.add(gone)
        g.remove_node(gone)
    return g, splice(g, base, dirty)


class TestParentHookingComponents:
    @pytest.mark.parametrize("directed", [True, False])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equal_to_label_pushing_on_built_and_spliced(self, directed,
                                                         data):
        g, spliced = data.draw(spliced_snapshots(directed))
        # a splice keeps ids (tombstones are isolated rows): each
        # snapshot against the reference on itself
        for snap in (CSRGraph.from_graph(g), spliced):
            assert np.array_equal(csr_components(snap),
                                  _label_pushing_components(snap))

    def test_ids_out_of_grid_order_need_few_rounds(self):
        import random

        from repro.graph.generators import grid_road_graph
        grid = grid_road_graph(30, 30, seed=1, directed=False)
        nodes = list(grid.nodes())
        random.Random(3).shuffle(nodes)
        g = Graph(directed=False)
        for v in nodes:
            g.add_node(v)
        for u, v, w in grid.edges():
            g.add_edge(u, v, weight=w)
        csr = g.to_csr()
        calls = []
        real = np.minimum.at

        class Counting:
            @staticmethod
            def at(*args):
                calls.append(1)
                return real(*args)

        from unittest import mock

        from repro.kernels import cc as cc_kernel
        with mock.patch.object(cc_kernel.np, "minimum", Counting):
            comp = csr_components(csr)
        assert comp.tolist() == [0] * csr.n
        assert len(calls) <= 2 * 8  # two hooks a round; 30+ rounds before


class TestNegativeWeightsValidatedOncePerSnapshot:
    @pytest.mark.parametrize("directed", [True, False])
    def test_named_from_the_first_call_on_built_and_spliced(self, directed):
        g = Graph(directed=directed)
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(2, 3, weight=2.0)  # not reachable from 0
        clean = g.to_csr()
        assert clean.min_weight == 1.0
        csr_sssp(clean, {clean.id_of[0]: 0.0})
        g.set_edge_weight(2, 3, -2.0)
        spliced = splice(g, clean, {2, 3})
        for snap in (CSRGraph.from_graph(g), spliced):
            assert snap.min_weight == -2.0
            for _ in range(2):  # the first call and every later one
                with pytest.raises(ValueError, match=(
                        r"negative edge weight on \((2, 3|3, 2)\)")):
                    csr_sssp(snap, {snap.id_of[0]: 0.0})
        # the snapshot the splice started from is as valid as it was
        csr_sssp(clean, {clean.id_of[0]: 0.0})

    def test_empty_snapshot_and_read_only_weights(self):
        g = Graph()
        g.add_node(0)
        assert g.to_csr().min_weight == inf
        g.add_edge(0, 1, weight=3.0)
        csr = g.to_csr()
        assert csr.min_weight == 3.0
        # nothing can get under the cached minimum: a snapshot's weights
        # are never written
        with pytest.raises(ValueError, match="read-only"):
            csr.weights[0] = -1.0
