"""The array partitioner equals the dict-built one it replaced.

``MetisLikePartition`` runs over CSR arrays and ``build_edge_cut_fragments``
derives fragments, border sets, ``G_P`` and the border index from the
base graph's snapshot; ``reference.py`` keeps the dict versions.  Both
must agree exactly — the same assignment in the same order, and
fragments whose installed snapshots equal ``CSRGraph.from_graph`` of the
dict-built fragment graphs element for element — so that every answer,
superstep, byte and float of the engine is unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import (grid_road_graph, preferential_attachment,
                                    uniform_random_graph)
from repro.graph.graph import DeferredGraph, Graph
from repro.partition.base import (BorderIndex, build_edge_cut_fragments,
                                 replication_factor)
from repro.partition.strategies import (GridPartition, HashPartition,
                                        MetisLikePartition, RangePartition,
                                        StreamingPartition)

from .reference import MetisLikeDicts, build_edge_cut_fragments_dicts

#: the seed of the benchmark's workload graphs (benchmarks/e2e)
WORKLOAD_SEED = 20170514

#: sha256 of ``repr(list(assign(g, k).items()))`` as the dict version of
#: the partitioner computed it, per (graph, k)
PINNED = {
    "social": (lambda: preferential_attachment(
        6000, 4, directed=False, seed=WORKLOAD_SEED),
        "9275a27d37e0afd8", "805bb2ab594b2af2"),
    "road": (lambda: grid_road_graph(120, 120, seed=WORKLOAD_SEED),
             "909d575a60035aad", "6882d5728149fe76"),
    "churn": (lambda: uniform_random_graph(
        4000, 12000, directed=False, seed=WORKLOAD_SEED),
        "b346ad20c6526e59", "98fa8009d177390b"),
    "grid_road_graph": (lambda: grid_road_graph(120, 120, seed=3),
                        "0275b5b7fffab293", "9e1fe43ed42f31fc"),
    "preferential_attachment-directed": (lambda: preferential_attachment(
        3000, 4, directed=True, seed=5),
        "9cc5a94e52d76c4a", "d04019ddd08f368b"),
    "preferential_attachment-undirected": (lambda: preferential_attachment(
        3000, 4, directed=False, seed=5),
        "9cc5a94e52d76c4a", "d04019ddd08f368b"),
    "uniform_random_graph": (lambda: uniform_random_graph(3000, 9000, seed=7),
                             "e1e51d03622bcb63", "d07881616471ed45"),
}

EDGE_CUT = (HashPartition(), RangePartition(), GridPartition(),
            StreamingPartition(), MetisLikePartition(coarsen_until=4))


def digest(assignment) -> str:
    return hashlib.sha256(
        repr(list(assignment.items())).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_assignment_digests_are_pinned(name):
    make, *digests = PINNED[name]
    g = make()
    for k, want in zip((4, 8), digests):
        assert digest(MetisLikePartition().assign(g, k)) == want


@st.composite
def graphs(draw, *, max_nodes=40, node_ids="int"):
    """Random graphs: directed or not, random or all-equal weights (ties
    everywhere), isolated nodes, self-loops, optional node and edge
    labels, int or non-int node ids."""
    directed = draw(st.booleans())
    n = draw(st.integers(0, max_nodes))
    name = {"int": lambda i: i, "str": lambda i: f"v{i}",
            "tuple": lambda i: (i % 3, f"u{i}")}[node_ids]
    order = draw(st.permutations(range(n)))
    equal = draw(st.booleans())
    g = Graph(directed=directed)
    labelled = draw(st.booleans())
    for i in order:  # insertion order is the node order
        g.add_node(name(i), draw(st.sampled_from("ab")) if labelled
                   else None)
    if n:
        edges = draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.just(1.0) if equal else st.floats(0.5, 4.0, width=16),
            st.sampled_from([None, None, "x", "y"])), max_size=4 * n))
        for u, v, w, label in edges:
            g.add_edge(name(u), name(v), weight=w, label=label)
    return g


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def edge_list_graph(directed, n, edges):
    g = Graph(directed=directed)
    for v in range(n):
        g.add_node(v)
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    return g


@settings(SETTINGS, max_examples=150)
@given(g=graphs(), k=st.integers(1, 8),
       coarsen_until=st.sampled_from([4, 16, 64]))
@example(  # refinement moves a node that had every neighbour at home
           # when the pass began: a neighbour's move put it on the cut
    g=edge_list_graph(True, 9, [(0, 2, 1.0), (1, 0, 1.6216151262524092),
                                (4, 2, 1.0), (5, 1, 1.0),
                                (5, 6, 3.8614995948380186),
                                (6, 4, 2.2624075825866705),
                                (6, 7, 1.2484197226555132)]),
    k=2, coarsen_until=64)
def test_metis_equals_the_dict_reference(g, k, coarsen_until):
    ours = MetisLikePartition(coarsen_until=coarsen_until).assign(g, k)
    theirs = MetisLikeDicts(coarsen_until=coarsen_until).assign(g, k)
    assert list(ours.items()) == list(theirs.items())


def assert_same_fragmentation(ours, theirs):
    """Field by field: snapshots, border sets (and their order), G_P,
    border index, edge labels, the dict graphs themselves."""
    assert len(ours) == len(theirs)
    for mine, ref in zip(ours, theirs):
        assert mine.csr_cached and mine.csr_builds == 0
        snap, want = mine.csr(), CSRGraph.from_graph(ref.graph)
        for name in ("indptr", "indices", "weights"):
            got, exp = getattr(snap, name), getattr(want, name)
            assert got.dtype == exp.dtype and np.array_equal(got, exp)
        assert snap.node_of == want.node_of and snap.labels == want.labels
        assert snap.id_of == want.id_of
        for name in ("owned", "inner", "outer"):
            assert list(getattr(mine, name)) == list(getattr(ref, name))
        assert mine.graph._edge_labels == ref.graph._edge_labels
        assert mine.graph == ref.graph
    assert ours.gp._owner == theirs.gp._owner
    assert ours.gp._holders == theirs.gp._holders
    assert ours.border_index() == BorderIndex.build(theirs)
    ours.validate()


@SETTINGS
@given(g=graphs(), k=st.integers(1, 8),
       strategy=st.sampled_from(EDGE_CUT), data=st.data())
def test_fragments_equal_the_dict_reference(g, k, strategy, data):
    assignment = strategy.assign(g, k)
    if data.draw(st.booleans()):  # a caller's map: any order
        keys = data.draw(st.permutations(list(assignment)))
        assignment = {v: assignment[v] for v in keys}
    assert_same_fragmentation(
        build_edge_cut_fragments(g, assignment, k),
        build_edge_cut_fragments_dicts(g, assignment, k))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(g=st.one_of(graphs(node_ids="str"), graphs(node_ids="tuple")),
       k=st.integers(1, 8), strategy=st.sampled_from(EDGE_CUT))
def test_non_int_ids_equal_the_dict_reference(g, k, strategy):
    assignment = strategy.assign(g, k)
    assert_same_fragmentation(
        build_edge_cut_fragments(g, assignment, k),
        build_edge_cut_fragments_dicts(g, assignment, k))


def test_counting_a_fragment_fills_no_dict_graph():
    fragmentation = HashPartition().partition(
        grid_road_graph(30, 30, seed=1), 4)
    before = DeferredGraph.materialised
    assert replication_factor(fragmentation) > 1.0
    assert sum(f.num_edges for f in fragmentation) > 0
    assert DeferredGraph.materialised == before


@SETTINGS
@given(g=graphs(), k=st.integers(1, 8), strategy=st.sampled_from(EDGE_CUT))
def test_fragment_counts_equal_the_filled_graphs(g, k, strategy):
    """Read from the installed snapshot, ``num_nodes`` / ``num_edges``
    are the filled graph's: an undirected edge and a self-loop count
    once."""
    for fragment in strategy.partition(g, k):
        counted = fragment.num_nodes, fragment.num_edges
        assert type(fragment.graph) is DeferredGraph
        graph = fragment.graph
        assert counted == (graph.num_nodes, graph.num_edges)  # fills
        assert type(graph) is Graph
