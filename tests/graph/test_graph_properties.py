"""Property-based tests on the graph substrate (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph import io as gio
from repro.graph.graph import Graph


@st.composite
def random_graphs(draw, max_nodes=12, directed=None):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    if directed is None:
        directed = draw(st.booleans())
    g = Graph(directed=directed)
    labels = ["a", "b", "c"]
    for v in range(n):
        g.add_node(v, draw(st.sampled_from(labels)))
    num_edges = draw(st.integers(min_value=0, max_value=3 * n))
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            w = draw(st.floats(min_value=0.1, max_value=10.0,
                               allow_nan=False))
            g.add_edge(u, v, weight=w)
    return g


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_copy_equals_original(g):
    assert g.copy() == g


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_io_round_trip(g):
    assert gio.loads(gio.dumps(g)) == g


@given(random_graphs(directed=True))
@settings(max_examples=60, deadline=None)
def test_csr_round_trip(g):
    back = g.to_csr().to_graph()
    assert set(back.nodes()) == set(g.nodes())
    fwd = {(u, v): w for u, v, w in g.edges()}
    back_edges = {(u, v): w for u, v, w in back.edges()}
    assert set(fwd) == set(back_edges)


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_degree_sum_matches_edges(g):
    if g.directed:
        assert sum(g.out_degree(v) for v in g.nodes()) == g.num_edges
        assert sum(g.in_degree(v) for v in g.nodes()) == g.num_edges
    else:
        # Each undirected edge contributes 2 to the degree sum.
        assert sum(g.degree(v) for v in g.nodes()) == 2 * g.num_edges
