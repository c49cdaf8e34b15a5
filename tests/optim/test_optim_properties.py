"""Property-based tests on the optimization layer."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph.graph import Graph
from repro.optim.grouping import grouped_bytes, ungrouped_bytes
from repro.optim.indexing import NeighborhoodIndex
from repro.sequential.simulation import maximum_simulation


@st.composite
def labeled_digraphs(draw, max_nodes=12):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    g = Graph(directed=True)
    for v in range(n):
        g.add_node(v, draw(st.sampled_from(["a", "b", "c"])))
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            g.add_edge(u, v)
    return g


@st.composite
def small_patterns(draw):
    p = Graph(directed=True)
    p.add_node("u", draw(st.sampled_from(["a", "b", "c"])))
    p.add_node("w", draw(st.sampled_from(["a", "b", "c"])))
    p.add_edge("u", "w")
    return p


@given(labeled_digraphs(), small_patterns())
@settings(max_examples=60, deadline=None)
def test_neighborhood_index_is_sound(g, pattern):
    """The candidate filter never removes a true match."""
    truth = maximum_simulation(pattern, g)
    candidates = NeighborhoodIndex(g).candidates(pattern)
    for u in pattern.nodes():
        assert truth[u] <= candidates[u]


@given(st.dictionaries(
    keys=st.tuples(st.integers(0, 1000), st.just("dist")),
    values=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_grouping_never_costs_more(message):
    assert grouped_bytes(message) <= ungrouped_bytes(message)
