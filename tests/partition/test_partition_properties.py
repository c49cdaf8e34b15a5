"""Property-based tests: partition invariants hold for random graphs and
every strategy (paper Section 2's partition definition)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph.graph import Graph
from repro.partition.strategies import (HashPartition, MetisLikePartition,
                                        RangePartition, StreamingPartition,
                                        VertexCutPartition)

STRATEGIES = [HashPartition(), RangePartition(), StreamingPartition(),
              MetisLikePartition(), VertexCutPartition()]


@st.composite
def graphs_and_m(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    directed = draw(st.booleans())
    g = Graph(directed=directed)
    for v in range(n):
        g.add_node(v)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v)
    m = draw(st.integers(min_value=1, max_value=min(4, n)))
    idx = draw(st.integers(min_value=0, max_value=len(STRATEGIES) - 1))
    return g, m, STRATEGIES[idx]


@given(graphs_and_m())
@settings(max_examples=80, deadline=None)
def test_partition_invariants(case):
    """V and E are covered, owners are unique, border sets consistent."""
    g, m, strategy = case
    frag = strategy.partition(g, m)
    frag.validate()

    # Every node has exactly one owner.
    owners = {}
    for f in frag:
        for v in f.owned:
            assert v not in owners, "double ownership"
            owners[v] = f.fid
    assert set(owners) == set(g.nodes())

    # G_P holders include the owner.
    for v in g.nodes():
        assert frag.gp.owner(v) in frag.gp.holders(v)

    # Border nodes are exactly the multi-holder nodes.
    multi = {v for v in g.nodes() if len(frag.gp.holders(v)) > 1}
    assert set(frag.gp.border_nodes()) == multi


@given(graphs_and_m())
@settings(max_examples=80, deadline=None)
def test_every_edge_in_some_fragment(case):
    g, m, strategy = case
    frag = strategy.partition(g, m)
    for u, v, w in g.edges():
        found = any(f.graph.has_edge(u, v) for f in frag)
        assert found, f"edge {(u, v)} lost by {strategy.name}"
