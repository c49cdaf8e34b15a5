"""Property-based Assurance tests: GRAPE == sequential oracle on random
graphs, partitions and worker counts, for SSSP, CC and Sim, with the
monotonic condition checked — on both border-parameter planes where a
program has two (``use_csr``)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.engine import GrapeEngine
from repro.graph.graph import Graph
from repro.partition.strategies import (HashPartition, MetisLikePartition,
                                        StreamingPartition)
from repro.pie_programs import CCProgram, SimProgram, SSSPProgram
from repro.sequential import (connected_components, maximum_simulation,
                              sssp_distances)

STRATEGIES = [HashPartition(), MetisLikePartition(), StreamingPartition()]


@st.composite
def weighted_digraphs(draw, max_nodes=14):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    g = Graph(directed=True)
    for v in range(n):
        g.add_node(v, draw(st.sampled_from(["a", "b"])))
    for _ in range(draw(st.integers(min_value=1, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v,
                       weight=draw(st.floats(min_value=0.1, max_value=5.0,
                                             allow_nan=False)))
    return g


@st.composite
def engine_params(draw):
    n_workers = draw(st.integers(min_value=1, max_value=4))
    strategy = STRATEGIES[draw(st.integers(0, len(STRATEGIES) - 1))]
    return n_workers, strategy


@given(weighted_digraphs(), engine_params(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_sssp_assurance(g, params, use_csr):
    n, strategy = params
    engine = GrapeEngine(n, partition=strategy, check_monotonic=True)
    result = engine.run(SSSPProgram(use_csr=use_csr), query=0, graph=g)
    truth = sssp_distances(g, 0)
    for v in g.nodes():
        assert abs(result.answer[v] - truth[v]) < 1e-9 \
            or result.answer[v] == truth[v]  # handles inf == inf


@st.composite
def undirected_graphs(draw, max_nodes=14):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    g = Graph(directed=False)
    for v in range(n):
        g.add_node(v)
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v)
    return g


@given(undirected_graphs(), engine_params(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_cc_assurance(g, params, use_csr):
    n, strategy = params
    engine = GrapeEngine(n, partition=strategy, check_monotonic=True)
    result = engine.run(CCProgram(use_csr=use_csr), query=None, graph=g)
    expected = {}
    for v, c in connected_components(g).items():
        expected.setdefault(c, set()).add(v)
    assert result.answer == expected


@st.composite
def sim_cases(draw):
    g = draw(weighted_digraphs(max_nodes=12))
    pattern = Graph(directed=True)
    pattern.add_node("u", draw(st.sampled_from(["a", "b"])))
    pattern.add_node("w", draw(st.sampled_from(["a", "b"])))
    pattern.add_edge("u", "w")
    if draw(st.booleans()):
        pattern.add_edge("w", "u")
    return g, pattern


@given(sim_cases(), engine_params())
@settings(max_examples=40, deadline=None)
def test_sim_assurance(case, params):
    g, pattern = case
    n, strategy = params
    engine = GrapeEngine(n, partition=strategy, check_monotonic=True)
    result = engine.run(SimProgram(), query=pattern, graph=g)
    assert result.answer == maximum_simulation(pattern, g)
