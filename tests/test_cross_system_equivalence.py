"""Cross-system integration property: GRAPE, Pregel, GAS and Blogel all
compute identical answers on random inputs.

This is the strongest end-to-end invariant of the reproduction: four
independently implemented engines agree with the sequential oracle on
every random graph hypothesis generates.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.baselines.block_centric import (BlogelEngine, CCBlockProgram,
                                           SSSPBlockProgram)
from repro.baselines.gas import GASEngine
from repro.baselines.gas_programs import CCGASProgram, SSSPGASProgram
from repro.baselines.vertex_centric import PregelEngine
from repro.baselines.vertex_programs import (CCVertexProgram,
                                             SSSPVertexProgram)
from repro.core.engine import GrapeEngine
from repro.graph.graph import Graph
from repro.pie_programs import CCProgram, SSSPProgram
from repro.sequential import connected_components, sssp_distances


@st.composite
def weighted_digraphs(draw, max_nodes=12):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    g = Graph(directed=True)
    for v in range(n):
        g.add_node(v)
    for _ in range(draw(st.integers(min_value=1, max_value=3 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            g.add_edge(u, v, weight=draw(
                st.floats(min_value=0.1, max_value=5.0, allow_nan=False)))
    return g


def close(a, b):
    return all(abs(a[v] - b[v]) < 1e-9 or a[v] == b[v] for v in a)


@given(weighted_digraphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_all_systems_agree_on_sssp(g, n):
    truth = sssp_distances(g, 0)
    answers = {
        "grape": GrapeEngine(n).run(SSSPProgram(), 0, graph=g).answer,
        "pregel": PregelEngine(n).run(SSSPVertexProgram(), g,
                                      query=0).answer,
        "gas": GASEngine(n).run(SSSPGASProgram(), g, query=0).answer,
        "blogel": BlogelEngine(n).run(SSSPBlockProgram(), g,
                                      query=0).answer,
    }
    for name, answer in answers.items():
        assert close(answer, truth), f"{name} diverged from the oracle"


@st.composite
def undirected_graphs(draw, max_nodes=12):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    g = Graph(directed=False)
    for v in range(n):
        g.add_node(v)
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            g.add_edge(u, v)
    return g


@given(undirected_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_all_systems_agree_on_cc(g, n):
    expected = {}
    for v, c in connected_components(g).items():
        expected.setdefault(c, set()).add(v)
    answers = {
        "grape": GrapeEngine(n).run(CCProgram(), None, graph=g).answer,
        "pregel": PregelEngine(n).run(CCVertexProgram(), g).answer,
        "gas": GASEngine(n).run(CCGASProgram(), g).answer,
        "blogel": BlogelEngine(n, precompute_cc=True).run(
            CCBlockProgram(), g).answer,
    }
    for name, answer in answers.items():
        assert answer == expected, f"{name} diverged from the oracle"
