"""Property test over the border-parameter planes.

Small random graphs x {hash, metis} x {serial, thread, process} x
{array plane, ``use_csr=False`` dict plane} for SSSP, BFS, CC and
PageRank: every leg answers like the sequential oracle, and every leg
counts the same ``(supersteps, comm_messages, comm_bytes)`` — the array
plane changes how the coordinator works, never what it decides, and the
closed-form wire model prices a block and the equivalent dict alike.
"""

from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import engine as engine_mod
from repro.core.engine import GrapeEngine
from repro.graph.graph import Graph
from repro.partition.strategies import HashPartition, MetisLikePartition
from repro.pie_programs import (BFSProgram, CCProgram, PageRankProgram,
                                PageRankQuery, SSSPProgram)
from repro.sequential import connected_components, sssp_distances

from .harness import normalize

BACKENDS = ("serial", "thread", "process")
PARTITIONS = (HashPartition(), MetisLikePartition())
FRAGMENTS = 4  # >= 3 foreign sources per node: PageRank's sum order matters
PAGERANK = PageRankQuery(max_iterations=4)


@st.composite
def graphs(draw, max_nodes=16):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    g = Graph(directed=draw(st.booleans()))
    for v in range(n):
        g.add_node(v)
    for _ in range(draw(st.integers(min_value=1, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v, weight=draw(
                st.floats(min_value=0.1, max_value=5.0, allow_nan=False)))
    return g


def bfs_hops(g, source):
    hops = {v: -1 for v in g.nodes()}
    hops[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.successors(v):
            if hops[w] < 0:
                hops[w] = hops[v] + 1
                queue.append(w)
    return hops


def cc_buckets(g):
    buckets = {}
    for v, cid in connected_components(g).items():
        buckets.setdefault(cid, set()).add(v)
    return normalize(buckets)


def power_iteration(g, query):
    n = g.num_nodes
    rank = {v: 1.0 / n for v in g.nodes()}
    for _ in range(query.max_iterations):
        incoming = {v: 0.0 for v in g.nodes()}
        for v in g.nodes():
            if g.out_degree(v):
                share = rank[v] / g.out_degree(v)
                for w in g.successors(v):
                    incoming[w] += share
        rank = {v: (1.0 - query.damping) / n + query.damping * incoming[v]
                for v in g.nodes()}
    return rank


CASES = [
    ("sssp", SSSPProgram, 0, lambda g: sssp_distances(g, 0)),
    ("bfs", BFSProgram, 0, lambda g: bfs_hops(g, 0)),
    ("cc", CCProgram, None, cc_buckets),
    # no sequential oracle mirrors the cut-edge schedule: the legs must
    # agree bitwise, and one fragment must be plain power iteration
    ("pagerank", PageRankProgram, PAGERANK, None),
]


def run_legs(make_program, query, fragmentation, taken):
    """Every (backend x plane) leg on one fragmentation; returns the
    normalized answers and the cost triples."""
    answers, costs = {}, {}
    for backend in BACKENDS:
        for use_csr in (True, False):
            del taken[:]
            result = GrapeEngine(2, num_fragments=FRAGMENTS,
                                 backend=backend).run(
                make_program(use_csr=use_csr), query,
                fragmentation=fragmentation)
            assert taken == ["ArrayCoordinator" if use_csr
                             else "DictCoordinator"]
            leg = (backend, use_csr)
            answers[leg] = normalize(result.answer)
            costs[leg] = (result.supersteps, result.metrics.comm_messages,
                          result.metrics.comm_bytes)
    return answers, costs


@pytest.fixture
def taken(monkeypatch):
    """Which coordinator each engine run built."""
    seen = []
    real = engine_mod.make_coordinator

    def spy(*args, **kwargs):
        coord = real(*args, **kwargs)
        seen.append(type(coord).__name__)
        return coord

    monkeypatch.setattr(engine_mod, "make_coordinator", spy)
    return seen


@given(g=graphs())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_leg_agrees_with_the_oracle_and_with_each_other(g, taken):
    for strategy in PARTITIONS:
        fragmentation = strategy.partition(g, FRAGMENTS)
        for name, make_program, query, oracle in CASES:
            answers, costs = run_legs(make_program, query, fragmentation,
                                      taken)
            reference = answers["serial", False]
            for leg, answer in answers.items():
                assert answer == reference, (name, strategy.name, leg)
            assert len(set(costs.values())) == 1, (name, strategy.name,
                                                   costs)
            if oracle is not None:
                assert reference == oracle(g), (name, strategy.name)


#: Hypothesis found this one through the property above (ROADMAP 5 iii):
#: pushing shares in ``fragment.owned`` *set-iteration* order made
#: ``rank[2]`` differ in the last digit between the inline backends and
#: the process backend, whose pickle round trip reorders the set.
PAGERANK_ORDER_EDGES = [
    (0, 9, 1.6818256857337137), (0, 2, 1.911078711505551), (0, 1, 1.0),
    (0, 4, 1.0), (1, 0, 1.0), (1, 5, 1.0), (2, 4, 1.0), (2, 0, 1.0),
    (3, 0, 1.0), (3, 5, 1.0), (4, 5, 1.0), (4, 1, 2.5463042773044924),
    (4, 2, 2.802106503171079), (5, 8, 2.01663796260806), (10, 0, 1.0)]


def test_pagerank_does_not_depend_on_owned_set_order(taken):
    g = Graph(directed=True)
    for v in range(15):
        g.add_node(v)
    for u, v, w in PAGERANK_ORDER_EDGES:
        g.add_edge(u, v, weight=w)
    fragmentation = MetisLikePartition().partition(g, FRAGMENTS)
    answers, costs = run_legs(PageRankProgram, PAGERANK, fragmentation,
                              taken)
    assert len(set(costs.values())) == 1, costs
    for leg, answer in answers.items():
        assert answer == answers["serial", False], leg


@given(g=graphs())
@settings(max_examples=12, deadline=None)
def test_pagerank_on_one_fragment_is_power_iteration(g):
    for use_csr in (True, False):
        result = GrapeEngine(1).run(PageRankProgram(use_csr=use_csr),
                                    PAGERANK, graph=g)
        truth = power_iteration(g, PAGERANK)
        assert result.answer == pytest.approx(truth, rel=1e-12, abs=1e-15)


def relabel(g, name):
    out = Graph(directed=g.directed)
    for v in g.nodes():
        out.add_node(name(v))
    for u, v, w in g.edges():
        out.add_edge(name(u), name(v), weight=w)
    return out


@given(g=graphs())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_string_labels_take_the_dict_plane_with_identical_answers(g, taken):
    name = "n{:02d}".format  # keeps the order: "n00" < "n01" < ...
    fragmentation = HashPartition().partition(relabel(g, name), FRAGMENTS)
    assert fragmentation.border_index() is None
    engine = GrapeEngine(2, num_fragments=FRAGMENTS)
    for case, make_program, query, oracle in CASES:
        if query == 0:
            query = name(0)
        del taken[:]
        result = engine.run(make_program(), query,
                            fragmentation=fragmentation)
        assert taken == ["DictCoordinator"], case
        answer = normalize(result.answer)
        if case == "cc":
            expected = {name(cid): frozenset(map(name, members))
                        for cid, members in oracle(g).items()}
        elif oracle is not None:
            expected = {name(v): x for v, x in oracle(g).items()}
        else:
            expected = engine.run(make_program(use_csr=False), query,
                                  fragmentation=fragmentation).answer
        assert answer == expected, case
