"""Engine-level equivalence: the ``use_csr`` programs with the kernels
on and off produce byte-identical runs.

The acceptance bar for the vectorized runtime is not "close": answers,
superstep counts and communication accounting must be *equal* between
the CSR dispatch and the dict fallback — the kernels change how fast the
fixpoint is reached, never which fixpoint.
"""

import pytest

from repro.core.engine import GrapeEngine
from repro.core.updates import ContinuousQuerySession
from repro.graph.generators import (grid_road_graph,
                                    preferential_attachment,
                                    uniform_random_graph)
from repro.pie_programs import (BFSProgram, CCProgram, PageRankProgram,
                                PageRankQuery, SSSPProgram)


def run_both(make_program, query, make_graph, workers, **engine_kwargs):
    results = []
    for use_csr in (True, False):
        engine = GrapeEngine(workers, **engine_kwargs)
        results.append(engine.run(make_program(use_csr=use_csr), query,
                                  graph=make_graph()))
    return results


def assert_identical(a, b):
    assert a.answer == b.answer
    assert a.supersteps == b.supersteps
    assert a.metrics.comm_bytes == b.metrics.comm_bytes
    assert a.metrics.comm_messages == b.metrics.comm_messages


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("workers", [1, 3, 6])
def test_sssp_identical(seed, workers):
    a, b = run_both(SSSPProgram, 0,
                    lambda: uniform_random_graph(150, 600, seed=seed),
                    workers)
    assert_identical(a, b)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("directed", [False, True])
def test_cc_identical(seed, workers, directed):
    a, b = run_both(CCProgram, None,
                    lambda: uniform_random_graph(120, 180,
                                                 directed=directed,
                                                 seed=seed),
                    workers)
    assert_identical(a, b)


@pytest.mark.parametrize("seed", range(3))
def test_bfs_identical(seed):
    a, b = run_both(BFSProgram, 0,
                    lambda: preferential_attachment(150, 3, seed=seed),
                    4)
    assert_identical(a, b)


@pytest.mark.parametrize("tolerance", [None, 1e-7])
def test_pagerank_identical(tolerance):
    query = PageRankQuery(max_iterations=15, tolerance=tolerance)
    a, b = run_both(PageRankProgram, query,
                    lambda: uniform_random_graph(120, 500, seed=2),
                    4)
    assert_identical(a, b)


def test_sssp_identical_high_diameter():
    a, b = run_both(SSSPProgram, 0, lambda: grid_road_graph(9, 9, seed=1),
                    4)
    assert_identical(a, b)


@pytest.mark.parametrize("make_program,query,directed", [
    (SSSPProgram, 0, True),
    (CCProgram, None, False),
])
def test_ni_mode_identical(make_program, query, directed):
    a, b = run_both(make_program, query,
                    lambda: uniform_random_graph(90, 250, directed=directed,
                                                 seed=7),
                    4, incremental=False)
    assert_identical(a, b)


@pytest.mark.parametrize("make_program,query,directed", [
    (SSSPProgram, 0, True),
    (CCProgram, None, False),
])
def test_continuous_sessions_identical(make_program, query, directed):
    """Insertion maintenance: CSR and dict sessions stay in lockstep."""
    batches = [
        [(1, 80, 0.05), (80, 81, 0.05)],
        [(200, 0, 0.5), (0, 200, 0.5)],   # new node
        [(81, 2, 0.01)],
    ]
    sessions = []
    for use_csr in (True, False):
        g = uniform_random_graph(90, 300, directed=directed, seed=11)
        sessions.append(ContinuousQuerySession(
            GrapeEngine(3), make_program(use_csr=use_csr), query, g))
    assert sessions[0].answer == sessions[1].answer
    for batch in batches:
        answers = [s.insert_edges(batch) for s in sessions]
        assert answers[0] == answers[1]
    m0, m1 = sessions[0].metrics, sessions[1].metrics
    assert m0.supersteps == m1.supersteps
    assert m0.comm_bytes == m1.comm_bytes


@pytest.mark.parametrize("use_csr", [True, False])
def test_cc_session_insertion_creates_border_node(use_csr):
    """A directed insertion can promote a node into a fragment's inner
    set without that fragment receiving any edge; the first post-update
    report collection must still ship the owner's authoritative cid
    (regression: the dirty-set protocol alone never saw the node)."""
    from repro.graph.graph import Graph
    from repro.partition.base import build_edge_cut_fragments
    from repro.sequential import connected_components

    g = Graph(directed=True)
    for v in (0, 1, 2):
        g.add_node(v)
    g.add_edge(0, 2, weight=1.0)
    fragmentation = build_edge_cut_fragments(g, {0: 0, 2: 0, 1: 2}, 3)
    session = ContinuousQuerySession(GrapeEngine(3),
                                     CCProgram(use_csr=use_csr), None,
                                     fragmentation=fragmentation)
    # Stored at node 1's owner (fragment 2); fragment 0 sees no edge but
    # node 2 newly joins its inner set.
    session.insert_edges([(1, 2, 1.0)])
    expected = {}
    for v, c in connected_components(g).items():
        expected.setdefault(c, set()).add(v)
    assert session.answer == expected == {0: {0, 1, 2}}


@pytest.mark.parametrize("use_csr", [True, False])
def test_cc_session_insertion_to_brand_new_node(use_csr):
    """An edge to a node the graph has never seen places the node at a
    hash-chosen owner fragment with no local edges; that fragment's CC
    state must treat it as a singleton and still converge with the
    owner-side component id."""
    from repro.sequential import connected_components

    g = uniform_random_graph(40, 60, directed=True, seed=6)
    session = ContinuousQuerySession(GrapeEngine(4),
                                     CCProgram(use_csr=use_csr), None, g)
    session.insert_edges([(2, 99, 1.0), (99, 100, 1.0)])
    expected = {}
    for v, c in connected_components(g).items():
        expected.setdefault(c, set()).add(v)
    assert session.answer == expected


@pytest.mark.parametrize("use_csr", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_cc_session_tracks_oracle_on_directed_insertions(use_csr, seed):
    from repro.sequential import connected_components

    g = uniform_random_graph(60, 80, directed=True, seed=seed)
    session = ContinuousQuerySession(GrapeEngine(4),
                                     CCProgram(use_csr=use_csr), None, g)
    # Weight 0.0: always monotone even if the edge already exists.
    batches = [[(0, 59, 0.0)], [(70, 5, 0.0), (6, 70, 0.0)],
               [(41, 3, 0.0), (3, 59, 0.0)]]
    for batch in batches:
        session.insert_edges(batch)
        expected = {}
        for v, c in connected_components(g).items():
            expected.setdefault(c, set()).add(v)
        assert session.answer == expected

