"""Differential correctness across every execution path.

SSSP, BFS, CC and PageRank on seeded random graphs, executed under every
(backend × use_csr × incremental) combination: identical answers
everywhere; identical superstep counts and communication accounting
within each incremental mode.
"""

import pytest

from repro.graph.generators import (grid_road_graph, preferential_attachment,
                                    uniform_random_graph)
from repro.pie_programs import (BFSProgram, CCProgram, PageRankProgram,
                                PageRankQuery, SSSPProgram)

from .harness import ALL_PATHS, run_all_paths, run_under_faults


@pytest.mark.parametrize("seed", range(3))
def test_sssp_all_paths(seed):
    results = run_all_paths(
        SSSPProgram, 0,
        lambda: uniform_random_graph(140, 560, seed=seed))
    assert len(results) == len(ALL_PATHS)


@pytest.mark.parametrize("seed", range(3))
def test_bfs_all_paths(seed):
    run_all_paths(
        BFSProgram, 0,
        lambda: preferential_attachment(130, 3, seed=seed))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("directed", [False, True])
def test_cc_all_paths(seed, directed):
    run_all_paths(
        CCProgram, None,
        lambda: uniform_random_graph(110, 170, directed=directed,
                                     seed=seed))


@pytest.mark.parametrize("seed", range(2))
def test_pagerank_all_paths(seed):
    run_all_paths(
        PageRankProgram, PageRankQuery(max_iterations=6),
        lambda: preferential_attachment(100, 3, seed=seed))


def test_sssp_large_diameter_all_paths():
    # The traffic-shaped regime: many supersteps, small frontiers.
    run_all_paths(SSSPProgram, 0, lambda: grid_road_graph(8, 8, seed=5),
                  workers=4)


def test_virtual_workers_all_paths():
    # m > n: several fragments share a physical worker (paper 3.1).
    run_all_paths(SSSPProgram, 0,
                  lambda: uniform_random_graph(120, 480, seed=11),
                  workers=2, num_fragments=6)


@pytest.mark.parametrize("make_program,query", [
    (SSSPProgram, 0), (BFSProgram, 0), (CCProgram, None),
    (PageRankProgram, PageRankQuery(max_iterations=5))])
def test_fault_schedule_is_backend_invariant(make_program, query):
    # PEval of fragment 2 and the first IncEval of fragment 1 crash.
    run_under_faults(make_program, query,
                     lambda: uniform_random_graph(90, 260, directed=False,
                                                  seed=6),
                     [(1, 2), (2, 1)], workers=4)
