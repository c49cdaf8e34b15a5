"""The baseline engines' accounting, pinned: worker-count validation at
construction and the exact supersteps, bytes and messages of SSSP and CC
on one small seeded graph."""

import pytest

from repro.baselines import (BlogelEngine, CCBlockProgram, CCGASProgram,
                             CCVertexProgram, GASEngine, PregelEngine,
                             SSSPBlockProgram, SSSPGASProgram,
                             SSSPVertexProgram)
from repro.graph.generators import uniform_random_graph
from repro.sequential import connected_components, sssp_distances

ENGINES = {"pregel": PregelEngine, "gas": GASEngine, "blogel": BlogelEngine}
PROGRAMS = {
    ("pregel", "sssp"): SSSPVertexProgram, ("pregel", "cc"): CCVertexProgram,
    ("gas", "sssp"): SSSPGASProgram, ("gas", "cc"): CCGASProgram,
    ("blogel", "sssp"): SSSPBlockProgram, ("blogel", "cc"): CCBlockProgram,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_worker_count_checked_at_construction(engine):
    with pytest.raises(ValueError, match="need at least one worker"):
        ENGINES[engine](0)


@pytest.mark.parametrize("engine,query,supersteps,comm_bytes,messages", [
    ("pregel", "sssp", 9, 2944, 92),
    ("pregel", "cc", 8, 6880, 215),
    ("gas", "sssp", 8, 9184, 287),
    ("gas", "cc", 7, 43904, 1372),
    ("blogel", "sssp", 5, 1312, 41),
    ("blogel", "cc", 3, 2208, 69),
])
def test_accounting_is_pinned(engine, query, supersteps, comm_bytes,
                              messages):
    graph = uniform_random_graph(40, 60, directed=False, seed=7)
    if query == "sssp":
        source, expected = 0, sssp_distances(graph, 0)
    else:
        source, expected = None, {}
        for v, cid in connected_components(graph).items():
            expected.setdefault(cid, set()).add(v)
    result = ENGINES[engine](3).run(PROGRAMS[engine, query](), graph,
                                    source)
    metrics = result.metrics
    assert result.answer == expected
    assert (metrics.supersteps, metrics.comm_bytes,
            metrics.comm_messages) == (supersteps, comm_bytes, messages)
    assert metrics.backend == "serial"
