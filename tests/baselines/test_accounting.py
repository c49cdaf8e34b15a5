"""The baseline engines' accounting, pinned: worker-count validation at
construction and the exact supersteps, bytes and messages of SSSP and CC
on one small seeded graph."""

import os
import subprocess
import sys

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


# Pregel and GAS place vertex v on worker stable_hash(v) % workers
@pytest.mark.parametrize("engine,query,supersteps,comm_bytes,messages", [
    ("pregel", "sssp", 9, 3104, 97),
    ("pregel", "cc", 8, 7360, 230),
    ("gas", "sssp", 8, 8864, 277),
    ("gas", "cc", 7, 42688, 1334),
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


def test_placement_is_stable_across_hash_seeds():
    """Pregel and GAS place vertices by ``stable_hash``, not builtin
    ``hash``: on tuple node ids (the ratings graph's) their counts are
    the same under every ``PYTHONHASHSEED``."""
    code = (
        "from repro.baselines import *;"
        "from repro.graph.generators import uniform_random_graph;"
        "from repro.graph.graph import Graph;"
        "g = uniform_random_graph(40, 60, directed=False, seed=7);"
        "t = Graph(directed=False);"
        "[t.add_edge((u, 'x'), (v, 'x'), weight=w) for u, v, w in g.edges()];"
        "ms = [E(3).run(P(), t, (0, 'x')).metrics for E, P in ("
        "(PregelEngine, SSSPVertexProgram), (GASEngine, SSSPGASProgram))];"
        "print([(m.supersteps, m.comm_bytes, m.comm_messages) for m in ms])")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    procs = [subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))
        for seed in ("0", "1", "2")]
    outputs = {proc.communicate(timeout=120)[0] for proc in procs}
    assert [proc.returncode for proc in procs] == [0, 0, 0]
    assert len(outputs) == 1
