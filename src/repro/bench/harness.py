"""Experiment harness: one entry point per (system, query class).

This reproduces the paper's evaluation protocol (Section 7): the same
query batch runs on GRAPE, the vertex-centric engine ("giraph"), the GAS
engine ("graphlab") and the block-centric engine ("blogel"); each run
reports response time, communication volume and supersteps under the one
BSP cost rule of :class:`~repro.runtime.metrics.RunMetrics`, so the
cross-system comparisons of Figs. 6, 8 and 9 and Table 1 come from
identical inputs and identical accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.baselines.block_centric import (BlogelEngine, CCBlockProgram,
                                           SSSPBlockProgram, run_vcompute)
from repro.baselines.gas import GASEngine, run_subiso_on_gas
from repro.baselines.gas_programs import (CCGASProgram, CFGASProgram,
                                          SimGASProgram, SSSPGASProgram)
from repro.baselines.vertex_centric import PregelEngine
from repro.baselines.vertex_programs import (CCVertexProgram,
                                             CFVertexProgram,
                                             SimVertexProgram,
                                             SSSPVertexProgram,
                                             SubIsoVertexProgram)
from repro.core.engine import GrapeEngine
from repro.graph.graph import Graph
from repro.partition.strategies import MetisLikePartition
from repro.pie_programs import (CCProgram, CFProgram, CFQuery, SimProgram,
                                SSSPProgram, SubIsoProgram)
from repro.runtime.metrics import CostModel, RunMetrics

__all__ = ["SYSTEMS", "QUERY_CLASSES", "BenchResult", "run_queries",
           "sweep_workers"]

SYSTEMS = ("grape", "giraph", "graphlab", "blogel")
QUERY_CLASSES = ("sssp", "cc", "sim", "subiso", "cf")


@dataclass
class BenchResult:
    """Aggregated metrics for one (system, query class, n) cell."""

    system: str
    query_class: str
    num_workers: int
    time_s: float = 0.0
    comm_mb: float = 0.0
    supersteps: int = 0
    num_queries: int = 0
    answers: List[Any] = field(default_factory=list)

    def add(self, metrics: RunMetrics, answer: Any) -> None:
        self.time_s += metrics.parallel_time_s
        self.comm_mb += metrics.comm_megabytes
        self.supersteps += metrics.supersteps
        self.num_queries += 1
        self.answers.append(answer)

    @property
    def avg_time_s(self) -> float:
        return self.time_s / max(1, self.num_queries)

    @property
    def avg_comm_mb(self) -> float:
        return self.comm_mb / max(1, self.num_queries)

    @property
    def avg_supersteps(self) -> float:
        return self.supersteps / max(1, self.num_queries)


def _run_grape(query_class: str, graph: Graph, queries: Sequence[Any],
               num_workers: int, *, incremental: bool = True,
               candidate_index=None,
               cost_model: Optional[CostModel] = None) -> BenchResult:
    programs = {
        "sssp": lambda: SSSPProgram(),
        "cc": lambda: CCProgram(),
        "sim": lambda: SimProgram(candidate_index=candidate_index),
        "subiso": lambda: SubIsoProgram(),
        "cf": lambda: CFProgram(),
    }
    engine = GrapeEngine(num_workers, partition=MetisLikePartition(),
                         incremental=incremental, cost_model=cost_model)
    # Partitioned once for all queries (paper Section 3.1); partitioning
    # happens at load time and is not charged to queries.
    fragmentation = engine.make_fragmentation(graph)
    name = "grape" if incremental else "grape-ni"
    result = BenchResult(name, query_class, num_workers)
    for query in queries:
        program = programs[query_class]()
        run = engine.run(program, query, fragmentation=fragmentation)
        result.add(run.metrics, run.answer)
    return result


def _run_giraph(query_class: str, graph: Graph, queries: Sequence[Any],
                num_workers: int,
                cost_model: Optional[CostModel] = None) -> BenchResult:
    programs = {
        "sssp": SSSPVertexProgram,
        "cc": CCVertexProgram,
        "sim": SimVertexProgram,
        "subiso": SubIsoVertexProgram,
        "cf": CFVertexProgram,
    }
    engine = PregelEngine(num_workers, cost_model=cost_model)
    result = BenchResult("giraph", query_class, num_workers)
    for query in queries:
        run = engine.run(programs[query_class](), graph, query=query)
        result.add(run.metrics, run.answer)
    return result


def _run_graphlab(query_class: str, graph: Graph, queries: Sequence[Any],
                  num_workers: int,
                  cost_model: Optional[CostModel] = None) -> BenchResult:
    programs = {
        "sssp": SSSPGASProgram,
        "cc": CCGASProgram,
        "sim": SimGASProgram,
        "cf": CFGASProgram,
    }
    result = BenchResult("graphlab", query_class, num_workers)
    for query in queries:
        if query_class == "subiso":
            run = run_subiso_on_gas(graph, query, num_workers,
                                    cost_model=cost_model)
        else:
            engine = GASEngine(num_workers, cost_model=cost_model)
            run = engine.run(programs[query_class](), graph, query=query)
        result.add(run.metrics, run.answer)
    return result


def _run_blogel(query_class: str, graph: Graph, queries: Sequence[Any],
                num_workers: int,
                cost_model: Optional[CostModel] = None) -> BenchResult:
    result = BenchResult("blogel", query_class, num_workers)
    if query_class == "sssp":
        engine = BlogelEngine(num_workers, cost_model=cost_model)
        fragmentation = engine.make_fragmentation(graph)
        for query in queries:
            run = engine.run(SSSPBlockProgram(), graph, query=query,
                             fragmentation=fragmentation)
            result.add(run.metrics, run.answer)
    elif query_class == "cc":
        engine = BlogelEngine(num_workers, cost_model=cost_model,
                              precompute_cc=True)
        fragmentation = engine.make_fragmentation(graph)
        for query in queries:
            run = engine.run(CCBlockProgram(), graph, query=query,
                             fragmentation=fragmentation)
            result.add(run.metrics, run.answer)
    else:
        vprograms = {"sim": SimVertexProgram, "subiso": SubIsoVertexProgram,
                     "cf": CFVertexProgram}
        for query in queries:
            run = run_vcompute(vprograms[query_class](), graph, query,
                               num_workers, cost_model=cost_model)
            result.add(run.metrics, run.answer)
    return result


_RUNNERS = {
    "grape": _run_grape,
    "giraph": _run_giraph,
    "graphlab": _run_graphlab,
    "blogel": _run_blogel,
}


def run_queries(system: str, query_class: str, graph: Graph,
                queries: Sequence[Any], num_workers: int,
                cost_model: Optional[CostModel] = None,
                **grape_opts) -> BenchResult:
    """Run a query batch on one system; see :data:`SYSTEMS`.

    ``grape_opts`` (``incremental``, ``candidate_index``) only apply to
    GRAPE runs (the Exp-2 / Exp-3 ablations).
    """
    if query_class not in QUERY_CLASSES:
        raise ValueError(f"unknown query class {query_class!r}")
    if system == "grape":
        return _run_grape(query_class, graph, queries, num_workers,
                          cost_model=cost_model, **grape_opts)
    if grape_opts:
        raise ValueError(f"{sorted(grape_opts)} only apply to grape runs")
    try:
        runner = _RUNNERS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; "
                         f"available: {SYSTEMS}") from None
    return runner(query_class, graph, queries, num_workers,
                  cost_model=cost_model)


def sweep_workers(systems: Sequence[str], query_class: str, graph: Graph,
                  queries: Sequence[Any], worker_counts: Sequence[int],
                  cost_model: Optional[CostModel] = None,
                  ) -> List[BenchResult]:
    """The paper's n-sweep (Figs. 6/8): every system at every n."""
    rows: List[BenchResult] = []
    for n in worker_counts:
        for system in systems:
            rows.append(run_queries(system, query_class, graph, queries, n,
                                    cost_model=cost_model))
    return rows
