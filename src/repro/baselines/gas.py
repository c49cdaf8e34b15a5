"""GAS engine — the GraphLab stand-in (synchronous mode, as in the paper).

PowerGraph/GraphLab decompose a vertex program into **gather** (pull data
along edges), **apply** (update the vertex), and **scatter** (signal
neighbors).  The paper ran GraphLab synchronously for comparability with
Giraph; we do the same: per superstep, every active vertex gathers over
its gather-direction edges, applies, and scatters activation signals.

Communication accounting mirrors a distributed GAS system: a gather across
a worker boundary ships the neighbor's value; a scatter activation across
a boundary ships a signal (with the scatterer's value, as GraphLab's cached
"most recent value" protocol does).

SubIso does not decompose into gather/apply/scatter (it needs arbitrary
partial-match messages); like published GraphLab evaluations, we run it
with the message-passing escape hatch — :func:`run_subiso_on_gas` executes
the vertex-centric expansion with GAS-style pull accounting.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.baselines.vertex_centric import PregelEngine
from repro.baselines.vertex_programs import SubIsoVertexProgram
from repro.graph.graph import Graph, Node
from repro.runtime.message import stable_hash
from repro.runtime.metrics import CostModel, RunMetrics
from repro.runtime.wire import vertex_message_bytes

__all__ = ["GASProgram", "GASEngine", "GASResult", "run_subiso_on_gas"]


class GASProgram(abc.ABC):
    """A gather-apply-scatter vertex program."""

    #: which edges gather pulls over: "in", "out" or "both"
    gather_direction = "in"
    #: which edges scatter signals over: "in", "out" or "both"
    scatter_direction = "out"
    #: bytes of one vertex value when values are fixed-width scalars
    #: (see :func:`repro.runtime.wire.vertex_message_bytes`); ``None``
    #: prices shipped values by pickling them
    message_width: Optional[int] = None

    @abc.abstractmethod
    def init_value(self, graph: Graph, vertex: Node, query: Any) -> Any:
        """Vertex value before the first superstep (all vertices start
        active)."""

    @abc.abstractmethod
    def gather(self, graph: Graph, vertex: Node, nbr: Node, nbr_value: Any,
               weight: float, query: Any) -> Any:
        """Contribution of one neighbor; ``None`` contributions are
        skipped."""

    @abc.abstractmethod
    def merge(self, a: Any, b: Any) -> Any:
        """Commutative-associative combiner for gather contributions."""

    @abc.abstractmethod
    def apply(self, graph: Graph, vertex: Node, value: Any, acc: Any,
              query: Any) -> Any:
        """New vertex value from the gathered accumulator (``None`` when
        no neighbor contributed)."""

    def scatter_activates(self, graph: Graph, vertex: Node, old: Any,
                          new: Any, query: Any) -> bool:
        """Whether to signal scatter-direction neighbors this superstep."""
        return old != new

    def finalize(self, graph: Graph, values: Dict[Node, Any],
                 query: Any) -> Any:
        return values


@dataclass
class GASResult:
    answer: Any
    values: Dict[Node, Any]
    metrics: RunMetrics


def _edges(graph: Graph, vertex: Node, direction: str):
    if direction in ("in", "both"):
        for u, w in graph.predecessors_with_weights(vertex):
            yield u, w
    if direction in ("out", "both"):
        for u, w in graph.successors_with_weights(vertex):
            yield u, w


class GASEngine:
    """Synchronous gather-apply-scatter on simulated BSP workers."""

    def __init__(self, num_workers: int, *,
                 cost_model: Optional[CostModel] = None,
                 max_supersteps: int = 1_000_000):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.cost_model = cost_model
        self.max_supersteps = max_supersteps

    def _worker_of(self, v: Node) -> int:
        return stable_hash(v) % self.num_workers

    def run(self, program: GASProgram, graph: Graph,
            query: Any = None) -> GASResult:
        metrics = RunMetrics()
        by_worker: List[List[Node]] = [[] for _ in range(self.num_workers)]
        for v in graph.nodes():
            by_worker[self._worker_of(v)].append(v)

        values: Dict[Node, Any] = {v: program.init_value(graph, v, query)
                                   for v in graph.nodes()}
        active: Set[Node] = set(graph.nodes())
        superstep = 0
        pending_bytes = 0
        pending_msgs = 0

        while active:
            if superstep >= self.max_supersteps:
                raise RuntimeError("GAS program did not quiesce within "
                                   f"{self.max_supersteps} supersteps")
            next_active: Set[Node] = set()
            step_bytes = 0
            step_msgs = 0
            # Stage the new values: sync GAS applies against a snapshot.
            staged: Dict[Node, Any] = {}

            def make_task(wid: int):
                def task():
                    nonlocal step_bytes, step_msgs
                    for v in by_worker[wid]:
                        if v not in active:
                            continue
                        acc = None
                        for nbr, w in _edges(graph, v,
                                             program.gather_direction):
                            contrib = program.gather(graph, v, nbr,
                                                     values[nbr], w, query)
                            if contrib is None:
                                continue
                            # Cross-worker gather ships the neighbor value.
                            if self._worker_of(nbr) != wid:
                                step_bytes += vertex_message_bytes(
                                    values[nbr], program.message_width)
                                step_msgs += 1
                            acc = contrib if acc is None \
                                else program.merge(acc, contrib)
                        new_value = program.apply(graph, v, values[v], acc,
                                                  query)
                        staged[v] = new_value
                        if program.scatter_activates(graph, v, values[v],
                                                     new_value, query):
                            for nbr, _w in _edges(
                                    graph, v, program.scatter_direction):
                                next_active.add(nbr)
                                if self._worker_of(nbr) != wid:
                                    step_bytes += vertex_message_bytes(
                                        new_value, program.message_width)
                                    step_msgs += 1
                return task

            metrics.run_superstep([make_task(w)
                                   for w in range(self.num_workers)],
                                  self.num_workers, pending_bytes,
                                  pending_msgs, self.cost_model)
            values.update(staged)
            pending_bytes = step_bytes
            pending_msgs = step_msgs
            active = next_active
            superstep += 1

        answer = program.finalize(graph, values, query)
        return GASResult(answer=answer, values=values, metrics=metrics)


def run_subiso_on_gas(graph: Graph, query: Graph, num_workers: int, *,
                      cost_model: Optional[CostModel] = None):
    """SubIso on the GraphLab stand-in.

    GAS cannot express partial-match expansion, so — as GraphLab
    deployments do — this falls back to message passing; the pull-style
    accounting of GraphLab is approximated by the same cross-worker byte
    counting the vertex engine uses.
    """
    engine = PregelEngine(num_workers, cost_model=cost_model)
    return engine.run(SubIsoVertexProgram(), graph, query=query)
