"""Synchronous vertex-centric engine (Pregel/Giraph stand-in).

The paper compares GRAPE against Giraph, the open-source Pregel (Section 7).
This module reproduces that baseline faithfully:

* "think like a vertex": a user :class:`VertexProgram` implements
  ``compute`` over one vertex, its value and incoming messages;
* BSP supersteps with a barrier; a vertex is active when it has incoming
  messages or has not voted to halt;
* optional sender-side combiners (Pregel §4.2), used by SSSP/CC exactly as
  a tuned Giraph deployment would;
* vertices are hash-partitioned over workers; messages between vertices on
  different workers are charged as network communication, intra-worker
  messages are free (Pregel's local short-circuit).

The engine records each superstep with
:meth:`~repro.runtime.metrics.RunMetrics.run_superstep`, under the BSP
cost rule GRAPE's rounds use, so supersteps, bytes and messages are
directly comparable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.graph import Graph, Node
from repro.runtime.message import stable_hash
from repro.runtime.metrics import RunMetrics
from repro.runtime.wire import vertex_message_bytes

__all__ = ["VertexProgram", "VertexContext", "PregelEngine", "PregelResult"]


class VertexContext:
    """Per-vertex API surface inside ``compute``."""

    __slots__ = ("superstep", "_out", "_halted", "vertex")

    def __init__(self, superstep: int, vertex: Node):
        self.superstep = superstep
        self.vertex = vertex
        self._out: List[Tuple[Node, Any]] = []
        self._halted = False

    def send(self, dest: Node, message: Any) -> None:
        """Send ``message`` to vertex ``dest`` (delivered next superstep)."""
        self._out.append((dest, message))

    def send_to_all(self, dests: Iterable[Node], message: Any) -> None:
        for dest in dests:
            self._out.append((dest, message))

    def vote_to_halt(self) -> None:
        """Deactivate this vertex until a message wakes it."""
        self._halted = True


class VertexProgram(abc.ABC):
    """A Pregel vertex program for one query class."""

    #: bytes of one message value when messages are fixed-width scalars
    #: (priced by the wire model GRAPE's parameters use, see
    #: :func:`repro.runtime.wire.vertex_message_bytes`); ``None`` prices
    #: messages by pickling them
    message_width: Optional[int] = None

    @abc.abstractmethod
    def init_value(self, graph: Graph, vertex: Node, query: Any) -> Any:
        """The vertex value before superstep 0."""

    @abc.abstractmethod
    def compute(self, ctx: VertexContext, graph: Graph, vertex: Node,
                value: Any, messages: List[Any], query: Any) -> Any:
        """One superstep at one vertex; returns the new vertex value."""

    def combine(self, messages: List[Any]) -> List[Any]:
        """Optional sender-side combiner: fold messages addressed to one
        destination vertex.  Default: no combining."""
        return messages

    def finalize(self, graph: Graph, values: Dict[Node, Any],
                 query: Any) -> Any:
        """Turn final vertex values into the query answer."""
        return values


@dataclass
class PregelResult:
    answer: Any
    values: Dict[Node, Any]
    metrics: RunMetrics


class PregelEngine:
    """Synchronous vertex-centric execution on simulated BSP workers.

    Parameters
    ----------
    num_workers:
        Physical workers; vertices are assigned by ``placement`` or hash.
    placement:
        Optional vertex-to-worker map (used by the block-centric baseline
        to make intra-block traffic free); defaults to hash placement.
    intra_worker_free:
        Whether same-worker messages cost no network bytes (Pregel's
        behaviour; the block-centric engine reuses this machinery with
        block-aligned placement).
    """

    def __init__(self, num_workers: int, *,
                 placement: Optional[Dict[Node, int]] = None,
                 intra_worker_free: bool = True,
                 max_supersteps: int = 1_000_000):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.placement = placement
        self.intra_worker_free = intra_worker_free
        self.max_supersteps = max_supersteps

    # ------------------------------------------------------------------
    def _worker_of(self, v: Node) -> int:
        if self.placement is not None:
            return self.placement[v]
        return stable_hash(v) % self.num_workers

    def run(self, program: VertexProgram, graph: Graph,
            query: Any = None) -> PregelResult:
        """Run ``program`` to quiescence (all halted, no messages)."""
        metrics = RunMetrics()
        by_worker: List[List[Node]] = [[] for _ in range(self.num_workers)]
        for v in graph.nodes():
            by_worker[self._worker_of(v)].append(v)

        values: Dict[Node, Any] = {v: program.init_value(graph, v, query)
                                   for v in graph.nodes()}
        halted: Set[Node] = set()
        inbox: Dict[Node, List[Any]] = {}
        superstep = 0
        pending_bytes = 0   # traffic routed by the previous superstep,
        pending_msgs = 0    # charged to the superstep that delivers it

        while True:
            if superstep > 0 and not inbox and len(halted) == len(values):
                break  # quiescence: everyone halted, nothing in flight
            if superstep >= self.max_supersteps:
                raise RuntimeError(
                    "vertex program did not quiesce within "
                    f"{self.max_supersteps} supersteps")

            outboxes: List[List[Tuple[Node, Any]]] = \
                [[] for _ in range(self.num_workers)]

            def make_task(wid: int):
                def task():
                    out = outboxes[wid]
                    for v in by_worker[wid]:
                        msgs = inbox.get(v)
                        if msgs is None and v in halted:
                            continue
                        ctx = VertexContext(superstep, v)
                        values[v] = program.compute(
                            ctx, graph, v, values[v], msgs or [], query)
                        if ctx._halted:
                            halted.add(v)
                        else:
                            halted.discard(v)
                        out.extend(ctx._out)
                return task

            metrics.run_superstep([make_task(w)
                                   for w in range(self.num_workers)],
                                  self.num_workers, pending_bytes,
                                  pending_msgs)

            # Route: sender-side combine per destination vertex, then
            # charge cross-worker traffic.
            new_inbox: Dict[Node, List[Any]] = {}
            pending_bytes = 0
            pending_msgs = 0
            for wid in range(self.num_workers):
                per_dest: Dict[Node, List[Any]] = {}
                for dest, msg in outboxes[wid]:
                    per_dest.setdefault(dest, []).append(msg)
                for dest, msgs in per_dest.items():
                    msgs = program.combine(msgs)
                    new_inbox.setdefault(dest, []).extend(msgs)
                    crosses = self._worker_of(dest) != wid
                    if crosses or not self.intra_worker_free:
                        pending_bytes += vertex_message_bytes(
                            msgs, program.message_width, len(msgs))
                        pending_msgs += len(msgs)

            inbox = new_inbox
            superstep += 1

        answer = program.finalize(graph, values, query)
        return PregelResult(answer=answer, values=values, metrics=metrics)
