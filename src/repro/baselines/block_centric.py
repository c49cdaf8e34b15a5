"""Block-centric engine — the Blogel stand-in (paper [50]).

Blogel extends vertex-centric programming with *B-compute*: each block (a
connected partition of the graph) acts as a virtual vertex running a local
sequential pass per superstep, exchanging per-vertex border messages with
other blocks.  Two Blogel behaviours matter for the paper's comparison:

* **B-compute without incremental reuse** — when new border values arrive,
  a Blogel block re-runs its local computation seeded with current state
  (Fig. 11's recast Dijkstra), whereas GRAPE's IncEval touches only the
  affected area; and border updates are shipped per vertex without the
  coordinator's min-aggregation, so Blogel ships more bytes than GRAPE.
* **CC precomputation at partition time** — Blogel's partitioner groups
  vertices by connected component *before* queries run, which is why its
  CC numbers look near-zero (paper Exp-1(2)); :class:`BlogelEngine` with
  ``precompute_cc=True`` reproduces this, and like the paper we exclude
  the precomputation from query cost.

For Sim, SubIso and CF the paper observes that Blogel's programming is
"essentially vertex-centric" (V-compute); :func:`run_vcompute` executes a
vertex program with block-aligned placement so intra-block messages are
free — Blogel's one structural advantage over Giraph for these queries.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from math import inf
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.baselines.vertex_centric import PregelEngine, PregelResult, \
    VertexProgram
from repro.graph.graph import Graph, Node
from repro.partition.base import Fragment, Fragmentation, PartitionStrategy
from repro.partition.strategies import MetisLikePartition
from repro.runtime.metrics import CostModel, RunMetrics
from repro.runtime.wire import vertex_message_bytes
from repro.sequential.sssp import dijkstra
from repro.sequential.wcc import connected_components

__all__ = ["BlockProgram", "BlogelEngine", "BlogelResult",
           "SSSPBlockProgram", "CCBlockProgram", "run_vcompute"]


class BlockProgram(abc.ABC):
    """A Blogel B-compute program over one block (fragment)."""

    #: bytes of one border-message value when values are fixed-width
    #: scalars (see :func:`repro.runtime.wire.vertex_message_bytes`);
    #: ``None`` prices messages by pickling them
    message_width: Optional[int] = None

    @abc.abstractmethod
    def init_state(self, block: Fragment, query: Any) -> Any:
        """Block-local state before the first superstep."""

    @abc.abstractmethod
    def bcompute(self, block: Fragment, state: Any,
                 incoming: List[Tuple[Node, Any]], gp,
                 query: Any) -> List[Tuple[int, Node, Any]]:
        """One block superstep.

        ``incoming`` is a list of ``(vertex, value)`` border messages; ``gp``
        is the fragmentation graph for routing.  Returns outgoing
        ``(dest_block, vertex, value)`` triples.  A block halts by sending
        nothing (woken by incoming messages).
        """

    @abc.abstractmethod
    def output(self, block: Fragment, state: Any, query: Any) -> Any:
        """Block-local piece of the answer."""

    @abc.abstractmethod
    def combine_outputs(self, pieces: List[Any], query: Any) -> Any:
        """Assemble block outputs into the query answer."""


@dataclass
class BlogelResult:
    answer: Any
    metrics: RunMetrics


class BlogelEngine:
    """Block-centric execution; one block per worker.

    ``precompute_cc=True`` replaces the partition strategy's assignment
    with a connected-component-aligned one (Blogel's partitioner), with
    components distributed round-robin by size.  As in the paper, that
    precomputation happens at graph-loading time and is not charged to
    queries.
    """

    def __init__(self, num_workers: int, *,
                 partition: Optional[PartitionStrategy] = None,
                 cost_model: Optional[CostModel] = None,
                 precompute_cc: bool = False,
                 max_supersteps: int = 1_000_000):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.partition = partition or MetisLikePartition()
        self.cost_model = cost_model
        self.precompute_cc = precompute_cc
        self.max_supersteps = max_supersteps

    # ------------------------------------------------------------------
    def make_fragmentation(self, graph: Graph) -> Fragmentation:
        if not self.precompute_cc:
            return self.partition.partition(graph, self.num_workers)
        # Blogel's partitioner: vertices of one component stay together.
        cids = connected_components(graph)
        by_component: Dict[Node, List[Node]] = {}
        for v, cid in cids.items():
            by_component.setdefault(cid, []).append(v)
        loads = [0] * self.num_workers
        assignment: Dict[Node, int] = {}
        for cid in sorted(by_component, key=lambda c: -len(by_component[c])):
            target = min(range(self.num_workers), key=lambda w: loads[w])
            for v in by_component[cid]:
                assignment[v] = target
            loads[target] += len(by_component[cid])
        from repro.partition.base import build_edge_cut_fragments
        return build_edge_cut_fragments(graph, assignment, self.num_workers,
                                        strategy_name="blogel-cc")

    # ------------------------------------------------------------------
    def run(self, program: BlockProgram, graph: Graph, query: Any = None,
            fragmentation: Optional[Fragmentation] = None) -> BlogelResult:
        if fragmentation is None:
            fragmentation = self.make_fragmentation(graph)
        metrics = RunMetrics()
        blocks = fragmentation.fragments
        states = {b.fid: program.init_state(b, query) for b in blocks}

        inboxes: Dict[int, List[Tuple[Node, Any]]] = {
            b.fid: [] for b in blocks}
        active = set(b.fid for b in blocks)
        pending_bytes = 0
        pending_msgs = 0
        superstep = 0

        while active:
            if superstep >= self.max_supersteps:
                raise RuntimeError("block program did not quiesce")
            outgoing: Dict[int, List[Tuple[int, Node, Any]]] = {}

            def make_task(fid: int):
                def task():
                    if fid not in active:
                        return
                    incoming, inboxes[fid] = inboxes[fid], []
                    outgoing[fid] = program.bcompute(
                        blocks[fid], states[fid], incoming,
                        fragmentation.gp, query)
                return task

            metrics.run_superstep([make_task(b.fid) for b in blocks],
                                  self.num_workers, pending_bytes,
                                  pending_msgs, self.cost_model)

            pending_bytes = 0
            pending_msgs = 0
            next_active: Set[int] = set()
            for src, msgs in outgoing.items():
                for dest, vertex, value in msgs:
                    inboxes[dest].append((vertex, value))
                    next_active.add(dest)
                    if dest != src:
                        pending_bytes += vertex_message_bytes(
                            (vertex, value), program.message_width)
                        pending_msgs += 1
            active = next_active
            superstep += 1

        pieces = [program.output(b, states[b.fid], query) for b in blocks]
        return BlogelResult(answer=program.combine_outputs(pieces, query),
                            metrics=metrics)


class SSSPBlockProgram(BlockProgram):
    """Fig. 11's recast Dijkstra: per superstep, re-run the local Dijkstra
    seeded with all current distances (no incremental reuse), then ship
    improved border distances per vertex."""

    message_width = 8

    def init_state(self, block: Fragment, query: Node) -> Dict[str, Any]:
        return {"dist": {}, "sent": {}}

    def bcompute(self, block: Fragment, state: Dict[str, Any],
                 incoming: List[Tuple[Node, float]], gp,
                 query: Node) -> List[Tuple[int, Node, Any]]:
        dist = state["dist"]
        improved = False
        for v, d in incoming:
            if d < dist.get(v, inf):
                dist[v] = d
                improved = True
        if not improved and dist:
            return []
        # Full local recomputation — the B-compute cost GRAPE avoids.
        state["dist"] = dijkstra(block.graph, query, initial=dist)
        out: List[Tuple[int, Node, Any]] = []
        for v in block.outer:
            d = state["dist"].get(v, inf)
            if d < inf and d < state["sent"].get(v, inf):
                state["sent"][v] = d
                out.append((gp.owner(v), v, d))
        return out

    def output(self, block: Fragment, state: Dict[str, Any],
               query: Node) -> Dict[Node, float]:
        return {v: state["dist"].get(v, inf) for v in block.owned}

    def combine_outputs(self, pieces: List[Dict[Node, float]],
                        query: Node) -> Dict[Node, float]:
        answer: Dict[Node, float] = {}
        for piece in pieces:
            answer.update(piece)
        return answer


class CCBlockProgram(BlockProgram):
    """With Blogel's CC-aligned partition each block labels its vertices
    locally; messages flow only if a component straddles blocks."""

    message_width = 8

    def init_state(self, block: Fragment, query: Any) -> Dict[str, Any]:
        return {"cid": {}, "started": False}

    def bcompute(self, block: Fragment, state: Dict[str, Any],
                 incoming: List[Tuple[Node, Any]], gp,
                 query: Any) -> List[Tuple[int, Node, Any]]:
        first = not state["started"]
        if first:
            state["started"] = True
            state["cid"] = connected_components(block.graph)
        cids = state["cid"]
        changed: Set[Node] = set()
        for v, cid in incoming:
            if cid < cids.get(v, v):
                # Lower the whole local component containing v — a plain
                # scan, since B-compute has no root-link bookkeeping.
                old = cids[v]
                for w, c in cids.items():
                    if c == old:
                        cids[w] = cid
                        changed.add(w)
        border = block.border_nodes
        relevant = border if first else (changed & border)
        out: List[Tuple[int, Node, Any]] = []
        for v in relevant:
            for dest in gp.holders(v):
                if dest != block.fid:
                    out.append((dest, v, cids[v]))
        return out

    def output(self, block: Fragment, state: Dict[str, Any],
               query: Any) -> Dict[Node, Node]:
        return {v: state["cid"][v] for v in block.owned}

    def combine_outputs(self, pieces: List[Dict[Node, Node]],
                        query: Any) -> Dict[Node, Set[Node]]:
        buckets: Dict[Node, Set[Node]] = {}
        for piece in pieces:
            for v, cid in piece.items():
                buckets.setdefault(cid, set()).add(v)
        return buckets


def run_vcompute(vertex_program: VertexProgram, graph: Graph, query: Any,
                 num_workers: int, *,
                 partition: Optional[PartitionStrategy] = None,
                 cost_model: Optional[CostModel] = None) -> PregelResult:
    """Blogel V-compute: a vertex program with block-aligned placement.

    Vertices of a block live on one worker, so intra-block messages are
    free — Blogel's edge over plain Giraph for Sim/SubIso/CF.
    """
    strategy = partition or MetisLikePartition()
    placement = strategy.assign(graph, num_workers)
    engine = PregelEngine(num_workers, cost_model=cost_model,
                          placement=placement, intra_worker_free=True)
    return engine.run(vertex_program, graph, query=query)
