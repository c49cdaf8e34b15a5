"""The four benchmark workloads and their generated inputs.

A workload fixes a graph, a partition strategy, an executor backend, a set
of standing queries and a stream of update batches.  The driver compares
runs made on different seeds, so what a run costs must not depend on its
seed — and on these inputs it would:

* another graph seed moves a served SSSP query by up to 50% (another Metis
  cut, another superstep count), so the graph and the query sources
  ("slots") are constants of the workload;
* which edges an update batch touches, and how far it moves their weights,
  decides how large the affected regions of the standing queries are: the
  median mixed batch differs by 7-20% between independently drawn streams,
  so the stream of edges and weights is a constant of the workload too —
  and a periodic one, so that every batch recurs and is compared with
  itself (see :class:`BatchGen`).

``--seed`` jitters every weight a batch draws by +-2% and shuffles the
order the read slots are visited in: every batch changes with the seed,
which batches are expensive does not.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro import EngineConfig, GraphDelta, get_strategy
from repro.graph.generators import (grid_road_graph, preferential_attachment,
                                    uniform_random_graph)
from repro.graph.graph import Graph

#: seed of every workload's graph generator and slot choice (a constant
#: of the benchmark, like the graph sizes)
GRAPH_SEED = 20170514

#: 32-op monotone batch: inserts + weight decreases
INSERT_BATCH = {"insert": 12, "decrease": 20}
#: 32-op non-monotone batch (the PR 8 bounded path): 45% deletes, 30%
#: weight increases, 25% inserts
MIXED_BATCH = {"delete": 14, "increase": 10, "insert": 8}
#: one insert batch and two mixed batches insert as many edges as they
#: delete (28) and lower as many weights as they raise (20)
CYCLE = ("insert", "mixed", "mixed")
#: cycles after which the update stream has undone every change it made
#: and starts over — 4 recurring insert batches, 8 recurring mixed batches
#: — and the update cycles of one round: every round starts on the initial
#: graph and replays the same schedule
PERIOD_CYCLES = 4
#: how far ``--seed`` moves each weight a batch draws
WEIGHT_JITTER = 0.02

NUM_FRAGMENTS = 4
READ_SLOTS = 4
GRAPH_NAME = "g"

Edge = Tuple[Any, Any]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_graph: Callable[[bool], Graph]
    partition: str
    backend: str
    num_workers: int
    #: standing queries maintained under every update batch
    watches: Tuple[str, ...]
    #: ``store_compact_threshold`` (None = the store's default)
    compact_threshold: Optional[int]
    #: weights drawn for inserted and re-weighted edges
    weight_range: Tuple[float, float]

    def engine_config(self, backend: Any = None) -> EngineConfig:
        """The shared engine config; ``backend`` overrides the workload's
        backend name with an owned backend instance."""
        return EngineConfig(num_workers=self.num_workers,
                            num_fragments=NUM_FRAGMENTS,
                            partition=get_strategy(self.partition),
                            backend=backend or self.backend)


def _social(smoke: bool) -> Graph:
    n = 160 if smoke else 6000
    return preferential_attachment(n, 4, directed=False, seed=GRAPH_SEED)


def _road(smoke: bool) -> Graph:
    side = 16 if smoke else 120
    return grid_road_graph(side, side, seed=GRAPH_SEED)


def _churn(smoke: bool) -> Graph:
    n, m = (150, 450) if smoke else (4000, 12000)
    return uniform_random_graph(n, m, directed=False, seed=GRAPH_SEED)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="social-hashcut",
        why="power-law graph hash-cut into ~20k border entries and few "
            "supersteps: core.engine's coordinator (fold, compose, byte "
            "accounting) does most of the work, the kernels little",
        make_graph=_social, partition="hash", backend="serial",
        num_workers=4, watches=("sssp", "cc"),
        compact_threshold=None, weight_range=(0.1, 1.0)),
    Workload(
        name="road-lowcut",
        why="road grid Metis-cut into ~1.6k border entries and many "
            "supersteps: fragment-local compute (pie_programs, kernels, "
            "graph.csr) dominates; the bypass workload for border-plane work",
        make_graph=_road, partition="metis", backend="serial",
        num_workers=4, watches=("sssp", "cc"),
        compact_threshold=None, weight_range=(1.0, 10.0)),
    Workload(
        name="road-process",
        why="road-lowcut's graph, partition and schedule on the process "
            "backend with 2 workers: the difference isolates "
            "runtime.executors and runtime.shm",
        make_graph=_road, partition="metis", backend="process",
        num_workers=2, watches=("sssp", "cc"),
        compact_threshold=None, weight_range=(1.0, 10.0)),
    Workload(
        name="churn-durable",
        why="uniform graph under 12 update batches per round with three "
            "standing queries and a small WAL: writes beside reads, so "
            "store, core.updates and eager update-time work show at full size",
        make_graph=_churn, partition="hash", backend="serial",
        num_workers=4, watches=("sssp", "bfs", "cc"),
        compact_threshold=4 * 1024, weight_range=(0.05, 1.0)),
)}


def read_slots(graph: Graph, count: int = READ_SLOTS) -> List[Any]:
    """The fixed SSSP/BFS sources of a workload."""
    rng = random.Random(GRAPH_SEED)
    return rng.sample(sorted(graph.nodes()), count)


def graph_digest(graph: Graph) -> str:
    return f"{graph.content_hash():016x}"


class BatchGen:
    """A periodic stream of update batches that churns the graph around
    its initial state.

    One period is ``PERIOD_CYCLES`` balanced cycles (one insert batch, two
    mixed batches each).  In the first half every operation is drawn
    fresh: new edges that close a two-hop path — a road between nearby
    junctions, a tie between friends of friends — deletions and weight
    changes of initial edges nothing else has touched.  In the second half
    every operation undoes one of the first half, oldest first: an
    inserted edge is deleted again, a deleted edge comes back at its old
    weight, a lowered weight is raised back and a raised one lowered back.
    A cycle inserts as many edges as it deletes and lowers as many weights
    as it raises, so the second half has exactly the operations it needs:
    after a period the graph is the initial graph again and the same
    batches are applied once more.

    Two things follow.  The live graph is always the initial graph plus
    at most a period's worth of pending changes, however long the run, so
    warm reads cost the same in every round (without this the weight
    decreases of each monotone batch pile up into shortcuts that move SSSP
    superstep counts by ten percent over a run).  And every batch is a
    fixed input that recurs — a *slot*, like an SSSP source — so an update
    metric is the mean of its slots' medians and does not depend on which
    batches a run of a given length happens to reach: what a batch costs
    spreads +-45 % from batch to batch (the affected regions of the
    standing queries), which made the median over all batches of a run
    move 5-12 % between identical runs while each batch compared with
    itself repeats within 3 %.

    The whole period is drawn at construction against a private copy of
    the graph; the caller applies each batch it is handed.
    """

    def __init__(self, graph: Graph, seed: int,
                 weight_range: Tuple[float, float]):
        #: which edges a batch touches and roughly which weights it
        #: writes: the workload's own stream
        self.rng = random.Random(GRAPH_SEED)
        #: the run's seed: a +-2 % jitter on every weight drawn
        self.jitter = random.Random(seed)
        self.weight_range = weight_range
        self.graph = graph.copy()
        self.nodes = sorted(graph.nodes())
        self.edges: List[Edge] = [(u, v) for u, v, _w in graph.edges()]
        #: pending changes, oldest first
        self.inserted: Deque[Edge] = deque()
        self.deleted: Deque[Tuple[Any, Any, float]] = deque()
        self.lowered: Deque[Tuple[Any, Any, float]] = deque()
        self.raised: Deque[Tuple[Any, Any, float]] = deque()
        #: edges with a pending change: fresh draws leave them alone
        self.busy: Set[Edge] = set()
        #: the period: ``(kind, batch)`` by slot
        self.period: List[Tuple[str, GraphDelta]] = []
        for cycle in range(PERIOD_CYCLES):
            for kind in CYCLE:
                delta = self._draw_batch(kind, cycle < PERIOD_CYCLES // 2)
                delta.normalize(self.graph).apply_to(self.graph)
                self.period.append((kind, delta))
        #: batches handed out so far
        self.batches = 0

    # -- draws ---------------------------------------------------------
    def _draw(self, low: float, high: float) -> float:
        """A value from the workload's stream, moved by the seed's jitter
        (one draw from each generator, in this order)."""
        drawn = self.rng.uniform(low, high)
        return drawn * self.jitter.uniform(1.0 - WEIGHT_JITTER,
                                           1.0 + WEIGHT_JITTER)

    def _is_busy(self, u: Any, v: Any) -> bool:
        return (u, v) in self.busy or (v, u) in self.busy

    def _existing(self) -> Edge:
        """A uniformly drawn edge of the initial graph with no pending
        change (so it exists, at its initial weight)."""
        while True:
            u, v = self.rng.choice(self.edges)
            if not self._is_busy(u, v):
                self.busy.add((u, v))
                return u, v

    def _fresh(self) -> Edge:
        g, rng = self.graph, self.rng
        while True:
            u = rng.choice(self.nodes)
            first = list(g.neighbors(u))
            if not first:
                continue
            v = rng.choice(list(g.neighbors(rng.choice(first))))
            if (v != u and not g.has_edge(u, v) and not g.has_edge(v, u)
                    and not self._is_busy(u, v)):
                self.busy.add((u, v))
                return u, v

    def _insert(self, delta: GraphDelta, fresh: bool) -> None:
        if fresh:
            u, v = self._fresh()
            self.inserted.append((u, v))
            weight = self._draw(*self.weight_range)
        else:
            u, v, weight = self.deleted.popleft()
        delta.insert(u, v, weight)

    def _delete(self, delta: GraphDelta, fresh: bool) -> None:
        if fresh:
            u, v = self._existing()
            self.deleted.append((u, v, self.graph.edge_weight(u, v)))
        else:
            u, v = self.inserted.popleft()
        delta.delete(u, v)

    def _reweight(self, delta: GraphDelta, fresh: bool,
                  factor: Tuple[float, float],
                  record: Deque[Tuple[Any, Any, float]],
                  undo: Deque[Tuple[Any, Any, float]]) -> None:
        if fresh:
            u, v = self._existing()
            old = self.graph.edge_weight(u, v)
            record.append((u, v, old))
            weight = old * self._draw(*factor)
        else:
            u, v, weight = undo.popleft()
        delta.set_weight(u, v, weight)

    def _draw_batch(self, kind: str, fresh: bool) -> GraphDelta:
        delta = GraphDelta()
        if kind == "insert":  # monotone: inserts and weight decreases only
            for _ in range(INSERT_BATCH["insert"]):
                self._insert(delta, fresh)
            for _ in range(INSERT_BATCH["decrease"]):
                self._reweight(delta, fresh, (0.5, 0.9), self.lowered,
                               self.raised)
        else:  # non-monotone: deletes, weight increases, some inserts
            for _ in range(MIXED_BATCH["delete"]):
                self._delete(delta, fresh)
            for _ in range(MIXED_BATCH["increase"]):
                self._reweight(delta, fresh, (1.1, 2.0), self.raised,
                               self.lowered)
            for _ in range(MIXED_BATCH["insert"]):
                self._insert(delta, fresh)
        return delta

    # -- the stream ----------------------------------------------------
    def next_batch(self) -> Tuple[int, str, GraphDelta]:
        """The next ``(slot, kind, batch)`` of the endless periodic
        stream; the caller applies it before asking for another."""
        slot = self.batches % len(self.period)
        self.batches += 1
        return (slot, *self.period[slot])

    def digest(self) -> str:
        """Hash of every batch of the period (the seed's fingerprint)."""
        digest = hashlib.sha256()
        for _kind, delta in self.period:
            digest.update(repr(delta.ops).encode())
        return digest.hexdigest()[:16]
