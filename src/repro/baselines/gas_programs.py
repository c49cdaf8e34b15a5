"""GAS programs for SSSP, CC, Sim and CF (the GraphLab recasts).

The paper's Exp-6 notes how GraphLab splits one sequential operation —
"collect the distances from the neighbors of a node and update" — into
separate Apply and Scatter functions; these programs show exactly that
decomposition.
"""

from __future__ import annotations

from math import inf
from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

import numpy as np

from repro.baselines.gas import GASProgram
from repro.graph.graph import Graph, Node

__all__ = [
    "SSSPGASProgram",
    "CCGASProgram",
    "SimGASProgram",
    "CFGASProgram",
]


class SSSPGASProgram(GASProgram):
    """Gather min over in-edges of ``dist(u) + w``; scatter on improvement."""

    gather_direction = "in"
    scatter_direction = "out"
    message_width = 8

    def init_value(self, graph: Graph, vertex: Node, query: Node) -> float:
        return 0.0 if vertex == query else inf

    def gather(self, graph: Graph, vertex: Node, nbr: Node, nbr_value: float,
               weight: float, query: Node) -> Optional[float]:
        if nbr_value == inf:
            return None
        return nbr_value + weight

    def merge(self, a: float, b: float) -> float:
        return min(a, b)

    def apply(self, graph: Graph, vertex: Node, value: float,
              acc: Optional[float], query: Node) -> float:
        if acc is None:
            return value
        return min(value, acc)


class CCGASProgram(GASProgram):
    """Gather min component id over all edges; scatter on change."""

    gather_direction = "both"
    scatter_direction = "both"
    message_width = 8

    def init_value(self, graph: Graph, vertex: Node, query: Any) -> Node:
        return vertex

    def gather(self, graph: Graph, vertex: Node, nbr: Node, nbr_value: Node,
               weight: float, query: Any) -> Node:
        return nbr_value

    def merge(self, a: Node, b: Node) -> Node:
        return min(a, b)

    def apply(self, graph: Graph, vertex: Node, value: Node,
              acc: Optional[Node], query: Any) -> Node:
        if acc is None:
            return value
        return min(value, acc)

    def finalize(self, graph: Graph, values: Dict[Node, Node],
                 query: Any) -> Dict[Node, Set[Node]]:
        buckets: Dict[Node, Set[Node]] = {}
        for v, cid in values.items():
            buckets.setdefault(cid, set()).add(v)
        return buckets


class SimGASProgram(GASProgram):
    """Graph simulation: gather successors' match sets, apply the
    simulation condition, scatter to predecessors on shrink.

    Vertex value: frozenset of query nodes this vertex may match.
    """

    gather_direction = "out"   # pull match sets of successors
    scatter_direction = "in"   # wake predecessors when we shrink

    def init_value(self, graph: Graph, vertex: Node,
                   query: Graph) -> FrozenSet[Node]:
        label = graph.node_label(vertex)
        return frozenset(u for u in query.nodes()
                         if query.node_label(u) == label)

    def gather(self, graph: Graph, vertex: Node, nbr: Node,
               nbr_value: FrozenSet[Node], weight: float,
               query: Graph) -> Tuple[FrozenSet[Node], ...]:
        # Union of query nodes matched by at least one successor.
        return (nbr_value,)

    def merge(self, a: Tuple[FrozenSet[Node], ...],
              b: Tuple[FrozenSet[Node], ...]) -> Tuple[FrozenSet[Node], ...]:
        return a + b

    def apply(self, graph: Graph, vertex: Node, value: FrozenSet[Node],
              acc: Optional[Tuple[FrozenSet[Node], ...]],
              query: Graph) -> FrozenSet[Node]:
        succ_sets = acc or ()
        covered = frozenset().union(*succ_sets) if succ_sets else frozenset()
        kept = set()
        for u in value:
            # Simulation condition: every query edge (u, u2) must have some
            # successor matching u2 — i.e. u2 is covered.
            if all(u2 in covered for u2 in query.successors(u)):
                kept.add(u)
        return frozenset(kept)

    def finalize(self, graph: Graph, values: Dict[Node, FrozenSet[Node]],
                 query: Graph) -> Dict[Node, Set[Node]]:
        sim: Dict[Node, Set[Node]] = {u: set() for u in query.nodes()}
        for v, matches in values.items():
            for u in matches:
                sim[u].add(v)
        if any(not vs for vs in sim.values()):
            return {u: set() for u in query.nodes()}
        return sim


class CFGASProgram(GASProgram):
    """SGD collaborative filtering in GAS form.

    Vertex value: ``(factor tuple, epoch)``.  Gather pulls neighbor factors
    and ratings over both edge directions; apply folds them into an SGD
    step; scatter keeps both sides active until the epoch budget is spent.

    Query: a :class:`repro.pie_programs.cf.CFQuery`.
    """

    gather_direction = "both"
    scatter_direction = "both"

    def init_value(self, graph: Graph, vertex: Node, query) -> tuple:
        import random
        rng = random.Random((query.seed, vertex).__hash__())
        factor = tuple(rng.gauss(0.0, 0.1)
                       for _ in range(query.num_factors))
        return (factor, 0)

    def gather(self, graph: Graph, vertex: Node, nbr: Node, nbr_value: tuple,
               weight: float, query) -> tuple:
        return ((nbr_value[0], weight),)

    def merge(self, a: tuple, b: tuple) -> tuple:
        return a + b

    def apply(self, graph: Graph, vertex: Node, value: tuple,
              acc: Optional[tuple], query) -> tuple:
        factor, epoch = value
        if epoch >= query.max_epochs:
            return value
        lr, reg = query.learning_rate, query.regularization
        for other_f, rating in (acc or ()):
            pred = sum(a * b for a, b in zip(factor, other_f))
            err = rating - pred
            factor = tuple(
                f + lr * (err * o - reg * f)
                for f, o in zip(factor, other_f))
        return (factor, epoch + 1)

    def scatter_activates(self, graph: Graph, vertex: Node, old: tuple,
                          new: tuple, query) -> bool:
        return new[1] < query.max_epochs

    def finalize(self, graph: Graph, values: Dict[Node, tuple], query):
        return {v: np.asarray(f) for v, (f, _e) in values.items()}
