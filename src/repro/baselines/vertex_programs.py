"""Vertex programs for the five query classes (the "recast" algorithms).

These are the Giraph-style rewrites the paper contrasts with PIE programs
(Fig. 10 shows the SSSP one).  Note how every algorithm's logic had to be
broken apart into per-vertex message handlers — the ease-of-programming
point of Exp-6.
"""

from __future__ import annotations

from math import inf
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.baselines.vertex_centric import VertexContext, VertexProgram
from repro.graph.graph import Graph, Node
from repro.sequential.subiso import _match_order, canonical_match

__all__ = [
    "SSSPVertexProgram",
    "CCVertexProgram",
    "SimVertexProgram",
    "SubIsoVertexProgram",
    "CFVertexProgram",
]


class SSSPVertexProgram(VertexProgram):
    """Paper Fig. 10: min over incoming distances, relax out-edges.

    Query: the source node.  Uses a min combiner, as a tuned Giraph job
    would.
    """

    message_width = 8

    def init_value(self, graph: Graph, vertex: Node, query: Node) -> float:
        return inf

    def compute(self, ctx: VertexContext, graph: Graph, vertex: Node,
                value: float, messages: List[float], query: Node) -> float:
        mindist = 0.0 if vertex == query and ctx.superstep == 0 else inf
        for m in messages:
            mindist = min(mindist, m)
        if mindist < value:
            value = mindist
            for nbr, w in graph.successors_with_weights(vertex):
                ctx.send(nbr, mindist + w)
        ctx.vote_to_halt()
        return value

    def combine(self, messages: List[float]) -> List[float]:
        return [min(messages)] if messages else messages

    def finalize(self, graph: Graph, values: Dict[Node, float],
                 query: Node) -> Dict[Node, float]:
        return values


class CCVertexProgram(VertexProgram):
    """Classic min-label propagation for connected components."""

    message_width = 8

    def init_value(self, graph: Graph, vertex: Node, query: Any) -> Node:
        return vertex

    def compute(self, ctx: VertexContext, graph: Graph, vertex: Node,
                value: Node, messages: List[Node], query: Any) -> Node:
        candidate = min(messages) if messages else value
        if ctx.superstep == 0 or candidate < value:
            value = min(value, candidate)
            ctx.send_to_all(graph.neighbors(vertex), value)
        ctx.vote_to_halt()
        return value

    def combine(self, messages: List[Node]) -> List[Node]:
        return [min(messages)] if messages else messages

    def finalize(self, graph: Graph, values: Dict[Node, Node],
                 query: Any) -> Dict[Node, Set[Node]]:
        buckets: Dict[Node, Set[Node]] = {}
        for v, cid in values.items():
            buckets.setdefault(cid, set()).add(v)
        return buckets


class SimVertexProgram(VertexProgram):
    """Vertex-centric graph simulation.

    Each data vertex keeps (a) the set of query nodes it may still match
    and (b) a cache of its successors' match sets.  When a vertex's match
    set shrinks it notifies its *predecessors*, which re-evaluate — the
    per-edge chatter GRAPE avoids by running HHK whole-fragment.

    Vertex value: ``(matches, successor_cache)``.
    """

    def init_value(self, graph: Graph, vertex: Node,
                   query: Graph) -> Tuple[Set[Node], Dict[Node, frozenset]]:
        label = graph.node_label(vertex)
        matches = {u for u in query.nodes() if query.node_label(u) == label}
        return matches, {}

    def _reevaluate(self, graph: Graph, vertex: Node, matches: Set[Node],
                    cache: Dict[Node, frozenset], query: Graph) -> Set[Node]:
        kept = set()
        for u in matches:
            ok = True
            for u2 in query.successors(u):
                found = any(u2 in cache.get(w, frozenset())
                            for w in graph.successors(vertex))
                if not found:
                    ok = False
                    break
            if ok:
                kept.add(u)
        return kept

    def compute(self, ctx: VertexContext, graph: Graph, vertex: Node,
                value: Tuple[Set[Node], Dict[Node, frozenset]],
                messages: List[Tuple[Node, frozenset]],
                query: Graph) -> Tuple[Set[Node], Dict[Node, frozenset]]:
        matches, cache = value
        if ctx.superstep == 0:
            # Broadcast the initial match set to all predecessors and
            # optimistically assume successors match everything they could.
            for w in graph.successors(vertex):
                w_label = graph.node_label(w)
                cache[w] = frozenset(
                    u for u in query.nodes()
                    if query.node_label(u) == w_label)
            new_matches = self._reevaluate(graph, vertex, matches, cache,
                                           query)
            if new_matches != matches:
                # Predecessors assumed the optimistic label-based set;
                # only refinements carry information.
                for p in graph.predecessors(vertex):
                    ctx.send(p, (vertex, frozenset(new_matches)))
            ctx.vote_to_halt()
            return new_matches, cache

        for w, match_set in messages:
            cache[w] = match_set
        new_matches = self._reevaluate(graph, vertex, matches, cache, query)
        if new_matches != matches:
            for p in graph.predecessors(vertex):
                ctx.send(p, (vertex, frozenset(new_matches)))
        ctx.vote_to_halt()
        return new_matches, cache

    def finalize(self, graph: Graph, values: Dict[Node, Any],
                 query: Graph) -> Dict[Node, Set[Node]]:
        sim: Dict[Node, Set[Node]] = {u: set() for u in query.nodes()}
        for v, (matches, _cache) in values.items():
            for u in matches:
                sim[u].add(v)
        if any(not vs for vs in sim.values()):
            return {u: set() for u in query.nodes()}
        return sim


class SubIsoVertexProgram(VertexProgram):
    """Vertex-centric subgraph isomorphism by partial-match expansion.

    Superstep ``k`` extends partial matches by the ``k``-th pattern node of
    a connectivity-first order: the vertex holding the anchor forwards the
    partial match along its adjacency, and receivers verify labels and the
    pattern edges incident to themselves.  Complete matches accumulate in
    the final vertex's value — and every partial match is a message, which
    is why SubIso floods vertex-centric systems with traffic.
    """

    def init_value(self, graph: Graph, vertex: Node,
                   query: Graph) -> List[Dict[Node, Node]]:
        return []

    def _order(self, query: Graph) -> List[Node]:
        return _match_order(query)

    def _feasible(self, graph: Graph, query: Graph, u: Node, v: Node,
                  partial: Dict[Node, Node]) -> bool:
        if graph.node_label(v) != query.node_label(u):
            return False
        if v in partial.values():
            return False
        for u2 in query.successors(u):
            if u2 in partial and not graph.has_edge(v, partial[u2]):
                return False
        for u2 in query.predecessors(u):
            if u2 in partial and not graph.has_edge(partial[u2], v):
                return False
        return True

    def _forward(self, ctx: VertexContext, graph: Graph, query: Graph,
                 order: List[Node], partial: Dict[Node, Node],
                 value: List[Dict[Node, Node]], vertex: Node) -> None:
        """Extend ``partial`` by the next pattern node: record it when
        complete, fan out when this vertex is the anchor, else route the
        partial to the anchor vertex (tagged "fanout")."""
        depth = len(partial)
        if depth == len(order):
            value.append(dict(partial))
            return
        u_next = order[depth]
        pos = {u: i for i, u in enumerate(order)}
        anchors_out = [w for w in query.successors(u_next)
                       if pos.get(w, 1 << 30) < depth]
        anchors_in = [w for w in query.predecessors(u_next)
                      if pos.get(w, 1 << 30) < depth]
        if anchors_out:
            # pattern edge u_next -> anchor: candidates are the anchor
            # vertex's predecessors, which only the anchor knows.
            anchor_v = partial[anchors_out[0]]
            if anchor_v == vertex:
                for cand in graph.predecessors(anchor_v):
                    ctx.send(cand, ("extend", dict(partial)))
            else:
                ctx.send(anchor_v, ("fanout", dict(partial)))
        elif anchors_in:
            anchor_v = partial[anchors_in[0]]
            if anchor_v == vertex:
                for cand in graph.successors(anchor_v):
                    ctx.send(cand, ("extend", dict(partial)))
            else:
                ctx.send(anchor_v, ("fanout", dict(partial)))
        else:
            raise ValueError("pattern must be connected for vertex-centric "
                             "SubIso")

    def compute(self, ctx: VertexContext, graph: Graph, vertex: Node,
                value: List[Dict[Node, Node]],
                messages: List[Tuple[str, Dict[Node, Node]]],
                query: Graph) -> List[Dict[Node, Node]]:
        order = self._order(query)
        if ctx.superstep == 0:
            root = order[0]
            if self._feasible(graph, query, root, vertex, {}):
                self._forward(ctx, graph, query, order, {root: vertex},
                              value, vertex)
            ctx.vote_to_halt()
            return value

        for kind, partial in messages:
            if kind == "fanout":
                self._forward(ctx, graph, query, order, partial, value,
                              vertex)
                continue
            depth = len(partial)
            if depth >= len(order):
                continue
            u_next = order[depth]
            if self._feasible(graph, query, u_next, vertex, partial):
                extended = dict(partial)
                extended[u_next] = vertex
                self._forward(ctx, graph, query, order, extended, value,
                              vertex)
        ctx.vote_to_halt()
        return value

    def finalize(self, graph: Graph, values: Dict[Node, Any],
                 query: Graph) -> List[Dict[Node, Node]]:
        seen = set()
        out: List[Dict[Node, Node]] = []
        for v, matches in values.items():
            for match in matches:
                key = canonical_match(match)
                if key not in seen:
                    seen.add(key)
                    out.append(match)
        return out


class CFVertexProgram(VertexProgram):
    """Vertex-centric SGD collaborative filtering (the Giraph built-in the
    paper compares against).

    Even supersteps: users push ``(factor, rating)`` along rating edges;
    odd supersteps: items fold all incoming pairs into an SGD update and
    push their factor back.  Runs ``2 * max_epochs`` supersteps.

    Query: a :class:`repro.pie_programs.cf.CFQuery`.
    Vertex value: the factor vector as a tuple.
    """

    def init_value(self, graph: Graph, vertex: Node, query) -> tuple:
        import random
        rng = random.Random((query.seed, vertex).__hash__())
        return tuple(rng.gauss(0.0, 0.1) for _ in range(query.num_factors))

    @staticmethod
    def _axpy(f: tuple, g: tuple, lr: float) -> tuple:
        return tuple(a + lr * b for a, b in zip(f, g))

    def _sgd_fold(self, value: tuple, incoming, lr: float,
                  reg: float) -> tuple:
        for other_f, rating in incoming:
            pred = sum(a * b for a, b in zip(value, other_f))
            err = rating - pred
            grad = tuple(err * o - reg * s for o, s in zip(other_f, value))
            value = self._axpy(value, grad, lr)
        return value

    def compute(self, ctx: VertexContext, graph: Graph, vertex: Node,
                value: tuple, messages: List[Tuple[tuple, float]],
                query) -> tuple:
        epoch = ctx.superstep // 2
        if epoch >= query.max_epochs:
            ctx.vote_to_halt()
            return value
        is_user = graph.out_degree(vertex) > 0
        if ctx.superstep % 2 == 0:
            if messages:  # item replies from the previous epoch
                value = self._sgd_fold(value, messages,
                                       query.learning_rate,
                                       query.regularization)
            if is_user:
                for item, rating in graph.successors_with_weights(vertex):
                    ctx.send(item, (value, rating))
            ctx.vote_to_halt()
        else:
            if messages:
                value = self._sgd_fold(value, messages,
                                       query.learning_rate,
                                       query.regularization)
                for user, rating in graph.predecessors_with_weights(vertex):
                    ctx.send(user, (value, rating))
            ctx.vote_to_halt()
        return value

    def finalize(self, graph: Graph, values: Dict[Node, tuple], query):
        import numpy as np
        return {v: np.asarray(f) for v, f in values.items()}
