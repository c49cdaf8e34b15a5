"""PIE program for subgraph isomorphism (paper Section 5.1).

The paper's two-superstep scheme: first each fragment is extended with the
``d_Q``-neighborhood of its in-border nodes (data shipped through the
engine's preprocess channel, charged as communication), then VF2 runs
locally once.  No update parameters change, so the fixpoint terminates
after PEval; ``Assemble`` unions partial matches, deduplicating matches
found by several fragments.

Completeness relies on the locality of subgraph isomorphism for connected
patterns: a cross-fragment match contains an in-border node, and all its
nodes lie within ``d_Q`` undirected hops of it over the match's own edges
(which is why the shipped neighbourhood can be cut to label-compatible
nodes and edges, see :meth:`SubIsoProgram.preprocess`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.aggregators import DefaultExceptionAggregator
from repro.core.pie import ParamUpdates, PIEProgram
from repro.graph.graph import Graph, Node
from repro.partition.base import Fragment, Fragmentation
from repro.sequential.subiso import (canonical_match, pattern_diameter,
                                     vf2_all_matches)

__all__ = ["SubIsoProgram", "SubIsoState"]


@dataclass
class SubIsoState:
    """Per-fragment state: expanded graph and local matches."""

    expanded: Optional[Graph] = None
    matches: List[Dict[Node, Node]] = field(default_factory=list)


class SubIsoProgram(PIEProgram):
    """Query: a connected pattern graph.  Answer: list of match mappings."""

    name = "SubIso"
    aggregator = DefaultExceptionAggregator()

    def __init__(self, match_limit: Optional[int] = None):
        #: optional per-fragment cap on matches (SubIso is NP-complete)
        self.match_limit = match_limit

    # ------------------------------------------------------------------
    def init_state(self, query: Graph, fragment: Fragment) -> SubIsoState:
        return SubIsoState()

    def preprocess(self, query: Graph,
                   fragmentation: Fragmentation) -> Dict[int, tuple]:
        """Ship each fragment the part of the ``d_Q``-neighborhood of
        ``F_i.I`` a match can use: a semi-join reduction (Yannakakis).
        A match maps each pattern edge ``a -> b`` to a data edge labelled
        ``(L(a), L(b))``, so the BFS starts at in-border nodes with a
        pattern label and steps, and ships, only over such edges.  The
        payload holds only nodes and edges the fragment lacks; its
        serialized size is charged as communication.
        """
        d_q = pattern_diameter(query)
        graph = fragmentation.graph
        label = graph.node_label
        pairs = {(query.node_label(a), query.node_label(b))
                 for a in query.nodes() for b in query.successors(a)}
        labels = {query.node_label(a) for a in query.nodes()}

        def usable(v: Node):
            """``((tail, head, weight), other end)`` of each edge at ``v``
            whose label pair is a pattern edge's."""
            for w, weight in graph.successors_with_weights(v):
                if (label(v), label(w)) in pairs:
                    yield (v, w, weight), w
            for w, weight in graph.predecessors_with_weights(v):
                if (label(w), label(v)) in pairs:
                    yield (w, v, weight), w

        payloads: Dict[int, tuple] = {}
        for frag in fragmentation:
            reach: Set[Node] = {v for v in frag.inner if label(v) in labels}
            frontier = deque((v, 0) for v in reach)
            while frontier:
                v, depth = frontier.popleft()
                if depth == d_q:
                    continue
                for _, w in usable(v):
                    if w not in reach:
                        reach.add(w)
                        frontier.append((w, depth + 1))
            local = frag.graph
            new_nodes = [(v, label(v)) for v in reach
                         if not local.has_node(v)]
            known = reach | set(local.nodes())
            new_edges = {edge[:2]: edge for v in reach
                         for edge, w in usable(v)
                         if w in known and not local.has_edge(*edge[:2])}
            if new_nodes or new_edges:
                payloads[frag.fid] = (new_nodes, list(new_edges.values()))
        return payloads

    def apply_preprocess(self, query: Graph, fragment: Fragment,
                         state: SubIsoState, payload: tuple) -> None:
        new_nodes, new_edges = payload
        expanded = fragment.graph.copy()
        for v, label in new_nodes:
            expanded.add_node(v, label)
        for u, v, w in new_edges:
            if expanded.has_node(u) and expanded.has_node(v):
                expanded.add_edge(u, v, weight=w)
        state.expanded = expanded

    # ------------------------------------------------------------------
    def peval(self, query: Graph, fragment: Fragment,
              state: SubIsoState) -> None:
        graph = state.expanded if state.expanded is not None \
            else fragment.graph
        state.matches = vf2_all_matches(query, graph,
                                        limit=self.match_limit)

    def inceval(self, query: Graph, fragment: Fragment, state: SubIsoState,
                message: ParamUpdates) -> None:
        """Never invoked: the id variables never change (paper: "IncEval
        sends no messages ... executed once")."""

    def read_update_params(self, query: Graph, fragment: Fragment,
                           state: SubIsoState) -> ParamUpdates:
        return {}

    def assemble(self, query: Graph, fragmentation: Fragmentation,
                 states: Dict[int, SubIsoState]) -> List[Dict[Node, Node]]:
        seen = set()
        result: List[Dict[Node, Node]] = []
        for frag in fragmentation:
            for match in states[frag.fid].matches:
                key = canonical_match(match)
                if key not in seen:
                    seen.add(key)
                    result.append(match)
        return result
