"""Core graph data structure used throughout the GRAPE reproduction.

The paper (Section 2) works with graphs ``G = (V, E, L)``, directed or
undirected, where every node and edge may carry a label.  Edges may in
addition carry a numeric weight (used by SSSP and collaborative filtering).

``Graph`` is a mutable adjacency-list structure tuned for the access
patterns of the sequential algorithms in :mod:`repro.sequential`:

* ``successors(v)`` / ``predecessors(v)`` in O(out-degree) / O(in-degree);
* O(1) membership tests for nodes and edges.

For read-heavy numeric kernels a frozen CSR snapshot is available via
:meth:`Graph.to_csr` (see :mod:`repro.graph.csr`).
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Any, Callable, Dict, Hashable, Iterator, Set, Tuple

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = ["DeferredGraph", "Graph", "Node", "Edge"]


class Graph:
    """A directed or undirected labeled, weighted graph.

    Undirected graphs are stored as symmetric directed graphs: adding edge
    ``(u, v)`` also records ``(v, u)``, and both orientations share the same
    label and weight.  ``num_edges`` counts each undirected edge once.

    Parameters
    ----------
    directed:
        Whether edges are one-way.  Defaults to ``True`` (the paper's SSSP,
        Sim and SubIso use directed graphs; CC uses undirected).
    """

    __slots__ = ("directed", "_succ", "_pred", "_node_labels", "_edge_labels",
                 "_num_edges", "_fill")

    def __init__(self, directed: bool = True):
        self.directed = directed
        # node -> dict(successor -> weight)
        self._succ: Dict[Node, Dict[Node, float]] = {}
        self._pred: Dict[Node, Dict[Node, float]] = {}
        self._node_labels: Dict[Node, Any] = {}
        self._edge_labels: Dict[Edge, Any] = {}
        # The adjacency rows are the only per-edge store (a weight lives
        # in ``_succ[u][v]``): a second, tuple-keyed table of every edge
        # is one the collector re-walks in full after each insertion.
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, v: Node, label: Any = None) -> None:
        """Add node ``v`` (idempotent); set its label if given."""
        if v not in self._succ:
            self._succ[v] = {}
            self._pred[v] = {}
        if label is not None:
            self._node_labels[v] = label

    def add_edge(self, u: Node, v: Node, weight: float = 1.0,
                 label: Any = None) -> None:
        """Add edge ``(u, v)``; endpoints are created if missing.

        Re-adding an existing edge overwrites its weight and label.
        """
        self.add_node(u)
        self.add_node(v)
        is_new = v not in self._succ[u]
        self._succ[u][v] = weight
        self._pred[v][u] = weight
        if label is not None:
            self._edge_labels[(u, v)] = label
        if not self.directed:
            self._succ[v][u] = weight
            self._pred[u][v] = weight
            if label is not None:
                self._edge_labels[(v, u)] = label
        if is_new:
            self._num_edges += 1

    def _count_edges(self) -> None:
        """Recount after adjacency rows were filled directly: an undirected
        edge is stored in both orientations, a self loop in one."""
        stored = sum(map(len, self._succ.values()))
        self._num_edges = stored if self.directed else (
            stored + sum(u in row for u, row in self._succ.items())) // 2

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``(u, v)``; raises ``KeyError`` if absent."""
        del self._succ[u][v]
        del self._pred[v][u]
        self._edge_labels.pop((u, v), None)
        if not self.directed:
            self._succ[v].pop(u, None)
            self._pred[u].pop(v, None)
            self._edge_labels.pop((v, u), None)
        self._num_edges -= 1

    def set_edge_weight(self, u: Node, v: Node, weight: float) -> None:
        """Reweight existing edge ``(u, v)``; raises ``KeyError`` if absent.

        Unlike :meth:`add_edge` this never creates nodes or edges, so
        update pipelines can use it to assert the edge's existence while
        changing its weight (both orientations for undirected graphs).
        """
        if not self.has_edge(u, v):
            raise KeyError((u, v))
        self._succ[u][v] = weight
        self._pred[v][u] = weight
        if not self.directed:
            self._succ[v][u] = weight
            self._pred[u][v] = weight

    def remove_node(self, v: Node) -> None:
        """Remove ``v`` and every incident edge."""
        for u in list(self._pred[v]):
            self.remove_edge(u, v)
        for w in list(self._succ.get(v, ())):
            self.remove_edge(v, w)
        self._succ.pop(v, None)
        self._pred.pop(v, None)
        self._node_labels.pop(v, None)

    def set_node_label(self, v: Node, label: Any) -> None:
        if v not in self._succ:
            raise KeyError(v)
        self._node_labels[v] = label

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Directed edge count; undirected edges are counted once."""
        return self._num_edges

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate ``(u, v, weight)``; undirected edges appear once."""
        if self.directed:
            for u, nbrs in self._succ.items():
                for v, w in nbrs.items():
                    yield u, v, w
        else:
            # Both orientations of an undirected edge are stored; emit
            # each edge from the endpoint visited first.  A node whose
            # row was already iterated is in ``done``, so the reverse
            # orientation is skipped without allocating a per-edge key.
            done: Set[Node] = set()
            for u, nbrs in self._succ.items():
                for v, w in nbrs.items():
                    if v not in done:
                        yield u, v, w
                done.add(u)

    def has_node(self, v: Node) -> bool:
        return v in self._succ

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._succ and v in self._succ[u]

    def successors(self, v: Node) -> Iterator[Node]:
        return iter(self._succ[v])

    def predecessors(self, v: Node) -> Iterator[Node]:
        return iter(self._pred[v])

    def neighbors(self, v: Node) -> Iterator[Node]:
        """Successors and predecessors, without duplicates."""
        if not self.directed:
            return iter(self._succ[v])
        return iter(dict.fromkeys(chain(self._succ[v], self._pred[v])))

    def out_degree(self, v: Node) -> int:
        return len(self._succ[v])

    def in_degree(self, v: Node) -> int:
        return len(self._pred[v])

    def degree(self, v: Node) -> int:
        if self.directed:
            return len(self._succ[v]) + len(self._pred[v])
        return len(self._succ[v])

    def node_label(self, v: Node, default: Any = None) -> Any:
        return self._node_labels.get(v, default)

    def edge_label(self, u: Node, v: Node, default: Any = None) -> Any:
        return self._edge_labels.get((u, v), default)

    def edge_weight(self, u: Node, v: Node) -> float:
        return self._succ[u][v]

    def successors_with_weights(self, v: Node) -> Iterator[Tuple[Node, float]]:
        return iter(self._succ[v].items())

    def predecessors_with_weights(self, v: Node) -> Iterator[Tuple[Node, float]]:
        return iter(self._pred[v].items())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        dup = Graph(directed=self.directed)
        for v in self._succ:
            dup.add_node(v, self._node_labels.get(v))
        for u, v, w in self.edges():
            dup.add_edge(u, v, weight=w, label=self._edge_labels.get((u, v)))
        return dup

    def to_csr(self):
        """Frozen CSR snapshot; see :class:`repro.graph.csr.CSRGraph`."""
        from repro.graph.csr import CSRGraph
        return CSRGraph.from_graph(self)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def content_hash(self) -> int:
        """Cheap order-independent 64-bit hash of the graph's full content.

        Two graphs that compare ``==`` (same directedness, nodes, edges,
        labels and weights — ``1 == 1.0`` and ``-0.0 == 0.0`` included)
        hash equal whatever order their nodes and edges were inserted
        in, and a change to any one of those fields changes the hash.
        A snapshot stores it, and its loader recomputes it from the
        arrays (:func:`~repro.graph.csr.union_hash`): an integrity
        check, not a cryptographic digest.  Ids and labels enter as
        their ``repr``, so the hash is as stable across processes and
        ``PYTHONHASHSEED`` values as that is; weights as float64.
        """
        return self.to_csr().content_hash(self._edge_labels)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, v: Node) -> bool:
        return v in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (f"Graph({kind}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")

    def __eq__(self, other: object) -> bool:
        """Structural equality: same nodes, edges, labels and weights."""
        if not isinstance(other, Graph):
            return NotImplemented
        if self.directed != other.directed or self._succ != other._succ:
            return False
        labels, theirs = self._node_labels, other._node_labels
        mine, others = self._edge_labels, other._edge_labels
        return (all(labels.get(v) == theirs.get(v) for v in self._succ)
                and all(mine.get(e) == others.get(e)
                        for e in mine.keys() | others.keys()))

    def __hash__(self):  # mutable: identity hash
        return id(self)


class DeferredGraph(Graph):
    """A :class:`Graph` whose dicts ``fill`` builds on first use: the
    first read of an attribute but ``directed`` or ``_edge_labels`` (set
    up front; the fill adds to them) runs it once on a fresh
    :class:`Graph`, installs that graph's dicts and turns this into a
    plain :class:`Graph`, hook gone (one on :class:`Graph` would slow
    every slot read).  Fills hold one re-entrant lock (a fill may read
    other deferred graphs): a racing reader waits or sees complete
    dicts; a fill that raises leaves the graph deferred.  Pickling and
    ``copy`` fill first; ``materialised`` counts fills in this process
    and those the process backend's workers report.
    """

    __slots__ = ()
    _lock = threading.RLock()
    materialised = 0

    def __init__(self, directed: bool, fill: Callable[[Graph], None],
                 edge_labels: Dict[Edge, Any] | None = None):
        self.directed = directed
        self._fill = fill
        self._edge_labels = dict(edge_labels or ())

    def __getattr__(self, name: str) -> Any:  # an unset slot: not built
        with DeferredGraph._lock:
            if type(self) is DeferredGraph:
                built = Graph(self.directed)
                built._edge_labels = self._edge_labels
                self._fill(built)
                for slot in ("_succ", "_pred", "_node_labels", "_num_edges"):
                    setattr(self, slot, getattr(built, slot))
                del self._fill
                self.__class__ = Graph
                DeferredGraph.materialised += 1
        return object.__getattribute__(self, name)

    def __reduce_ex__(self, protocol):
        self._succ  # noqa: B018 -- fill, then reduce as a plain Graph
        return self.__reduce_ex__(protocol)
