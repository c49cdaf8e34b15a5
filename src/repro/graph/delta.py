"""First-class graph update batches: ``ΔG = (ΔG⁺, ΔG⁻)``.

The paper's incremental machinery (Section 5's IncEval, Section 6's
"lightweight transaction controller ... to support not only queries but
also updates") is defined over *general* update batches — insertions,
deletions and attribute changes — not just monotone insertions.  This
module is the value type that carries such a batch through every layer
of the system:

* :class:`GraphDelta` — an ordered recorder of edge operations
  (``insert``, ``delete``, ``set_weight``), built by callers without a
  graph in hand;
* :class:`NormalizedDelta` — the same batch resolved against a concrete
  graph: deduped (last write per edge wins, undirected orientations
  unified), no-ops dropped, and every surviving change classified as a
  brand-new insertion, a weight decrease, a weight increase or a
  deletion.  Normalized deltas are **invertible** — :meth:`~NormalizedDelta.invert`
  returns the batch that undoes them — and carry the
  :attr:`~NormalizedDelta.monotone` predicate (per fragment, what
  decides whether maintenance seeds an affected region at all);
* :class:`FragmentDelta` — what one fragment actually absorbed when a
  normalized delta was applied to a fragmentation
  (:func:`repro.core.updates.apply_delta`): local edge mutations plus the
  border-set / ownership bookkeeping, **replayable** onto a remote copy
  of the fragment (the process backend ships these instead of whole
  fragments).

The monotone/non-monotone split mirrors the dynamic-query-answering
literature (Berkholz, Keppeler & Schweikardt, "Answering FO+MOD queries
under updates"): a monotone delta (new edges, weight decreases) can be
folded into a standing answer by resuming the IncEval fixpoint, while a
non-monotone one (deletions, weight increases) first resets the region
of converged values it may have raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.graph import Edge, Graph, Node

__all__ = ["FragmentDelta", "GraphDelta", "NormalizedDelta"]

#: recorded operations: ("+", u, v, w) insert / ("-", u, v) delete /
#: ("w", u, v, w) set weight
Op = Tuple


class GraphDelta:
    """An ordered batch of edge updates against some (future) graph.

    Operations are recorded verbatim and resolved only by
    :meth:`normalize` — so a delta can be built before the target graph
    is chosen, shipped around, and applied to several replicas.  Within a
    batch the *last* operation on an edge wins (for undirected targets,
    both orientations count as the same edge).

    ``insert`` and ``set_weight`` share one meaning — "this edge exists
    with this weight afterwards" — so re-inserting an existing edge is a
    weight change and setting the weight of a missing edge is an
    insertion.  The distinction that matters downstream (new edge,
    decrease, increase, deletion) is made by normalization against the
    concrete graph.
    """

    __slots__ = ("_ops",)

    def __init__(self, ops: Optional[Iterable[Op]] = None):
        self._ops: List[Op] = list(ops or ())

    # -- construction ---------------------------------------------------
    def insert(self, u: Node, v: Node, w: float = 1.0) -> "GraphDelta":
        """Record ``(u, v)`` present with weight ``w``; chainable."""
        self._ops.append(("+", u, v, float(w)))
        return self

    def delete(self, u: Node, v: Node) -> "GraphDelta":
        """Record ``(u, v)`` absent afterwards; chainable."""
        self._ops.append(("-", u, v))
        return self

    def set_weight(self, u: Node, v: Node, w: float) -> "GraphDelta":
        """Record ``(u, v)`` present with weight ``w``; chainable."""
        self._ops.append(("w", u, v, float(w)))
        return self

    @classmethod
    def from_insertions(cls, edges: Iterable[Tuple[Node, Node, float]]
                        ) -> "GraphDelta":
        return cls(("+", u, v, float(w)) for u, v, w in edges)

    @classmethod
    def from_deletions(cls, pairs: Iterable[Tuple[Node, Node]]
                       ) -> "GraphDelta":
        return cls(("-", u, v) for u, v in pairs)

    @classmethod
    def from_weight_changes(cls, triples: Iterable[Tuple[Node, Node, float]]
                            ) -> "GraphDelta":
        return cls(("w", u, v, float(w)) for u, v, w in triples)

    # -- resolution -----------------------------------------------------
    def normalize(self, graph: Graph) -> "NormalizedDelta":
        """Resolve this batch against ``graph`` (which is not mutated).

        Dedupes (last write per edge wins; for undirected graphs both
        orientations are one edge), drops exact no-ops (re-insert at the
        current weight, delete of an absent edge), and classifies every
        surviving change.  The result is what the rest of the pipeline
        consumes.
        """
        directed = graph.directed
        intents: Dict[Edge, Optional[float]] = {}
        order: List[Edge] = []
        for op in self._ops:
            kind, u, v = op[0], op[1], op[2]
            key = (u, v)
            if not directed and key not in intents and (v, u) in intents:
                key = (v, u)
            if key not in intents:
                order.append(key)
            intents[key] = None if kind == "-" else op[3]

        norm = NormalizedDelta(directed=directed)
        for key in order:
            u, v = key
            target = intents[key]
            exists = graph.has_edge(u, v)
            if target is None:
                if exists:
                    norm.deletions[key] = graph.edge_weight(u, v)
            elif not exists:
                norm.insertions[key] = target
            else:
                old = graph.edge_weight(u, v)
                if target < old:
                    norm.decreases[key] = (old, target)
                elif target > old:
                    norm.increases[key] = (old, target)
                # target == old: exact duplicate, a true no-op
        return norm

    # -- dunder ---------------------------------------------------------
    @property
    def ops(self) -> Tuple[Op, ...]:
        """The recorded operations, in order (read-only view)."""
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __add__(self, other: "GraphDelta") -> "GraphDelta":
        """Concatenate two batches (later ops still win on overlap)."""
        if not isinstance(other, GraphDelta):
            return NotImplemented
        return GraphDelta(self._ops + other._ops)

    def __repr__(self) -> str:
        kinds = {"+": 0, "-": 0, "w": 0}
        for op in self._ops:
            kinds[op[0]] += 1
        return (f"GraphDelta(inserts={kinds['+']}, deletes={kinds['-']}, "
                f"reweights={kinds['w']})")


@dataclass
class NormalizedDelta:
    """A deduped update batch classified against a concrete graph.

    The four categories are disjoint by construction; old weights are
    retained for ``decreases``/``increases``/``deletions`` so the delta
    is invertible.  ``monotone`` says whether a batch can seed an
    affected region at all: insertions and weight decreases can only *improve* the answers of
    inflationary fixpoints (shorter paths, merged components), while
    deletions and increases can invalidate them.
    """

    directed: bool = True
    #: brand-new edges -> weight
    insertions: Dict[Edge, float] = field(default_factory=dict)
    #: existing edges -> (old weight, new lower weight)
    decreases: Dict[Edge, Tuple[float, float]] = field(default_factory=dict)
    #: existing edges -> (old weight, new higher weight)
    increases: Dict[Edge, Tuple[float, float]] = field(default_factory=dict)
    #: removed edges -> their old weight
    deletions: Dict[Edge, float] = field(default_factory=dict)

    @property
    def has_deletions(self) -> bool:
        return bool(self.deletions)

    @property
    def has_weight_increases(self) -> bool:
        return bool(self.increases)

    @property
    def monotone(self) -> bool:
        """No deletions and no weight increases."""
        return not (self.deletions or self.increases)

    @property
    def num_changes(self) -> int:
        return (len(self.insertions) + len(self.decreases)
                + len(self.increases) + len(self.deletions))

    def __bool__(self) -> bool:
        return self.num_changes > 0

    def invert(self) -> GraphDelta:
        """The batch that undoes this one (edge set and weights only;
        nodes created by the forward application are left in place as
        isolated nodes)."""
        inv = GraphDelta()
        for (u, v), w in self.deletions.items():
            inv.insert(u, v, w)
        for (u, v), (old, _new) in chain(self.decreases.items(),
                                         self.increases.items()):
            inv.set_weight(u, v, old)
        for (u, v) in self.insertions:
            inv.delete(u, v)
        return inv

    # -- (de)serialization ----------------------------------------------
    def to_record(self) -> Tuple:
        """A compact plain-tuple form for the durable store's write-ahead
        log: ``(directed, insertions, decreases, increases, deletions)``
        as item tuples.  Stable under pickling (no dataclass module path
        baked into every WAL record) and round-tripped exactly by
        :meth:`from_record`."""
        return (self.directed,
                tuple(self.insertions.items()),
                tuple(self.decreases.items()),
                tuple(self.increases.items()),
                tuple(self.deletions.items()))

    @classmethod
    def from_record(cls, record: Tuple) -> "NormalizedDelta":
        """Rebuild a delta from :meth:`to_record` output."""
        directed, ins, dec, inc, dele = record
        return cls(directed=directed, insertions=dict(ins),
                   decreases=dict(dec), increases=dict(inc),
                   deletions=dict(dele))

    def apply_to(self, graph: Graph) -> None:
        """Apply to a bare :class:`Graph` (no fragmentation bookkeeping).

        Partitioned graphs go through
        :func:`repro.core.updates.apply_delta` instead, which keeps the
        fragments, border sets and ``G_P`` index in step.
        """
        for (u, v), w in self.insertions.items():
            graph.add_edge(u, v, weight=w)
        for (u, v), (_old, new) in chain(self.decreases.items(),
                                         self.increases.items()):
            graph.set_edge_weight(u, v, new)
        for (u, v) in self.deletions:
            graph.remove_edge(u, v)

    def __repr__(self) -> str:
        return (f"NormalizedDelta(+{len(self.insertions)}, "
                f"↓{len(self.decreases)}, ↑{len(self.increases)}, "
                f"-{len(self.deletions)}, monotone={self.monotone})")


@dataclass
class FragmentDelta:
    """What one fragment absorbed from an applied update batch.

    Produced by :func:`repro.core.updates.apply_delta` — one per touched
    fragment — and consumed in two places: PIE programs with the
    :class:`~repro.core.pie.Maintenance` hooks fold them into live
    per-fragment state (seeding the affected region from the old
    weights, nothing when every touched delta is ``monotone``); the
    process backend ships these, instead of whole fragments, to pooled
    workers whose copy lags by a few versions (:meth:`replay`).

    Edge lists are in the fragment's *local orientation*: for undirected
    graphs the symmetric orientation of a cross edge appears in the other
    endpoint's fragment delta, exactly as the edge-cut construction
    stores it.
    """

    fid: int
    #: fragmentation version this delta produced (assigned by
    #: :meth:`~repro.partition.base.Fragmentation.record_delta`)
    seq: int = 0
    #: brand-new local edges ``(u, v, w)``
    insertions: List[Tuple[Node, Node, float]] = field(default_factory=list)
    #: removed local edges ``(u, v, old weight)`` — the weight at deletion
    #: time, so programs can test whether a converged value was supported
    #: by the vanished edge (the bounded non-monotone IncEval path)
    deletions: List[Tuple[Node, Node, float]] = field(default_factory=list)
    #: reweighted local edges ``(u, v, old, new)``
    weight_changes: List[Tuple[Node, Node, float, float]] = \
        field(default_factory=list)
    #: nodes added to the local graph ``(v, label)`` (owned or mirror)
    new_nodes: List[Tuple[Node, Any]] = field(default_factory=list)
    #: mirror copies dropped because their last local edge was deleted
    retired_nodes: List[Node] = field(default_factory=list)
    owned_added: List[Node] = field(default_factory=list)
    inner_added: List[Node] = field(default_factory=list)
    inner_removed: List[Node] = field(default_factory=list)
    outer_added: List[Node] = field(default_factory=list)
    outer_removed: List[Node] = field(default_factory=list)

    # -- predicates -----------------------------------------------------
    @property
    def has_deletions(self) -> bool:
        return bool(self.deletions or self.retired_nodes)

    @property
    def has_weight_increases(self) -> bool:
        return any(new > old for _u, _v, old, new in self.weight_changes)

    @property
    def monotone(self) -> bool:
        """Insertions and weight decreases only — the fragment-local
        restriction of :attr:`NormalizedDelta.monotone`."""
        return not (self.has_deletions or self.has_weight_increases)

    @property
    def as_insertions(self) -> List[Tuple[Node, Node, float]]:
        """Insertions plus weight decreases viewed as ``(u, v, w)`` —
        the edges that can open shortcuts for inflationary programs."""
        return self.insertions + [(u, v, new)
                                  for u, v, old, new in self.weight_changes
                                  if new < old]

    @property
    def mutates_graph(self) -> bool:
        """Whether the local graph changed (vs border-set-only upkeep)."""
        return bool(self.insertions or self.deletions or self.weight_changes
                    or self.new_nodes or self.retired_nodes)

    def dirty_nodes(self) -> Set[Node]:
        """Every node whose local adjacency row this delta changed, added
        or removed — what the fragment's next CSR snapshot must re-read
        (:meth:`repro.partition.base.Fragment.invalidate_csr`)."""
        dirty = {v for v, _label in self.new_nodes}
        dirty.update(self.retired_nodes)
        for edge in chain(self.insertions, self.deletions,
                          self.weight_changes):
            dirty.add(edge[0])
            dirty.add(edge[1])
        return dirty

    def border_nodes(self) -> Set[Node]:
        """Every node whose border-set membership or ``G_P`` holders this
        delta changed — the rows of the
        :class:`~repro.partition.base.BorderIndex` it outdates."""
        return {v for v, _label in self.new_nodes}.union(
            self.retired_nodes, *self.border_edits)

    @property
    def border_edits(self) -> Tuple[List[Node], ...]:
        """The nodes that joined or left ``F_i.I`` / ``F_i.O``."""
        return (self.inner_added, self.inner_removed,
                self.outer_added, self.outer_removed)

    def __bool__(self) -> bool:
        return bool(self.mutates_graph or self.owned_added
                    or any(self.border_edits))

    # -- remote replay --------------------------------------------------
    def replay(self, fragment) -> None:
        """Apply this delta to a (remote) copy of the fragment, in
        :func:`repro.core.updates.apply_delta`'s order — nodes,
        insertions, reweights, deletions, retirements, border sets — so
        the copy is structurally identical to the coordinator's fragment
        at the same version, its epochs and its id table move like the
        original's and it gets the same dirty rows to splice its next
        snapshot from."""
        fragment.id_table()  # (taken before the graph moves)
        g = fragment.graph
        for v, label in self.new_nodes:
            g.add_node(v, label)
        for u, v, w in self.insertions:
            g.add_edge(u, v, weight=w)
        for u, v, _old, new in self.weight_changes:
            g.set_edge_weight(u, v, new)
        for u, v, _old in self.deletions:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
        for v in self.retired_nodes:
            if g.has_node(v):
                g.remove_node(v)
        fragment.owned.update(self.owned_added)
        fragment.inner.update(self.inner_added)
        fragment.inner.difference_update(self.inner_removed)
        fragment.outer.update(self.outer_added)
        fragment.outer.difference_update(self.outer_removed)
        fragment.absorb(self)

    def __repr__(self) -> str:
        return (f"FragmentDelta(fid={self.fid}, seq={self.seq}, "
                f"+{len(self.insertions)}e, -{len(self.deletions)}e, "
                f"w{len(self.weight_changes)}, "
                f"retired={len(self.retired_nodes)})")
