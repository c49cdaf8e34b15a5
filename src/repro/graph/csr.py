"""Compressed sparse row (CSR) snapshot of a :class:`repro.graph.Graph`.

GRAPE's optimization story (paper Section 6) relies on the fact that
fragment-local computation may use any representation effective for the
sequential algorithm.  ``CSRGraph`` is a frozen, numpy-backed adjacency used
by the heavier numeric kernels (e.g. collaborative filtering mini-batches)
and by the benchmark harness when a read-only traversal is hot.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import DeferredGraph, Edge, Graph, Node

__all__ = ["CSRGraph", "edge_positions", "found_in_sorted", "id_table",
           "int_array", "positions_in_sorted", "splice_rows", "union_hash"]


def positions_in_sorted(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions of ``ids`` in the sorted, duplicate-free ``sorted_ids``
    (vectorized ``index``); an id that is not there raises
    :exc:`KeyError`.  The lookup behind every array parameter block:
    node labels to border ids, to snapshot vertex ids, to ``F_i.I``
    slots."""
    pos = np.searchsorted(sorted_ids, ids)
    if pos.size and (int(pos.max()) >= sorted_ids.shape[0]
                     or not np.array_equal(sorted_ids[pos], ids)):
        raise KeyError("id not found in the sorted id table")
    return pos


def found_in_sorted(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``np.isin(sorted_ids, ids)`` for a sorted, duplicate-free table by
    binary search (``np.isin`` sorts: 10-40x slower at 5k-20k entries)."""
    found = np.zeros(sorted_ids.shape[0], dtype=bool)
    pos = np.searchsorted(sorted_ids, ids)
    ok = pos < sorted_ids.shape[0]
    found[pos[ok][sorted_ids[pos[ok]] == ids[ok]]] = True
    return found


def edge_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat positions covered by ``(starts[i], counts[i])`` segments of a
    CSR-shaped table's columns: ``np.concatenate([np.arange(s, s + c) for
    s, c in zip(starts, counts)])`` without the Python loop, segment and
    within-segment order preserved — which lets the kernels replay the
    dict path's exact edge iteration and float-accumulation order."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # the flat output index, shifted per segment by how far the
    # segment's start is from where it lands
    pos = np.repeat(starts - np.cumsum(counts) + counts, counts)
    pos += np.arange(total, dtype=np.int64)
    return pos


def int_array(nodes: Sequence) -> Optional[np.ndarray]:
    """``nodes`` as an int64 array, or ``None`` unless every one is a
    plain ``int`` (``bool`` is not) that fits — the precondition of
    everything that treats node labels as array values."""
    if set(map(type, nodes)) <= {int}:
        try:
            return np.array(nodes, dtype=np.int64)
        except OverflowError:  # labels beyond int64
            pass
    return None


def id_table(nodes: Iterable[Node], dead: Iterable[int] = ()) -> Tuple[
        List[Node], Dict[Node, int], Dict[Node, int]]:
    """``(node_of, id_of, dead)`` over a copy of ``nodes``, dense ids by
    position: the live nodes' ids and the tombstones' (ids ``dead``)
    apart (:meth:`repro.partition.base.Fragment.id_table`)."""
    node_of = list(nodes)
    id_of = dict(zip(node_of, range(len(node_of))))
    dead = {node_of[i]: i for i in dead}
    for v in dead:
        del id_of[v]
    return node_of, id_of, dead


def splice_rows(ptr: np.ndarray, cols: Sequence[np.ndarray],
                source: np.ndarray, fresh_counts: np.ndarray,
                fresh_cols: Sequence[np.ndarray]
                ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Row splice of a CSR-shaped table ``(ptr, cols)``.

    Row ``i`` of the result is row ``source[i]`` of the old table where
    ``source[i] >= 0`` and the next *fresh* row otherwise; fresh rows are
    given CSR-style too, as their sizes and their concatenated columns, in
    result order.  Returns the new ``(ptr, cols)`` — what a from-scratch
    build of the same rows yields — by one gather per column over the
    old column followed by the fresh one.  Serves a fragment's CSR
    snapshot (:meth:`CSRGraph.from_graph`) and the border index's holder
    table (:meth:`repro.partition.base.BorderIndex.patched`).
    """
    fresh = np.flatnonzero(source < 0)
    # -1 reads the old table's end: where the fresh columns start in
    # ``old column ++ fresh column``
    starts = ptr[source]
    counts = ptr[source + 1] - starts
    counts[fresh] = fresh_counts
    starts[fresh] += np.cumsum(fresh_counts) - fresh_counts
    new_ptr = np.zeros(source.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=new_ptr[1:])
    pos = edge_positions(starts, counts)
    return new_ptr, [np.concatenate((col, fresh_col))[pos]
                     for col, fresh_col in zip(cols, fresh_cols)]


#: the polynomial's (odd) base; what tells node, edge and label records apart
_BASE, _NODE_SEED, _EDGE_SEED, _LABEL_SEED = map(np.uint64, (
    0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0x27D4EB2F165667C5))


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (arithmetic wraps)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _digests(texts: List[str]) -> np.ndarray:
    """One 64-bit digest per text, all in a few array passes: the
    polynomial ``sum(code[j] * BASE**(j + 1))`` over its code points and
    a terminator, finalized (no ``PYTHONHASHSEED``, no process state)."""
    lengths = np.array(list(map(len, texts)), dtype=np.int64) + 1
    starts = np.cumsum(lengths) - lengths
    codes = np.frombuffer("\x1f".join(texts + [""]).encode(
        "utf-32-le", "surrogatepass"), dtype="<u4")
    powers = np.cumprod(np.full(lengths.max(initial=0), _BASE))
    place = np.arange(codes.size) - np.repeat(starts, lengths)
    return _mix64(np.add.reduceat(codes * powers[place], starts))


def union_hash(directed: bool, parts: Sequence[Tuple["CSRGraph", np.ndarray]],
               edge_labels: Dict[Edge, object]) -> int:
    """:meth:`Graph.content_hash` of the union of the graphs ``parts``
    snapshot, from their arrays.  A part is a snapshot and the dense ids
    of the nodes it owns (each node owned once).  Records are 64-bit
    words: a node's is the digest of the ``repr`` of its id and label,
    read at its owner; a stored edge's is mixed from ``(digest[u],
    digest[v], float64 bits of w)``, nested so that it is neither
    symmetric nor separable in ``u`` and ``v``, read off every part's
    rows and de-duplicated (a mirror's row repeats its owner's; a wrong
    copy adds a record); a labelled edge adds one of its own.  They are
    folded by XOR and by sum of squares with ``(directed, count)``."""
    nodes, edges = [], []
    for snap, owned in parts:
        node = _digests([repr(v) if lbl is None else "%r\x1f%r" % (v, lbl)
                         for v, lbl in zip(snap.node_of, snap.labels)])
        # + 0.0: -0.0 == 0.0 under ==, so the two share one bit pattern
        edge = _mix64((snap.weights + 0.0).view(np.uint64) ^ _EDGE_SEED)
        edge = _mix64(edge ^ node[snap.indices])
        edges.append(_mix64(edge ^ np.repeat(node, np.diff(snap.indptr))))
        nodes.append(node[owned])
    labelled = _digests(["%r\x1f%r\x1f%r" % (*e, lbl) for e, lbl
                         in edge_labels.items() if lbl is not None])
    edge = np.sort(np.concatenate(edges))  # np.unique: ~20x slower (numpy 2.4)
    records = np.concatenate((_mix64(np.concatenate(nodes) ^ _NODE_SEED),
                              edge[:1], edge[1:][edge[1:] != edge[:-1]],
                              _mix64(labelled ^ _LABEL_SEED)))
    return int(_digests(["%r\x1f%d\x1f%d\x1f%d" % (
        directed, records.size, np.bitwise_xor.reduce(records),
        (records * records).sum())])[0])


class CSRGraph:
    """Immutable CSR adjacency.

    Attributes
    ----------
    indptr, indices, weights:
        Standard CSR arrays over dense node ids ``0..n-1``, read-only
        from construction on: nothing writes a snapshot, whether its
        arrays are private or map a published shared-memory segment.
    id_of, node_of:
        Mappings between original node objects and dense ids; a
        fragment's snapshot shares its id table's ``id_of``, valid while
        the snapshot is current (a retired one is a splice base only).
    dead:
        The tombstones' ids (sorted): nodes gone from the graph, kept with
        a degree-0 row; ``node_of`` still names them, ``id_of`` does not.
    """

    __slots__ = ("n", "directed", "indptr", "indices", "weights",
                 "id_of", "node_of", "labels", "dead",
                 "_label_index", "_min_weight")

    def __init__(self, n: int, directed: bool,
                 indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
                 id_of: Dict[Node, int], node_of: List[Node],
                 labels: List, dead: Iterable[int] = ()):
        self.n = n
        self.directed = directed
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.dead = np.asarray(dead, dtype=np.int64)
        for arr in (indptr, indices, weights, self.dead):
            arr.flags.writeable = False
        self.id_of = id_of
        self.node_of = node_of
        self.labels = labels
        # (labels, sorted labels, their order) once int_labels was asked
        self._label_index: Optional[Tuple] = None
        self._min_weight: Optional[float] = None

    @property
    def min_weight(self) -> float:
        """The smallest edge weight (``inf`` without edges), computed on
        first use: what :func:`repro.kernels.csr_sssp` validates instead
        of testing every round's gathered weights."""
        low = self._min_weight
        if low is None:
            low = self._min_weight = (float(self.weights.min())
                                      if self.weights.size else float("inf"))
        return low

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, g: Graph, *, ids: Optional[Tuple] = None,
                   base: Optional["CSRGraph"] = None,
                   dirty: Iterable[Node] = ()) -> "CSRGraph":
        """Snapshot of ``g``, rows in adjacency order, dense ids from the
        id table ``ids`` (:func:`id_table`'s triple, ``id_of`` shared),
        else in node order.

        With ``base`` — a snapshot of an earlier state of ``g`` under
        the same ``ids``, which must name every ``dirty`` node (every
        node whose adjacency row changed since: endpoints of inserted,
        deleted and reweighted edges, new and removed nodes) — only the
        rows of ``dirty`` and of appended ids are read from the dicts;
        the rest cross from ``base`` in one gather.

        **The stable-id contract.**  A node keeps its id while the table
        lives: one that leaves is a tombstone (:attr:`dead`, a degree-0
        row), one that comes back takes its old id, a new one the next.
        A splice moves no id, so what is derived from ids changes only
        at appended ids and at the nodes a delta names: the label index
        here, a fragment's slot tables.  Live rows equal a from-scratch
        build's, compared by label.
        """
        succ = g._succ
        if ids is None and base is not None:
            raise ValueError("a splice needs the id table its base was "
                             "built under")
        node_of, id_of, tombs = ids or id_table(succ)
        # a table only grows (a pack builds afresh): no growth, same list
        node_of = base.node_of if base is not None \
            and len(node_of) == base.n else list(node_of)
        n, label = len(node_of), g._node_labels.get
        dead = np.array(sorted(tombs.values()), dtype=np.int64)
        if base is None:
            labels = list(map(label, node_of))
            rows = list(map(succ.get, node_of, repeat({})))
        else:
            # the appended ids and the named rows are read, the rest kept
            fresh = [id_of.get(v, tombs.get(v, -1)) for v in dirty]
            if -1 in fresh:
                raise ValueError("a dirty node is not in the id table")
            fresh = np.union1d(np.array(fresh, dtype=np.int64),
                               np.arange(base.n, n))
            source = np.arange(n, dtype=np.int64)
            source[fresh] = -1
            nodes = list(map(node_of.__getitem__, fresh.tolist()))
            rows = list(map(succ.get, nodes, repeat({})))
            # a batch sets no label: only a (re)joining node brings one
            labels = base.labels + [None] * (n - base.n)
            for i, v in zip(fresh.tolist(), nodes):
                labels[i] = label(v)

        counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        total = int(counts.sum())
        dst = np.fromiter(map(id_of.__getitem__, chain.from_iterable(rows)),
                          dtype=np.int64, count=total)
        wgt = np.fromiter(chain.from_iterable(map(dict.values, rows)),
                          dtype=np.float64, count=total)
        if base is None:
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            return cls(n, g.directed, indptr, dst, wgt, id_of, node_of,
                       labels, dead)
        indptr, (indices, weights) = splice_rows(
            base.indptr, (base.indices, base.weights), source, counts,
            (dst, wgt))
        if (indptr[dead + 1] != indptr[dead]).any():
            raise ValueError("dirty does not name every node that left "
                             "the graph since base")
        snap = cls(n, g.directed, indptr, indices, weights, id_of, node_of,
                   labels, dead)
        index = base._label_index
        if index is not None and index[0] is not None and n > base.n:
            # the appended labels, type-checked, merged into the table
            new = int_array(node_of[base.n:])
            if new is None:
                index = (None, None, None)
            else:
                by_label = np.argsort(new, kind="stable")
                at = np.searchsorted(index[1], new[by_label])
                index = (np.concatenate((index[0], new)),
                         np.insert(index[1], at, new[by_label]),
                         np.insert(index[2], at, by_label + base.n))
        snap._label_index = index
        return snap

    # ------------------------------------------------------------------
    # Array (de)serialization — the durable store's snapshot payload
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The CSR arrays, the complete structural payload (node
        identities and labels are Python objects and travel apart)."""
        return {"indptr": self.indptr, "indices": self.indices,
                "weights": self.weights}

    @classmethod
    def from_arrays(cls, *, directed: bool, indptr: np.ndarray,
                    indices: np.ndarray, weights: np.ndarray,
                    node_of: Sequence[Node],
                    labels: Optional[Sequence] = None,
                    dead: Sequence[int] = (),
                    id_of: Optional[Dict[Node, int]] = None) -> "CSRGraph":
        """Rebuild a snapshot from :meth:`to_arrays` output plus the node
        identity/label metadata, the tombstones' ids (sorted, unique,
        degree 0, else :exc:`ValueError`) and ``id_of`` to share."""
        node_of = list(node_of)
        n = len(node_of)
        indptr, dead = (np.asarray(a, dtype=np.int64) for a in (indptr, dead))
        if indptr.shape[0] != n + 1:
            raise ValueError(f"indptr has {indptr.shape[0]} entries "
                             f"for {n} nodes")
        if dead.size and not (0 <= dead[0] and dead[-1] < n
                              and (np.diff(dead) > 0).all()
                              and (indptr[dead] == indptr[dead + 1]).all()):
            raise ValueError("tombstone ids must be sorted, unique, in "
                             "range and of degree 0")
        if id_of is None:
            id_of = id_table(node_of, dead.tolist())[1]
        return cls(n, directed, indptr, np.asarray(indices, dtype=np.int64),
                   np.asarray(weights, dtype=np.float64), id_of, node_of,
                   list(labels) if labels is not None else [None] * n, dead)

    def content_hash(self, edge_labels: Dict[Edge, object]) -> int:
        """The :func:`union_hash` of this snapshot alone."""
        return union_hash(self.directed, [(
            self, np.delete(np.arange(self.n), self.dead))], edge_labels)

    # ------------------------------------------------------------------
    # Shared-memory (de)serialization — the process backend's zero-copy
    # fragment plane (repro.runtime.shm)
    # ------------------------------------------------------------------
    #: the structural arrays a shared segment carries, in layout order
    SHARED_FIELDS = ("indptr", "indices", "weights")
    _SHARED_ALIGN = 64

    @classmethod
    def _aligned(cls, offset: int) -> int:
        a = cls._SHARED_ALIGN
        return (offset + a - 1) // a * a

    def shared_nbytes(self, offset: int = 0) -> int:
        """Bytes the structural arrays need in a shared buffer from
        ``offset`` on (each array 64-byte aligned)."""
        for name in self.SHARED_FIELDS:
            offset = self._aligned(offset) + getattr(self, name).nbytes
        return self._aligned(offset)

    def to_shared(self, buf, offset: int = 0
                  ) -> List[Tuple[str, str, int, int]]:
        """Copy the structural arrays into ``buf`` (any writable buffer —
        typically a mapped shared segment) starting at ``offset``.
        Returns the ``(field, dtype, count, offset)`` layout placed."""
        layout: List[Tuple[str, str, int, int]] = []
        for name in self.SHARED_FIELDS:
            arr = np.ascontiguousarray(getattr(self, name))
            offset = self._aligned(offset)
            count = int(arr.shape[0])
            np.frombuffer(buf, dtype=arr.dtype, count=count,
                          offset=offset)[:] = arr
            layout.append((name, arr.dtype.str, count, offset))
            offset += arr.nbytes
        return layout

    @classmethod
    def from_shared(cls, buf, layout, **meta) -> "CSRGraph":
        """Zero-copy snapshot over a shared buffer written by
        :meth:`to_shared` (``meta``: what :meth:`from_arrays` takes
        beside the arrays): every array is a view into ``buf``, so the
        buffer must stay mapped for the snapshot's lifetime."""
        return cls.from_arrays(**meta, **{
            name: np.frombuffer(buf, dtype=dtype, count=count, offset=off)
            for name, dtype, count, off in layout
            if name in cls.SHARED_FIELDS})

    # ------------------------------------------------------------------
    @property
    def int_labels(self) -> Optional[np.ndarray]:
        """The nodes' identities by dense id as an int64 array, or
        ``None`` unless every node is a plain ``int`` that fits
        (:func:`int_array`).  Built on first use with the sorted lookup
        table of :meth:`ids_of` — or carried over by the splice."""
        index = self._label_index
        if index is None:
            labels = int_array(self.node_of)
            index = (None, None, None)
            if labels is not None:
                order = np.argsort(labels, kind="stable")
                index = (labels, labels[order], order)
            self._label_index = index
        return index[0]

    def ids_of(self, nodes: np.ndarray) -> np.ndarray:
        """Dense ids of an int64 array of node identities (vectorized
        ``id_of``) — the receiving end of an array parameter block
        (:class:`repro.runtime.wire.ParamBlock`).  An unknown node
        raises :exc:`KeyError`."""
        if self.int_labels is None:
            raise TypeError("snapshot nodes are not all plain ints")
        _labels, sorted_labels, order = self._label_index
        return order[positions_in_sorted(sorted_labels, nodes)]

    @property
    def num_directed_edges(self) -> int:
        return int(self.indices.shape[0])

    @property
    def num_edges(self) -> int:
        """``Graph.num_edges`` of the graph this is a snapshot of: an
        undirected edge is stored in both rows, a self loop in one."""
        stored = self.num_directed_edges
        if self.directed:
            return stored
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return (stored + int(np.count_nonzero(self.indices == rows))) // 2

    def to_graph(self, edge_labels: Optional[Dict[Edge, object]] = None
                 ) -> Graph:
        """The :class:`Graph` this is a snapshot of, with ``edge_labels``
        (a snapshot carries none), built on first use: a
        :class:`~repro.graph.graph.DeferredGraph`.  The rows hold the
        *stored* adjacency, so one pass fills ``_succ`` / ``_pred``; the
        two orientations of an undirected edge share one weight object,
        as :meth:`Graph.add_edge` makes them.  Tombstones are left out."""
        def fill(g: Graph) -> None:
            node_of, none = self.node_of, {}
            indices, weights = self.indices.tolist(), self.weights.tolist()
            succ = g._succ = {v: {} for v in node_of}
            pred = g._pred = {v: {} for v in node_of}
            g._node_labels = {v: lbl for v, lbl in zip(node_of, self.labels)
                              if lbl is not None}
            k = 0
            for u, end in zip(node_of, self.indptr[1:].tolist()):
                # undirected: what earlier rows stored towards u is u's row
                row, back = succ[u], none if self.directed else pred[u]
                while k < end:
                    v = node_of[indices[k]]
                    row[v] = pred[v][u] = back.get(v, weights[k])
                    k += 1
            for v in map(node_of.__getitem__, self.dead.tolist()):
                del succ[v], pred[v]
            g._count_edges()
        return DeferredGraph(self.directed, fill, edge_labels)

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.num_directed_edges})"
