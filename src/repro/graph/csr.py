"""Compressed sparse row (CSR) snapshot of a :class:`repro.graph.Graph`.

GRAPE's optimization story (paper Section 6) relies on the fact that
fragment-local computation may use any representation effective for the
sequential algorithm.  ``CSRGraph`` is a frozen, numpy-backed adjacency used
by the heavier numeric kernels (e.g. collaborative filtering mini-batches)
and by the benchmark harness when a read-only traversal is hot.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Edge, Graph, Node

__all__ = ["CSRGraph", "positions_in_sorted", "splice_rows"]


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


def splice_rows(ptr: np.ndarray, cols: Sequence[np.ndarray],
                source: np.ndarray, fresh_counts: np.ndarray,
                fresh_cols: Sequence[np.ndarray]
                ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Row splice of a CSR-shaped table ``(ptr, cols)``.

    Row ``i`` of the result is row ``source[i]`` of the old table where
    ``source[i] >= 0`` and the next *fresh* row otherwise; fresh rows are
    given CSR-style too, as their sizes and their concatenated columns, in
    result order.  Returns the new ``(ptr, cols)`` — what a from-scratch
    build of the same rows yields, at the cost of one slice copy per
    maximal run of rows that are consecutive on their side.  Serves both
    tables that are maintained under updates: a fragment's CSR snapshot
    (:meth:`CSRGraph.from_graph`) and the border index's holder table
    (:meth:`repro.partition.base.BorderIndex.patched`).
    """
    n, num_fresh = source.shape[0], fresh_counts.shape[0]
    fresh = source < 0
    fresh_ptr = np.zeros(num_fresh + 1, dtype=np.int64)
    np.cumsum(fresh_counts, out=fresh_ptr[1:])
    old_rows = source[~fresh]
    counts = np.empty(n, dtype=np.int64)
    counts[~fresh] = ptr[old_rows + 1] - ptr[old_rows]
    counts[fresh] = fresh_counts
    new_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_ptr[1:])
    # Number the fresh rows -num_fresh-1 .. -2: consecutive like the old
    # rows' numbers, and never adjacent to one (the smallest is 0), so a
    # step other than +1 is exactly a boundary between runs.
    number = source.copy()
    number[fresh] = np.arange(-num_fresh - 1, -1)
    cuts = np.flatnonzero(np.diff(number) != 1) + 1
    firsts = number[np.concatenate(([0], cuts))[:n]].tolist()  # [:n]: n == 0
    lasts = number[np.concatenate((cuts, [n]))[:n] - 1].tolist()
    pieces: List[List[np.ndarray]] = [[col[:0]] for col in cols]
    for first, last in zip(firsts, lasts):
        if first >= 0:
            side, lo, hi = cols, ptr[first], ptr[last + 1]
        else:
            side = fresh_cols
            lo = fresh_ptr[first + num_fresh + 1]
            hi = fresh_ptr[last + num_fresh + 2]
        for piece, col in zip(pieces, side):
            piece.append(col[lo:hi])
    return new_ptr, [np.concatenate(piece) for piece in pieces]


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


class CSRGraph:
    """Immutable CSR adjacency.

    Attributes
    ----------
    indptr, indices, weights:
        Standard CSR arrays over dense node ids ``0..n-1``, read-only
        from construction on: nothing writes a snapshot, whether its
        arrays are private or map a published shared-memory segment.
    id_of, node_of:
        Mappings between original node objects and dense ids.
    """

    __slots__ = ("n", "directed", "indptr", "indices", "weights",
                 "id_of", "node_of", "labels", "_label_index", "_min_weight")

    def __init__(self, n: int, directed: bool,
                 indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
                 id_of: Dict[Node, int], node_of: List[Node],
                 labels: List):
        self.n = n
        self.directed = directed
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        for arr in (indptr, indices, weights):
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
        first use and kept with the immutable snapshot: what
        :func:`repro.kernels.csr_sssp` validates instead of testing every
        round's gathered weights."""
        low = self._min_weight
        if low is None:
            low = self._min_weight = (float(self.weights.min())
                                      if self.weights.size else float("inf"))
        return low

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, g: Graph, *, base: Optional["CSRGraph"] = None,
                   dirty: Iterable[Node] = ()) -> "CSRGraph":
        """Snapshot of ``g``: dense ids in node order, rows in adjacency
        order.

        With ``base`` — a snapshot of an earlier state of ``g`` — only
        the rows of ``dirty`` (every node whose adjacency row changed
        since: endpoints of inserted, deleted and reweighted edges, new
        and removed nodes) and of nodes ``base`` does not know are read
        from the adjacency dicts; the rest are spliced over from
        ``base``'s arrays, dense ids remapped when the node order moved
        (a node added, removed, or removed and re-added, which moves it
        to the end).  The result equals the from-scratch build element
        for element.
        """
        # Reads the adjacency rows directly: C-speed row copies instead
        # of per-edge generator hops.  For undirected graphs Graph stores
        # both orientations already, so CSR mirrors the symmetric
        # adjacency.
        succ = g._succ
        node_of = list(succ)
        n = len(node_of)
        labels = (list(map(g._node_labels.get, node_of)) if g._node_labels
                  else [None] * n)
        # source[i]: the row of ``base`` that is node i's, -1 for a row
        # to read from ``g``; remap: base's dense ids -> the new ones
        source = remap = None
        if base is not None and node_of == base.node_of:
            node_of, id_of = base.node_of, base.id_of
            source = np.arange(n, dtype=np.int64)
        else:
            id_of = dict(zip(node_of, range(n)))
            if base is not None:
                source = np.fromiter(
                    map(base.id_of.get, node_of, repeat(-1)),
                    dtype=np.int64, count=n)
                known = source >= 0
                remap = np.full(base.n, -1, dtype=np.int64)
                remap[source[known]] = np.flatnonzero(known)
        if base is None:
            rows = list(succ.values())
        else:
            for v in dirty:
                i = id_of.get(v)
                if i is not None:
                    source[i] = -1
            rows = [succ[node_of[i]]
                    for i in np.flatnonzero(source < 0).tolist()]

        dst_ids: List[int] = []
        wgts: List[float] = []
        get_id = id_of.__getitem__
        for row in rows:
            dst_ids.extend(map(get_id, row))
            wgts.extend(row.values())
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        dst = np.array(dst_ids, dtype=np.int64)
        wgt = np.array(wgts, dtype=np.float64)
        if base is None:
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            return cls(n, g.directed, indptr, dst, wgt, id_of, node_of,
                       labels)
        indptr, (indices, weights) = splice_rows(
            base.indptr, (base.indices if remap is None
                          else remap[base.indices], base.weights),
            source, counts, (dst, wgt))
        snap = cls(n, g.directed, indptr, indices, weights, id_of, node_of,
                   labels)
        if remap is None:
            snap._label_index = base._label_index
        return snap

    @classmethod
    def from_edges(cls, edges: Sequence[Tuple[Node, Node, float]], *,
                   directed: bool = True,
                   nodes: Optional[Sequence[Node]] = None,
                   labels: Optional[Dict[Node, object]] = None
                   ) -> "CSRGraph":
        """Build a snapshot straight from an edge list, skipping the
        intermediate dict :class:`Graph`.

        Dense ids follow ``nodes`` when given, otherwise first-seen order
        over the edge list (sources before destinations, as when the
        edges are replayed through ``Graph.add_edge``).  For an
        undirected snapshot each input edge contributes both
        orientations, mirroring the symmetric storage of :class:`Graph`.
        Parallel duplicate edges are kept as given (deduplicate upstream
        if the source may repeat edges).
        """
        id_of: Dict[Node, int] = {}
        node_of: List[Node] = []
        if nodes is not None:
            for v in nodes:
                if v not in id_of:
                    id_of[v] = len(node_of)
                    node_of.append(v)

        def vid(v: Node) -> int:
            i = id_of.get(v)
            if i is None:
                i = id_of[v] = len(node_of)
                node_of.append(v)
            return i

        num_edges = len(edges)
        slots = num_edges if directed else 2 * num_edges
        src = np.empty(slots, dtype=np.int64)
        dst = np.empty(slots, dtype=np.int64)
        wgt = np.empty(slots, dtype=np.float64)
        k = 0
        for u, v, w in edges:
            ui, vi = vid(u), vid(v)
            src[k], dst[k], wgt[k] = ui, vi, w
            k += 1
            if not directed and ui != vi:
                src[k], dst[k], wgt[k] = vi, ui, w
                k += 1
        src, dst, wgt = src[:k], dst[:k], wgt[:k]

        n = len(node_of)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        # Stable argsort groups edges by source while preserving input
        # order within each row — the same adjacency order Graph.add_edge
        # replay would produce.
        order = np.argsort(src, kind="stable")
        label_list = ([labels.get(v) for v in node_of] if labels
                      else [None] * n)
        return cls(n, directed, indptr, dst[order], wgt[order],
                   id_of, node_of, label_list)

    # ------------------------------------------------------------------
    # Array (de)serialization — the durable store's snapshot payload
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The CSR arrays, the complete structural payload.  Node
        identities and labels are Python objects and travel separately
        (the snapshot container pickles them as metadata).
        """
        return {"indptr": self.indptr, "indices": self.indices,
                "weights": self.weights}

    @classmethod
    def from_arrays(cls, *, directed: bool, indptr: np.ndarray,
                    indices: np.ndarray, weights: np.ndarray,
                    node_of: Sequence[Node],
                    labels: Optional[Sequence] = None) -> "CSRGraph":
        """Rebuild a snapshot from :meth:`to_arrays` output plus the node
        identity/label metadata."""
        node_of = list(node_of)
        n = len(node_of)
        if indptr.shape[0] != n + 1:
            raise ValueError(f"indptr has {indptr.shape[0]} entries "
                             f"for {n} nodes")
        return cls(n, directed, np.asarray(indptr, dtype=np.int64),
                   np.asarray(indices, dtype=np.int64),
                   np.asarray(weights, dtype=np.float64),
                   dict(zip(node_of, range(n))), node_of,
                   list(labels) if labels is not None else [None] * n)

    def content_hash(self, edge_labels: Dict[Edge, object]) -> int:
        """:meth:`Graph.content_hash` of the graph this is a snapshot
        of, given the edge-label table a snapshot does not carry.

        Records are 64-bit words: a node's is the digest of the ``repr``
        of its id and label; a stored edge's is mixed from ``(digest[u],
        digest[v], float64 bits of w)``, nested so that it is neither
        symmetric nor separable in ``u`` and ``v``; a labelled edge adds
        one of its own.  They are folded by XOR and by sum of squares
        (commutative: order cannot matter) with ``(directed, count)``.
        """
        node = _digests([repr(v) if lbl is None else "%r\x1f%r" % (v, lbl)
                         for v, lbl in zip(self.node_of, self.labels)])
        # + 0.0: -0.0 == 0.0 under ==, so the two share one bit pattern
        edge = _mix64((self.weights + 0.0).view(np.uint64) ^ _EDGE_SEED)
        edge = _mix64(edge ^ node[self.indices])
        edge = _mix64(edge ^ np.repeat(node, np.diff(self.indptr)))
        labelled = _digests(["%r\x1f%r\x1f%r" % (*e, lbl) for e, lbl
                             in edge_labels.items() if lbl is not None])
        records = np.concatenate((_mix64(node ^ _NODE_SEED), edge,
                                  _mix64(labelled ^ _LABEL_SEED)))
        return int(_digests(["%r\x1f%d\x1f%d\x1f%d" % (
            self.directed, records.size, np.bitwise_xor.reduce(records),
            (records * records).sum())])[0])

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
        """Bytes needed to place the structural arrays in a shared
        buffer starting at ``offset`` (each array 64-byte aligned)."""
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
    def from_shared(cls, buf, layout, *, n: int, directed: bool,
                    id_of: Dict[Node, int], node_of: List[Node],
                    labels: List) -> "CSRGraph":
        """Zero-copy snapshot over a shared buffer written by
        :meth:`to_shared`: every array is a view into ``buf``, so the
        buffer must stay mapped for the snapshot's lifetime."""
        views = {name: np.frombuffer(buf, dtype=dtype, count=count,
                                     offset=off)
                 for name, dtype, count, off in layout
                 if name in cls.SHARED_FIELDS}
        return cls(n, directed, views["indptr"], views["indices"],
                   views["weights"], id_of, node_of, labels)

    # ------------------------------------------------------------------
    @property
    def int_labels(self) -> Optional[np.ndarray]:
        """The nodes' identities by dense id as an int64 array, or
        ``None`` unless every node is a plain ``int`` that fits — the
        precondition of everything that treats labels as array values
        (parameter blocks, CC's component ids).  Built on first use,
        with the sorted lookup table of :meth:`ids_of`, and kept with
        the (immutable) snapshot."""
        index = self._label_index
        if index is None:
            index = (None, None, None)
            if all(type(v) is int for v in self.node_of):
                try:
                    labels = np.array(self.node_of, dtype=np.int64)
                except OverflowError:  # labels beyond int64
                    pass
                else:
                    order = np.argsort(labels, kind="stable")
                    index = (labels, labels[order], order)
            self._label_index = index
        return index[0]

    def ids_of(self, nodes: np.ndarray) -> np.ndarray:
        """Dense ids of an int64 array of node identities (vectorized
        ``id_of``), for snapshots whose nodes are all plain ints — the
        receiving end of an array parameter block
        (:class:`repro.runtime.wire.ParamBlock`).  An unknown node
        raises :exc:`KeyError`.
        """
        if self.int_labels is None:
            raise TypeError("snapshot nodes are not all plain ints")
        _labels, sorted_labels, order = self._label_index
        return order[positions_in_sorted(sorted_labels, nodes)]

    def out_neighbors(self, vid: int) -> np.ndarray:
        return self.indices[self.indptr[vid]:self.indptr[vid + 1]]

    def out_weights(self, vid: int) -> np.ndarray:
        return self.weights[self.indptr[vid]:self.indptr[vid + 1]]

    def out_degree(self, vid: int) -> int:
        return int(self.indptr[vid + 1] - self.indptr[vid])

    @property
    def num_directed_edges(self) -> int:
        return int(self.indices.shape[0])

    def to_graph(self) -> Graph:
        """Round-trip back to a mutable :class:`Graph` (without edge
        labels: a snapshot carries none).  The rows hold the *stored*
        adjacency, so one pass fills ``_succ`` / ``_pred`` exactly — the
        store's warm-start path, guarded there by the content hash."""
        node_of = self.node_of
        indices, weights = self.indices.tolist(), self.weights.tolist()
        g = Graph(directed=self.directed)
        succ = g._succ = {v: {} for v in node_of}
        pred = g._pred = {v: {} for v in node_of}
        g._node_labels = {v: lbl for v, lbl in zip(node_of, self.labels)
                          if lbl is not None}
        k = 0
        for u, end in zip(node_of, self.indptr[1:].tolist()):
            row = succ[u]
            while k < end:
                v = node_of[indices[k]]
                row[v] = pred[v][u] = weights[k]
                k += 1
        g._count_edges()
        return g

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.num_directed_edges})"
