"""Compressed sparse row (CSR) snapshot of a :class:`repro.graph.Graph`.

GRAPE's optimization story (paper Section 6) relies on the fact that
fragment-local computation may use any representation effective for the
sequential algorithm.  ``CSRGraph`` is a frozen, numpy-backed adjacency used
by the heavier numeric kernels (e.g. collaborative filtering mini-batches)
and by the benchmark harness when a read-only traversal is hot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph, Node

__all__ = ["CSRGraph", "positions_in_sorted"]


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


class CSRGraph:
    """Immutable CSR adjacency with parallel reverse (CSC) structure.

    Attributes
    ----------
    indptr, indices, weights:
        Standard CSR arrays over dense node ids ``0..n-1``.
    rev_indptr, rev_indices, rev_weights:
        The transposed (incoming-edge) structure.
    id_of, node_of:
        Mappings between original node objects and dense ids.
    """

    __slots__ = ("n", "directed", "indptr", "indices", "weights",
                 "rev_indptr", "rev_indices", "rev_weights",
                 "id_of", "node_of", "labels", "_label_index")

    def __init__(self, n: int, directed: bool,
                 indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
                 rev_indptr: np.ndarray, rev_indices: np.ndarray,
                 rev_weights: np.ndarray,
                 id_of: Dict[Node, int], node_of: List[Node],
                 labels: List):
        self.n = n
        self.directed = directed
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.rev_indptr = rev_indptr
        self.rev_indices = rev_indices
        self.rev_weights = rev_weights
        self.id_of = id_of
        self.node_of = node_of
        self.labels = labels
        self._label_index: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, g: Graph) -> "CSRGraph":
        # Reads the adjacency rows directly: this runs on every snapshot
        # rebuild after a structural mutation, which lands inside the
        # update latency of the first query or maintenance pass to touch
        # the fragment — C-speed row copies instead of per-edge
        # generator hops keep that rebuild off the critical path.
        succ = g._succ
        node_of = list(succ)
        id_of = {v: i for i, v in enumerate(node_of)}
        n = len(node_of)
        labels = [g.node_label(v) for v in node_of]

        # For undirected graphs Graph stores both orientations already; use
        # successors directly so CSR mirrors the symmetric adjacency.
        counts = np.empty(n, dtype=np.int64)
        dst_ids: List[int] = []
        wgts: List[float] = []
        get_id = id_of.__getitem__
        for i, v in enumerate(node_of):
            row = succ[v]
            counts[i] = len(row)
            dst_ids.extend(map(get_id, row))
            wgts.extend(row.values())
        dst = np.array(dst_ids, dtype=np.int64)
        wgt = np.array(wgts, dtype=np.float64)
        return cls._assemble(n, g.directed, counts, dst, wgt,
                             id_of, node_of, labels)

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
        counts = np.bincount(src, minlength=n).astype(np.int64)
        # Stable argsort groups edges by source while preserving input
        # order within each row — the same adjacency order Graph.add_edge
        # replay would produce.
        order = np.argsort(src, kind="stable")
        label_list = ([labels.get(v) for v in node_of] if labels
                      else [None] * n)
        return cls._assemble(n, directed, counts, dst[order], wgt[order],
                             id_of, node_of, label_list)

    @classmethod
    def _assemble(cls, n: int, directed: bool, counts: np.ndarray,
                  dst: np.ndarray, wgt: np.ndarray,
                  id_of: Dict[Node, int], node_of: List[Node],
                  labels: List) -> "CSRGraph":
        """Finish construction from row-grouped edge arrays.

        ``dst``/``wgt`` must already be grouped by source row with row
        sizes ``counts``; the reverse (CSC) structure is derived with a
        stable argsort over destinations — bucket placement without the
        per-edge Python fill loop, and with the same within-bucket order
        that loop produced.
        """
        out_deg = np.zeros(n + 1, dtype=np.int64)
        out_deg[1:] = counts
        indptr = np.cumsum(out_deg)

        in_deg = np.zeros(n + 1, dtype=np.int64)
        in_deg[1:] = np.bincount(dst, minlength=n)
        rev_indptr = np.cumsum(in_deg)

        src = np.repeat(np.arange(n, dtype=np.int64), counts)
        rev_order = np.argsort(dst, kind="stable")
        return cls(n, directed, indptr, dst, wgt,
                   rev_indptr, src[rev_order], wgt[rev_order],
                   id_of, node_of, labels)

    # ------------------------------------------------------------------
    # Array (de)serialization — the durable store's snapshot payload
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The forward CSR arrays, the complete structural payload.

        The reverse (CSC) structure is derived, not stored — roughly
        halving snapshot size; :meth:`from_arrays` rebuilds it.  Node
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
        identity/label metadata; the reverse structure is re-derived."""
        node_of = list(node_of)
        n = len(node_of)
        if indptr.shape[0] != n + 1:
            raise ValueError(f"indptr has {indptr.shape[0]} entries "
                             f"for {n} nodes")
        id_of = {v: i for i, v in enumerate(node_of)}
        counts = np.diff(np.asarray(indptr, dtype=np.int64))
        label_list = list(labels) if labels is not None else [None] * n
        return cls._assemble(n, directed, counts,
                             np.asarray(indices, dtype=np.int64),
                             np.asarray(weights, dtype=np.float64),
                             id_of, node_of, label_list)

    # ------------------------------------------------------------------
    # Shared-memory (de)serialization — the process backend's zero-copy
    # fragment plane (repro.runtime.shm)
    # ------------------------------------------------------------------
    #: the six structural arrays a shared segment carries, in layout order
    SHARED_FIELDS = ("indptr", "indices", "weights",
                     "rev_indptr", "rev_indices", "rev_weights")
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
        """Copy the six structural arrays into ``buf`` (any writable
        buffer — typically a mapped shared segment) starting at
        ``offset``.  Unlike :meth:`to_arrays` both orientations are
        stored: attachers must not pay the reverse-derivation pass.
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
        :meth:`to_shared`: every array is a view into ``buf`` (read-only
        when the buffer is, and flagged read-only regardless), so the
        buffer must stay mapped for the snapshot's lifetime."""
        views: Dict[str, np.ndarray] = {}
        for name, dtype, count, off in layout:
            if name not in cls.SHARED_FIELDS:
                continue
            arr = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
            if arr.flags.writeable:
                arr = arr.view()
                arr.flags.writeable = False
            views[name] = arr
        return cls(n, directed, views["indptr"], views["indices"],
                   views["weights"], views["rev_indptr"],
                   views["rev_indices"], views["rev_weights"],
                   id_of, node_of, labels)

    # ------------------------------------------------------------------
    def ids_of(self, nodes: np.ndarray) -> np.ndarray:
        """Dense ids of an int64 array of node identities (vectorized
        ``id_of``), for snapshots whose nodes are all plain ints — the
        receiving end of an array parameter block
        (:class:`repro.runtime.wire.ParamBlock`).  The sorted lookup
        table is built on first use and kept with the (immutable)
        snapshot.  An unknown node raises :exc:`KeyError`.
        """
        index = self._label_index
        if index is None:
            labels = np.array(self.node_of, dtype=np.int64)
            order = np.argsort(labels, kind="stable")
            index = self._label_index = (labels[order], order)
        sorted_labels, order = index
        return order[positions_in_sorted(sorted_labels, nodes)]

    def out_neighbors(self, vid: int) -> np.ndarray:
        return self.indices[self.indptr[vid]:self.indptr[vid + 1]]

    def out_weights(self, vid: int) -> np.ndarray:
        return self.weights[self.indptr[vid]:self.indptr[vid + 1]]

    def in_neighbors(self, vid: int) -> np.ndarray:
        return self.rev_indices[self.rev_indptr[vid]:self.rev_indptr[vid + 1]]

    def in_weights(self, vid: int) -> np.ndarray:
        return self.rev_weights[self.rev_indptr[vid]:self.rev_indptr[vid + 1]]

    def out_degree(self, vid: int) -> int:
        return int(self.indptr[vid + 1] - self.indptr[vid])

    def in_degree(self, vid: int) -> int:
        return int(self.rev_indptr[vid + 1] - self.rev_indptr[vid])

    @property
    def num_directed_edges(self) -> int:
        return int(self.indices.shape[0])

    def to_graph(self) -> Graph:
        """Round-trip back to a mutable :class:`Graph`."""
        g = Graph(directed=self.directed)
        for vid in range(self.n):
            g.add_node(self.node_of[vid], self.labels[vid])
        for vid in range(self.n):
            start, end = self.indptr[vid], self.indptr[vid + 1]
            for k in range(start, end):
                u = self.node_of[vid]
                v = self.node_of[int(self.indices[k])]
                if not g.has_edge(u, v):
                    g.add_edge(u, v, weight=float(self.weights[k]))
        return g

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.num_directed_edges})"
