"""Binary snapshot format for graphs and fragmentations.

A snapshot is the durable store's "precompute once" artifact: the full
content of a :class:`~repro.graph.graph.Graph` — and optionally of a
maintained :class:`~repro.partition.base.Fragmentation` — in one
self-verifying file.  The paper's serving architecture (Section 6) only
pays off if that state survives the process; this module is the byte
format everything else in :mod:`repro.store` builds on.

File layout::

    MAGIC (9 bytes, ``b"GRAPESNAP"``)
    format version (1 byte, currently 2)
    sha256 of the payload (32 bytes)
    payload length (8 bytes, big endian)
    payload: an ``npz`` archive

The npz payload carries the structural bulk as numpy CSR arrays
(:meth:`~repro.graph.csr.CSRGraph.to_arrays` — ``indptr``/``indices``/
``weights``) and
everything object-shaped — node identities, labels, border sets, the
saved graph's :meth:`~repro.graph.graph.Graph.content_hash` — as one
pickled metadata blob stored as a ``uint8`` array.  Loading verifies the
header checksum (bytes arrived intact) *and* the content hash (the
decoded graph is the graph that was saved): the dict graph rebuilt from
the arrays is hashed again, not the arrays as stored.  The hash is part
of the format: version 2 stores the 64-bit array-computed one; a version
1 file (a per-record ``crc32`` fold nothing computes any more) is refused.

Writes are atomic: the file is assembled under a temporary name in the
destination directory and published with ``os.replace``, so a crashed
writer can never leave a half-snapshot under the real name.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.ioutil import atomic_write_bytes
from repro.partition.base import Fragment, Fragmentation
from repro.resilience import faults as _faults

__all__ = ["LoadedSnapshot", "SnapshotError", "load_snapshot",
           "save_snapshot"]

MAGIC = b"GRAPESNAP"
FORMAT_VERSION = 2
_HEADER = struct.Struct(f">{len(MAGIC)}sB32sQ")


class SnapshotError(RuntimeError):
    """A snapshot file is missing, truncated, corrupt or incompatible."""


@dataclass
class LoadedSnapshot:
    """What :func:`load_snapshot` decoded.

    ``fragmentation`` is present only when one was saved; ``meta`` is the
    caller-supplied metadata dict passed to :func:`save_snapshot`.
    """

    graph: Graph
    fragmentation: Optional[Fragmentation]
    meta: Dict
    content_hash: int


# ---------------------------------------------------------------------------
# Graph <-> arrays
# ---------------------------------------------------------------------------
def _pack_graph(csr: CSRGraph, edge_labels: Dict, prefix: str,
                arrays: Dict[str, np.ndarray], meta: Dict) -> None:
    """Add one graph's CSR arrays and object metadata under ``prefix``."""
    for name, arr in csr.to_arrays().items():
        arrays[f"{prefix}{name}"] = arr
    meta[prefix] = {
        "directed": csr.directed,
        "node_of": csr.node_of,
        "labels": csr.labels,
        "edge_labels": dict(edge_labels),
    }


def _unpack_graph(prefix: str, arrays, meta: Dict) -> Tuple[Graph, CSRGraph]:
    """Rebuild one graph from its packed arrays + metadata, each npz
    member parsed once: the dict graph and the CSR snapshot it is of."""
    gm = meta[prefix]
    csr = CSRGraph.from_arrays(
        directed=gm["directed"], node_of=gm["node_of"], labels=gm["labels"],
        **{name: arrays[f"{prefix}{name}"]
           for name in ("indptr", "indices", "weights")})
    g = csr.to_graph()
    g._edge_labels.update(gm["edge_labels"])
    return g, csr


def _derive_base(gm: Dict, fragments: List[Fragment]) -> Graph:
    """Reassemble the base graph from the fragments' local graphs.

    Edge-cut invariant: every base edge's stored orientation lives at
    its source's owner (undirected edges at both endpoints' owners), so
    merging the fragments' adjacency rows reproduces the base adjacency
    exactly — in C-speed dict copies/updates rather than per-edge
    replay.  Vertex-cut fragments partition the edge set outright, so
    the same merge covers them.  Node labels come from each node's
    owner.  Verified by the loader's content-hash check.
    """
    g = Graph(directed=gm["directed"])
    succ, node_labels = g._succ, g._node_labels
    for frag in fragments:
        for u, row in frag.graph._succ.items():
            succ.setdefault(u, {}).update(row)
        local_labels = frag.graph._node_labels
        for u in frag.owned & local_labels.keys():
            node_labels[u] = local_labels[u]
    pred = g._pred = {u: {} for u in succ}
    for u, row in succ.items():
        for v, w in row.items():
            pred[v][u] = w
    g._count_edges()
    g._edge_labels.update(gm["edge_labels"])
    return g


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------
def save_snapshot(path: Union[str, Path], graph: Graph, *,
                  fragmentation: Optional[Fragmentation] = None,
                  meta: Optional[Dict] = None,
                  phases: Optional[Dict[str, float]] = None) -> int:
    """Write a snapshot of ``graph`` (and optionally a fragmentation of
    it) to ``path`` atomically; returns the file size in bytes.

    A saved fragmentation captures the *maintained* partition state —
    per-fragment local graphs, owned/inner/outer border sets and the
    version its delta log had reached — not merely a re-runnable
    partition assignment, so a fragmentation mutated by
    :func:`repro.core.updates.apply_delta` round-trips exactly.

    ``phases``, when given, receives the seconds spent in ``hash_s``
    (flattening and hashing ``graph``), ``pack_s`` and ``io_s``.
    """
    if fragmentation is not None and fragmentation.graph is not graph:
        raise ValueError("fragmentation does not partition the given graph")
    started = time.perf_counter()
    base = CSRGraph.from_graph(graph)
    arrays: Dict[str, np.ndarray] = {}
    obj_meta: Dict = {
        "meta": dict(meta or {}),
        "content_hash": base.content_hash(graph._edge_labels),
        "num_fragments": None,
    }
    hashed = time.perf_counter()
    if fragmentation is None:
        # the arrays the hash was computed from: one flatten, not two
        _pack_graph(base, graph._edge_labels, "g_", arrays, obj_meta)
    else:
        # The fragments jointly cover every base edge (and owners cover
        # every node), so the base graph's arrays would be pure
        # duplication: store only the fragments plus the base metadata
        # and re-derive the base adjacency on load — roughly halving
        # snapshot size and decode work.  The content-hash check below
        # verifies the derivation against the saved graph.
        obj_meta["g_"] = {"directed": graph.directed,
                          "derived": True,
                          "edge_labels": dict(graph._edge_labels)}
        obj_meta["num_fragments"] = fragmentation.num_fragments
        obj_meta["strategy_name"] = fragmentation.strategy_name
        obj_meta["frag_version"] = fragmentation.version
        for frag in fragmentation:
            prefix = f"f{frag.fid}_"
            # the snapshot the fragment caches, or splices from its
            # pending dirty rows: what a build from scratch would yield
            _pack_graph(frag.csr(), frag.graph._edge_labels, prefix, arrays,
                        obj_meta)
            obj_meta[prefix].update({
                "owned": list(frag.owned),
                "inner": list(frag.inner),
                "outer": list(frag.outer),
            })
    blob = pickle.dumps(obj_meta, protocol=pickle.HIGHEST_PROTOCOL)
    arrays["pickled_meta"] = np.frombuffer(blob, dtype=np.uint8)

    buf = io.BytesIO()
    np.savez(buf, **arrays)
    payload = buf.getvalue()
    header = _HEADER.pack(MAGIC, FORMAT_VERSION,
                          hashlib.sha256(payload).digest(), len(payload))
    packed = time.perf_counter()

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fault = _faults.check("store.snapshot.write", key=path.name)
    if fault is not None and fault.kind == "torn":
        # A writer crashing mid-snapshot: a truncated file lands at the
        # *new* generation's path (the manifest never moves to it, and
        # load_snapshot refuses it by size/checksum), then the save
        # "crashes".  The committed generation is untouched.
        data = header + payload
        cut = max(1, int(len(data) * float(fault.param("keep_fraction",
                                                       0.5))))
        path.write_bytes(data[:cut])
        raise SnapshotError(f"injected torn snapshot write: {path.name}")
    atomic_write_bytes(path, header + payload)
    if phases is not None:
        phases.update(hash_s=hashed - started, pack_s=packed - hashed,
                      io_s=time.perf_counter() - packed)
    return len(header) + len(payload)


def load_snapshot(path: Union[str, Path], *,
                  phases: Optional[Dict[str, float]] = None
                  ) -> LoadedSnapshot:
    """Read a snapshot back; verifies the checksummed header and the
    decoded graph's content hash.  Raises :exc:`SnapshotError` on any
    truncation, corruption or format mismatch.

    ``phases``, when given, receives the seconds spent in ``verify_s``
    (hashing the decoded graph) and ``decode_s`` (everything else).
    """
    started = time.perf_counter()
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"snapshot {path} is truncated "
                            f"({len(raw)} bytes)")
    magic, version, digest, length = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotError(f"{path} is not a snapshot (bad magic)")
    if version != FORMAT_VERSION:
        raise SnapshotError(f"snapshot {path} has format version "
                            f"{version}, expected {FORMAT_VERSION}")
    payload = raw[_HEADER.size:]
    if len(payload) != length:
        raise SnapshotError(f"snapshot {path} is truncated: header "
                            f"promises {length} payload bytes, "
                            f"found {len(payload)}")
    if hashlib.sha256(payload).digest() != digest:
        raise SnapshotError(f"snapshot {path} failed its checksum")

    with np.load(io.BytesIO(payload), allow_pickle=False) as arrays:
        obj_meta = pickle.loads(arrays["pickled_meta"].tobytes())
        m = obj_meta["num_fragments"]
        fragments: List[Fragment] = []
        for fid in range(m or 0):
            local, csr = _unpack_graph(f"f{fid}_", arrays, obj_meta)
            fm = obj_meta[f"f{fid}_"]
            frag = Fragment(fid, local, set(fm["owned"]),
                            set(fm["inner"]), set(fm["outer"]))
            # The stored arrays *are* a current CSR snapshot: install it
            # so a warm-started service serves its first kernel query
            # without re-deriving CSR from the dict graph (installs do
            # not count as builds — csr_snapshots_built stays honest).
            frag.install_csr(csr)
            fragments.append(frag)
        if obj_meta["g_"].get("derived"):
            graph = _derive_base(obj_meta["g_"], fragments)
        else:
            graph, _csr = _unpack_graph("g_", arrays, obj_meta)
        decoded = time.perf_counter()
        if graph.content_hash() != obj_meta["content_hash"]:
            raise SnapshotError(
                f"snapshot {path} decoded to a different graph than was "
                "saved (content hash mismatch)")
        verify_s = time.perf_counter() - decoded
        fragmentation = None
        if m is not None:
            fragmentation = Fragmentation.restored(
                graph, fragments,
                strategy_name=obj_meta["strategy_name"],
                version=obj_meta["frag_version"])
    if phases is not None:
        phases.update(verify_s=verify_s,
                      decode_s=time.perf_counter() - started - verify_s)
    return LoadedSnapshot(graph=graph, fragmentation=fragmentation,
                          meta=obj_meta["meta"],
                          content_hash=obj_meta["content_hash"])
