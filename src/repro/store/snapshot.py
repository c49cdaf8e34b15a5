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
``weights``) and everything object-shaped — node identities, labels,
the tombstones' ids (a fragment's id table round-trips as it is),
border sets, the saved graph's
:meth:`~repro.graph.graph.Graph.content_hash` — as one pickled metadata
blob stored as a ``uint8`` array.  Loading verifies the header checksum
(bytes arrived intact) *and* the content hash (the arrays are the graph
that was saved): the hash of the live dict graph taken at save is
recomputed from the decoded arrays (:func:`~repro.graph.csr.union_hash`),
and the dict graphs handed out are built from those arrays on first use
(:class:`~repro.graph.graph.DeferredGraph`).  The hash is part of the
format: version 2 stores the 64-bit array-computed one; a version 1 file
(a per-record ``crc32`` fold nothing computes any more) is refused.

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
from typing import Dict, List, Optional, Union

import numpy as np

from repro.graph.csr import CSRGraph, union_hash
from repro.graph.graph import DeferredGraph, Graph
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
    caller-supplied metadata dict passed to :func:`save_snapshot`.  The
    graphs are deferred: their dicts are built on first use.
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
    if csr.dead.size:  # the tombstones of a fragment's id table
        meta[prefix]["dead"] = csr.dead.tolist()


def _derive_base(g: Graph, fragments: List[Fragment]) -> None:
    """Fill ``g`` with the base graph, merged from the fragments' local
    graphs before an update mutates one (``apply_delta`` changes the
    base graph first at every step).  Every stored orientation of a base
    edge lives at some fragment (edge-cut: at its source's owner;
    vertex-cut: the fragments partition the edges), so merging the
    adjacency rows in C-speed dict updates reproduces the base
    adjacency; node labels come from each node's owner."""
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
        # duplication: store only the fragments plus the base metadata;
        # the loader hashes the fragments' arrays against the saved
        # graph and derives the base graph from them.
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
    decoded arrays' content hash.  Raises :exc:`SnapshotError` on any
    truncation, corruption or format mismatch.

    ``phases``, when given, receives the seconds spent in ``verify_s``
    (hashing the decoded arrays) and ``decode_s`` (everything else).
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
        gm, m = obj_meta["g_"], obj_meta["num_fragments"]
        prefixes = ["g_"] if m is None else [f"f{fid}_" for fid in range(m)]
        try:
            snaps = [CSRGraph.from_arrays(
                **{key: obj_meta[prefix][key]
                   for key in ("directed", "node_of", "labels", "dead")
                   if key in obj_meta[prefix]},
                **{name: arrays[prefix + name]
                   for name in CSRGraph.SHARED_FIELDS})
                for prefix in prefixes]
        except (ValueError, KeyError, IndexError) as exc:
            raise SnapshotError(f"bad snapshot {path}: {exc}") from exc
    # Every graph handed out is deferred: its dicts are built from these
    # arrays on first use, so the arrays are what is verified.
    fragmentation = None
    if m is None:
        graph = snaps[0].to_graph(gm["edge_labels"])
    else:
        fragments = [Fragment(fid, snap.to_graph(fm["edge_labels"]),
                              set(fm["owned"]), set(fm["inner"]),
                              set(fm["outer"])) for fid, (snap, fm) in
                     enumerate(zip(snaps, map(obj_meta.get, prefixes)))]
        for frag, snap in zip(fragments, snaps):
            # the stored arrays *are* a current CSR snapshot (installs
            # do not count as builds: csr_snapshots_built stays honest)
            frag.install_csr(snap)
        graph = DeferredGraph(gm["directed"],
                              lambda g: _derive_base(g, fragments),
                              gm["edge_labels"])
        # the persisted version, no delta log, a fresh cache token: no
        # replay chain is proven across a restart (workers re-ship)
        fragmentation = Fragmentation(graph, fragments,
                                      strategy_name=obj_meta["strategy_name"])
        fragmentation.version = obj_meta["frag_version"]
    decoded = time.perf_counter()
    try:  # nodes from their owners; G_P: no node held but unowned
        owned = [np.arange(snaps[0].n)] if m is None else [np.fromiter(
            map(snap.id_of.__getitem__, frag.owned), dtype=np.int64)
            for snap, frag in zip(snaps, fragments)]
        intact = union_hash(gm["directed"], list(zip(snaps, owned)),
                            gm["edge_labels"]) == obj_meta["content_hash"]
        intact &= m is None or len(fragmentation.gp._holders) == len(
            fragmentation.gp)
    except (KeyError, IndexError):
        intact = False
    if not intact:
        raise SnapshotError(
            f"snapshot {path} decoded to a different graph than was "
            "saved (content hash mismatch)")
    verify_s = time.perf_counter() - decoded
    if phases is not None:
        phases.update(verify_s=verify_s,
                      decode_s=time.perf_counter() - started - verify_s)
    return LoadedSnapshot(graph=graph, fragmentation=fragmentation,
                          meta=obj_meta["meta"],
                          content_hash=obj_meta["content_hash"])
