"""Zero-copy shared-memory fragment plane for the process backend.

The paper's parallel model has workers hold their fragments locally and
exchange only border updates; shipping whole pickled fragments through
pipes violated that on every cold pool.  This module lets the
coordinator *publish* a fragment once — its CSR arrays and what is not
an array, the border sets as dense ids — in one named segment, and ship
only a :class:`SegmentDescriptor` (a few hundred bytes) per fragment.
Workers map the arrays in place and build a dict graph from them only
when an update batch needs one: no dict graph crosses the segment.

Layout of a segment (array offsets 64-byte aligned)::

    indptr | indices | weights
           | meta (pickled node ids, labels, edge labels, owned/inner/outer)

A segment is never written after publish.  A fragment an update batch
touches retires its snapshot like any other and splices the next one
from the (still mapped, read-only) arrays and its dirty rows; the
segment is merely *stale*, and a worker that lacks the fragment later
gets a fresh publish.

The provider is plain files in ``/dev/shm`` (``repro-shm-<pid>-…``) —
the tmpfs and the namespace the channel's >1MB payload spill uses too
(``repro-shm-<pid>-ipc-…``) — mapped ``PROT_READ`` by attachers; nothing
registers with ``multiprocessing``'s resource tracker, which would
unlink attached segments behind long-lived pools.  The names carry the
publishing PID so :func:`sweep_stale` can reclaim segments whose owner
died without unlinking.  Without a writable ``/dev/shm`` the plane
reports unavailable and every caller uses the pickle shipping path.

Lifecycle is owned by :class:`ShmArena` (one per ``ProcessBackend``):
entries are keyed by ``(token_id, fid)``, reference-counted against
worker cache mirrors, and unlinked the moment they go stale (an update
batch touched the fragment, or the version moved out of band), on token
retirement, LRU eviction, arena close and interpreter exit.  Unlinking
removes only the *name* — existing mappings stay valid until the last
view is dropped (POSIX semantics), so eager unlink is always safe, and
what :meth:`ShmArena.stats` counts is exactly what can still be
attached.
"""

from __future__ import annotations

import atexit
import itertools
import mmap
import os
import pickle
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import Fragment

__all__ = ["SegmentDescriptor", "ShmArena", "attach_fragment",
           "forget_token", "global_stats", "invalidate_token",
           "notify_delta", "provider", "shm_available", "spill_prefix",
           "sweep_stale"]

#: every segment name starts with this prefix followed by the publishing
#: PID — the stale sweep parses the PID back out to find orphans
_SEG_PREFIX = "repro-shm-"
_DEFAULT_DIR = "/dev/shm"
_counter = itertools.count(1)


def _segment_name(fid: int) -> str:
    return f"{_SEG_PREFIX}{os.getpid()}-{next(_counter):x}-f{fid}"


def spill_prefix() -> str:
    """Name prefix of the process channel's >1 MB spill files: in the
    segments' namespace, so a file whose sender was killed before the
    reader took it is reclaimed by the same dead-owner sweep."""
    return f"{_SEG_PREFIX}{os.getpid()}-ipc-"


def _owner_pid(name: str) -> Optional[int]:
    """PID encoded in a segment name, or None if it isn't one of ours."""
    if not name.startswith(_SEG_PREFIX):
        return None
    head = name[len(_SEG_PREFIX):].split("-", 1)[0]
    return int(head) if head.isdigit() else None


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------
class _Segment(NamedTuple):
    """A mapped segment: named, with a buffer.  The buffer pins the
    mapping object (and every numpy view built over ``buf`` pins the
    buffer); it is torn down by GC, never explicitly — closing a mmap
    with exported views raises ``BufferError``."""

    name: str
    buf: memoryview


class _FileProvider:
    """Named files on a tmpfs (``/dev/shm``), mapped with ``mmap``.

    Attach-side mappings are ``PROT_READ`` (true read-only views) and
    nothing registers with the multiprocessing resource tracker, so a
    long-lived pool can outlive the publishing coordinator's helper
    processes without spurious unlinks."""

    kind = "file"

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def create(self, name: str, size: int) -> _Segment:
        fd = os.open(self._path(name),
                     os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            os.ftruncate(fd, size)
            mapping = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        return _Segment(name, memoryview(mapping))

    def attach(self, name: str, size: int) -> _Segment:
        fd = os.open(self._path(name), os.O_RDONLY)
        try:
            actual = os.fstat(fd).st_size
            if actual < size:
                raise OSError(f"segment {name} truncated: "
                              f"{actual} < {size} bytes")
            mapping = mmap.mmap(fd, size, prot=mmap.PROT_READ)
        finally:
            os.close(fd)
        return _Segment(name, memoryview(mapping))

    def unlink(self, name: str) -> None:
        try:
            os.unlink(self._path(name))
        except OSError:
            pass

    def segments(self) -> List[str]:
        try:
            entries = os.listdir(self.directory)
        except OSError:
            return []
        return [e for e in entries if e.startswith(_SEG_PREFIX)]


_provider_lock = threading.Lock()
_provider_box: List[Any] = []


def _make_provider():
    if os.path.isdir(_DEFAULT_DIR) and os.access(_DEFAULT_DIR, os.W_OK):
        return _FileProvider(_DEFAULT_DIR)
    return None


def provider():
    """The process-wide segment provider: a :class:`_FileProvider`, or
    None when ``/dev/shm`` is not writable — every caller then uses the
    pickle shipping path."""
    with _provider_lock:
        if not _provider_box:
            _provider_box.append(_make_provider())
        return _provider_box[0]


def shm_available() -> bool:
    return provider() is not None


# ---------------------------------------------------------------------------
# Publish / attach
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentDescriptor:
    """Everything a worker needs to map a published fragment: the
    segment name, its total size, the array layout
    (``(field, dtype, count, offset)`` entries plus a trailing ``meta``
    entry for the pickled non-arrays), and identity/version bookkeeping.
    A descriptor is a few hundred bytes — this is what crosses the pipe
    instead of the fragment."""

    name: str
    nbytes: int
    layout: Tuple[Tuple[str, str, int, int], ...]
    n: int
    directed: bool
    token_id: int
    fid: int
    version: int
    generation: int


def publish_fragment(prov, token_id: int, version: int, generation: int,
                     frag, csr) -> Tuple[_Segment, SegmentDescriptor]:
    """Write one fragment — CSR arrays, then a pickle of node ids and
    labels, the tombstones' ids, edge labels and the border sets as
    dense ids; no dict graph — into a fresh named segment.  Raises
    ``OSError`` on provider failure (the caller degrades to pickle
    shipping)."""
    ids = [np.fromiter(map(csr.id_of.__getitem__, nodes), np.int64)
           for nodes in (frag.owned, frag.inner, frag.outer)]
    meta = pickle.dumps((csr.node_of, csr.labels, csr.dead.tolist(),
                         frag.graph._edge_labels, *ids),
                        protocol=pickle.HIGHEST_PROTOCOL)
    meta_off = csr.shared_nbytes()
    nbytes = meta_off + len(meta)
    seg = prov.create(_segment_name(frag.fid), max(nbytes, 1))
    layout = csr.to_shared(seg.buf)
    seg.buf[meta_off:meta_off + len(meta)] = meta
    layout.append(("meta", "|u1", len(meta), meta_off))
    desc = SegmentDescriptor(name=seg.name, nbytes=nbytes,
                             layout=tuple(layout), n=csr.n,
                             directed=csr.directed, token_id=token_id,
                             fid=frag.fid, version=version,
                             generation=generation)
    return seg, desc


def attach_fragment(desc: SegmentDescriptor, timings=None):
    """Map a published fragment (worker side): zero-copy CSR views over
    the segment's arrays, installed on a fragment whose graph is built
    from them on first use (the first replayed delta).  Returns
    ``(fragment, segment)``; the caller must pin the segment for as long
    as the views may be used.

    ``timings``, when a dict, receives ``attach_s`` (map + meta
    unpickle) and ``install_s`` (CSR view construction + install) for
    the telemetry plane's worker-side spans."""
    t0 = time.perf_counter() if timings is not None else 0.0
    prov = provider()
    if prov is None:
        raise OSError("no shared-memory provider available")
    seg = prov.attach(desc.name, desc.nbytes)
    _meta, _dt, mcount, moff = desc.layout[-1]
    node_of, labels, dead, edge_labels, *ids = pickle.loads(
        seg.buf[moff:moff + mcount])
    if timings is not None:
        t1 = time.perf_counter()
        timings["attach_s"] = t1 - t0
    if len(node_of) != desc.n:
        raise OSError(f"segment {desc.name} node count mismatch: "
                      f"{len(node_of)} != {desc.n}")
    csr = CSRGraph.from_shared(seg.buf, desc.layout, directed=desc.directed,
                               node_of=node_of, labels=labels, dead=dead)
    frag = Fragment(desc.fid, csr.to_graph(edge_labels), *(
        set(map(node_of.__getitem__, a.tolist())) for a in ids))
    frag.install_csr(csr, shared=True)
    if timings is not None:
        timings["install_s"] = time.perf_counter() - t1
    return frag, seg


# ---------------------------------------------------------------------------
# Arena
# ---------------------------------------------------------------------------
class _Entry:
    __slots__ = ("descriptor", "version", "refs", "stale")

    def __init__(self, descriptor, version, refs) -> None:
        self.descriptor = descriptor
        #: fragmentation version the segment is current for
        self.version = version
        #: worker cache-mirror entries referencing this segment (or an
        #: older generation of it: the count belongs to the key)
        self.refs = refs
        #: the name is unlinked and never served again; the entry stays
        #: for its reference count and generation
        self.stale = False


class ShmArena:
    """Owner of published segments for one coordinator.

    Keyed by ``(token_id, fid)``; bounded to ``max_tokens`` distinct
    fragmentation tokens (mirroring the worker cache LRU) so abandoned
    fragmentations cannot pin segments forever.  Thread-safe."""

    def __init__(self, max_tokens: int = 8) -> None:
        self._provider = provider()
        self._entries: Dict[Tuple[int, int], _Entry] = {}
        #: insertion-ordered token-id recency for the LRU bound
        self._token_order: Dict[int, None] = {}
        self._max_tokens = max_tokens
        self._lock = threading.Lock()
        self._closed = False
        # lifetime counters (benchmarks, tests, leak audits)
        self.publishes = 0
        self.ref_leaks = 0
        if self._provider is not None:
            sweep_stale(self._provider)
        _arenas.add(self)

    # -- publication ---------------------------------------------------
    @property
    def available(self) -> bool:
        return self._provider is not None and not self._closed

    def descriptor_for(self, token_id: int, version: int,
                       frag) -> Optional[SegmentDescriptor]:
        """Descriptor for ``frag`` current at ``version``, publishing or
        republishing as needed.  Returns None when shm is unavailable or
        publication fails — the caller ships the fragment by pickle."""
        if not self.available:
            return None
        key = (token_id, frag.fid)
        with self._lock:
            self._token_order.pop(token_id, None)
            self._token_order[token_id] = None
            entry = self._entries.get(key)
            generation = refs = 0
            if entry is not None:
                if not entry.stale and entry.version == version:
                    return entry.descriptor
                self._retire(entry)
                generation = entry.descriptor.generation + 1
                refs = entry.refs
            csr = frag.csr()
            try:
                seg, desc = publish_fragment(self._provider, token_id,
                                             version, generation, frag, csr)
            except (OSError, ValueError, pickle.PicklingError):
                self._entries.pop(key, None)
                return None
            self._entries[key] = _Entry(desc, version, refs)
            self.publishes += 1
            evict = list(self._token_order)[:-self._max_tokens] \
                if len(self._token_order) > self._max_tokens else []
            for tid in evict:
                self._forget_locked(tid)
        # The coordinator adopts the published pages too (read-only
        # views over its own mapping) and lets its private arrays go.
        frag.install_csr(CSRGraph.from_shared(
            seg.buf, desc.layout, directed=csr.directed, node_of=csr.node_of,
            labels=csr.labels, dead=csr.dead, id_of=csr.id_of), shared=True)
        return desc

    def current_generation(self, token_id: int, version: int,
                           fid: int) -> Optional[int]:
        """Generation serving ``(token_id, fid)`` at ``version``, if the
        entry is current (used by tests and leak audits)."""
        with self._lock:
            entry = self._entries.get((token_id, fid))
            if entry is None or entry.stale or entry.version != version:
                return None
            return entry.descriptor.generation

    # -- delta maintenance ---------------------------------------------
    def apply_delta(self, token_id: int, new_version: int,
                    touched: Dict[int, Any]) -> None:
        """Advance this arena's entries past one applied update batch:
        a fragment the batch touched (its arrays or its border sets,
        which the meta region holds as dense ids) goes stale and is
        republished at the next descriptor request; the others are
        current at the new version."""
        with self._lock:
            for (tid, fid), entry in self._entries.items():
                if tid != token_id or entry.stale:
                    continue
                if fid in touched:
                    self._retire(entry)
                else:
                    entry.version = new_version

    def _retire(self, entry: _Entry) -> None:
        """Stale ``entry`` and unlink its name (caller holds the lock).
        Mappings of it stay valid; nothing new can attach."""
        if not entry.stale:
            entry.stale = True
            self._provider.unlink(entry.descriptor.name)

    # -- lifecycle -----------------------------------------------------
    def retain(self, token_id: int, fid: int) -> bool:
        with self._lock:
            entry = self._entries.get((token_id, fid))
            if entry is None:
                return False
            entry.refs += 1
            return True

    def release(self, token_id: int, fid: int) -> None:
        with self._lock:
            entry = self._entries.get((token_id, fid))
            if entry is not None and entry.refs > 0:
                entry.refs -= 1

    def invalidate(self, token_id: int) -> None:
        """Stale every entry of a token (out-of-band version bump)."""
        with self._lock:
            for (tid, _fid), entry in self._entries.items():
                if tid == token_id:
                    self._retire(entry)

    def _forget_locked(self, token_id: int) -> int:
        released = 0
        for key in [k for k in self._entries if k[0] == token_id]:
            entry = self._entries.pop(key)
            released += entry.refs
            self._retire(entry)
        self._token_order.pop(token_id, None)
        return released

    def forget(self, token_id: int) -> int:
        """Unlink and drop every segment of a retired fragmentation
        token.  Returns how many worker references were outstanding
        (normal while the pool is warm — the mappings stay valid)."""
        with self._lock:  # (no provider: nothing was ever published)
            return self._forget_locked(token_id)

    def stats(self) -> Tuple[int, int]:
        """(segments, bytes) a worker could attach right now — stale
        entries are unlinked already and count for nothing."""
        with self._lock:
            live = [e.descriptor.nbytes for e in self._entries.values()
                    if not e.stale]
        return len(live), sum(live)

    def close(self) -> None:
        """Unlink everything.  References still outstanding here are
        real leaks (the owner released worker mirrors first) and are
        recorded in ``ref_leaks``."""
        with self._lock:
            self._closed = True
            for entry in self._entries.values():
                self.ref_leaks += entry.refs
                self._retire(entry)
            self._entries.clear()
            self._token_order.clear()
        _arenas.discard(self)


# ---------------------------------------------------------------------------
# Module registry: one coordinator may own several arenas (one per
# backend instance); fragmentation-level hooks fan out to all of them.
# ---------------------------------------------------------------------------
_arenas: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


def notify_delta(token_id: int, new_version: int,
                 touched: Dict[int, Any]) -> None:
    """Fan an applied update batch out to every live arena."""
    for arena in list(_arenas):
        arena.apply_delta(token_id, new_version, touched)


def invalidate_token(token_id: int) -> None:
    for arena in list(_arenas):
        arena.invalidate(token_id)


def forget_token(token_id: int) -> None:
    for arena in list(_arenas):
        arena.forget(token_id)


def global_stats() -> Tuple[int, int]:
    """(active segments, mapped bytes) across every live arena."""
    stats = [arena.stats() for arena in list(_arenas)]
    return sum(s for s, _b in stats), sum(b for _s, b in stats)


def sweep_stale(prov=None) -> int:
    """Unlink segments whose publishing process is dead.  Live
    publishers' segments are left alone.  Returns the number of segments
    removed."""
    prov = prov or provider()
    if prov is None:
        return 0
    removed = 0
    for name in prov.segments():
        pid = _owner_pid(name)
        if pid is None:
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            prov.unlink(name)
            removed += 1
        except OSError:
            continue  # alive but not ours (EPERM)
    return removed


@atexit.register
def _close_all() -> None:  # pragma: no cover - exit path
    for arena in list(_arenas):
        arena.close()
