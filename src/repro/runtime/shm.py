"""Zero-copy shared-memory fragment plane for the process backend.

The paper's parallel model has workers hold their fragments locally and
exchange only border updates; shipping whole pickled fragments through
pipes violated that on every cold pool.  This module lets the
coordinator *publish* a fragment once — its CSR arrays plus a pickled
copy of the dict-graph state in one named segment — and ship only a
:class:`SegmentDescriptor` (a few hundred bytes) per fragment.  Workers
attach the segment and map the arrays in place: fragment bytes on the
pipe drop to near zero and the worker-side CSR rebuild disappears.

Layout of a segment (array offsets 64-byte aligned)::

    indptr | indices | weights | rev_indptr | rev_indices | rev_weights
           | meta (pickled Fragment: fid, dict graph, owned/inner/outer)

Providers: on Linux segments are plain files in ``/dev/shm``
(``repro-shm-<pid>-…``) — the tmpfs and the namespace the channel's
>1MB payload spill uses too (``repro-shm-<pid>-ipc-…``) — because
``multiprocessing.shared_memory``'s resource tracker unlinks attached
segments behind long-lived pools.  The names
carry the publishing PID so :func:`sweep_stale` can reclaim segments
whose owner died without unlinking (the same discipline as the
Arbitrator's checkpoint GC).  Where ``/dev/shm`` is unavailable,
``multiprocessing.shared_memory`` is the fallback provider.  Set
``REPRO_SHM=0`` to disable the plane entirely (every caller degrades to
the pickle shipping path).

Lifecycle is owned by :class:`ShmArena` (one per ``ProcessBackend``):
entries are keyed by ``(token_id, fid)``, re-published when a
structural delta makes the arrays stale, patched in place for
weight-only deltas, reference-counted against worker cache mirrors, and
unlinked on token retirement, LRU eviction, arena close and interpreter
exit.  Unlinking removes only the *name* — existing worker mappings
stay valid until the last view is dropped (POSIX semantics), so eager
unlink is always safe.
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
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["SegmentDescriptor", "ShmArena", "attach_fragment",
           "forget_token", "global_stats", "invalidate_token",
           "notify_delta", "provider", "shm_available", "spill_prefix",
           "sweep_stale"]

#: every segment name starts with this prefix followed by the publishing
#: PID — the stale sweep parses the PID back out to find orphans
_SEG_PREFIX = "repro-shm-"
_ENV_VAR = "REPRO_SHM"
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
class _Segment:
    """A mapped segment: named, with a buffer.  The mapping object is
    pinned here (and transitively by every numpy view built over
    ``buf``); it is torn down by GC, never explicitly — closing a mmap
    with exported views raises ``BufferError``."""

    __slots__ = ("name", "buf", "_keepalive")

    def __init__(self, name: str, buf, keepalive) -> None:
        self.name = name
        self.buf = buf
        self._keepalive = keepalive


class _FileProvider:
    """Named files on a tmpfs (``/dev/shm``), mapped with ``mmap``.

    The primary provider on Linux: attach-side mappings are
    ``PROT_READ`` (true read-only views) and nothing registers with the
    multiprocessing resource tracker, so a long-lived pool can outlive
    the publishing coordinator's helper processes without spurious
    unlinks."""

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
        return _Segment(name, memoryview(mapping), mapping)

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
        return _Segment(name, memoryview(mapping), mapping)

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


class _SharedMemoryProvider:
    """``multiprocessing.shared_memory`` fallback for platforms without
    a writable ``/dev/shm``.  Attached views are read-write (POSIX shm
    has no per-mapping protection here) and orphan listing is
    unavailable, so :func:`sweep_stale` is a no-op under it."""

    kind = "shared_memory"

    def create(self, name: str, size: int) -> _Segment:
        from multiprocessing import shared_memory
        seg = shared_memory.SharedMemory(name=name, create=True, size=size)
        return _Segment(name, seg.buf, seg)

    def attach(self, name: str, size: int) -> _Segment:
        from multiprocessing import shared_memory
        seg = shared_memory.SharedMemory(name=name)
        if seg.buf.nbytes < size:
            raise OSError(f"segment {name} truncated: "
                          f"{seg.buf.nbytes} < {size} bytes")
        return _Segment(name, seg.buf, seg)

    def unlink(self, name: str) -> None:
        from multiprocessing import shared_memory
        try:
            seg = shared_memory.SharedMemory(name=name)
        except OSError:
            return
        try:
            seg.unlink()
        finally:
            seg.close()

    def segments(self) -> List[str]:  # pragma: no cover - no listing API
        return []


_provider_lock = threading.Lock()
_provider_box: List[Any] = []


def _make_provider():
    if os.environ.get(_ENV_VAR, "").strip().lower() in ("0", "off", "false"):
        return None
    if os.path.isdir(_DEFAULT_DIR) and os.access(_DEFAULT_DIR, os.W_OK):
        return _FileProvider(_DEFAULT_DIR)
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except Exception:  # pragma: no cover - crippled platform
        return None
    return _SharedMemoryProvider()


def provider():
    """The process-wide segment provider (None when shm is disabled or
    unavailable — every caller then uses the pickle shipping path)."""
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
    entry for the pickled fragment), and identity/version bookkeeping.
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
    """Write one fragment — CSR arrays + pickled dict-graph state — into
    a fresh named segment.  Raises ``OSError`` on provider failure (the
    caller degrades to pickle shipping)."""
    meta = pickle.dumps(frag, protocol=pickle.HIGHEST_PROTOCOL)
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
    """Map a published fragment (worker side): unpickle the dict-graph
    state from the segment's meta region and install zero-copy CSR views
    over its array regions.  Returns ``(fragment, segment)``; the caller
    must pin the segment for as long as the views may be used.

    ``timings``, when a dict, receives ``attach_s`` (map + meta
    unpickle) and ``install_s`` (CSR view construction + install) for
    the telemetry plane's worker-side spans."""
    t0 = time.perf_counter() if timings is not None else 0.0
    prov = provider()
    if prov is None:
        raise OSError("no shared-memory provider available")
    seg = prov.attach(desc.name, desc.nbytes)
    fields = {name: (dtype, count, off)
              for name, dtype, count, off in desc.layout}
    _dt, mcount, moff = fields["meta"]
    frag = pickle.loads(bytes(seg.buf[moff:moff + mcount]))
    if timings is not None:
        t1 = time.perf_counter()
        timings["attach_s"] = t1 - t0
    # Rebuild the identity maps from the dict graph: pickle preserves
    # insertion order, and a descriptor is only ever served for a CSR
    # that is current for the published graph, so the dict order here is
    # the order the arrays were built in.
    node_of = list(frag.graph._succ)
    if len(node_of) != desc.n:
        raise OSError(f"segment {desc.name} node count mismatch: "
                      f"{len(node_of)} != {desc.n}")
    id_of = {v: i for i, v in enumerate(node_of)}
    labels = [frag.graph.node_label(v) for v in node_of]
    csr = CSRGraph.from_shared(seg.buf, desc.layout, n=desc.n,
                               directed=desc.directed, id_of=id_of,
                               node_of=node_of, labels=labels)
    frag.install_csr(csr, shared=True)
    if timings is not None:
        timings["install_s"] = time.perf_counter() - t1
    return frag, seg


def _coordinator_views(seg, desc, csr):
    """Read-only CSR over the coordinator's own (writable) mapping, plus
    the writable per-field arrays used for in-place weight patching."""
    patch: Dict[str, np.ndarray] = {}
    ro: Dict[str, np.ndarray] = {}
    for name, dtype, count, off in desc.layout:
        if name == "meta":
            continue
        arr = np.frombuffer(seg.buf, dtype=dtype, count=count, offset=off)
        patch[name] = arr
        view = arr.view()
        view.flags.writeable = False
        ro[name] = view
    shared = CSRGraph(desc.n, desc.directed, ro["indptr"], ro["indices"],
                      ro["weights"], ro["rev_indptr"], ro["rev_indices"],
                      ro["rev_weights"], csr.id_of, csr.node_of, csr.labels)
    return shared, patch


# ---------------------------------------------------------------------------
# Arena
# ---------------------------------------------------------------------------
class _Entry:
    __slots__ = ("seg", "descriptor", "csr", "patch", "version",
                 "published_version", "generation", "compat_floor",
                 "refs", "stale")

    def __init__(self, seg, descriptor, csr, patch, version,
                 generation, compat_floor, refs) -> None:
        self.seg = seg
        self.descriptor = descriptor
        self.csr = csr
        self.patch = patch
        #: fragmentation version the *arrays* are current for
        self.version = version
        #: fragmentation version the pickled meta region is current for
        #: (falls behind ``version`` after in-place patches — new
        #: attaches then force a republish, existing mappings stay good)
        self.published_version = version
        self.generation = generation
        #: oldest generation whose arrays hold the same values as this
        #: one — a worker mapping any generation >= the floor may keep
        #: its CSR across a weight-only replay
        self.compat_floor = compat_floor
        #: worker cache-mirror entries referencing this segment
        self.refs = refs
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
        self.patches = 0
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
            current = (entry is not None and not entry.stale
                       and entry.version == version)
            if current and entry.published_version == version:
                return entry.descriptor
            generation = entry.generation + 1 if entry is not None else 0
            compat_floor = entry.compat_floor if current else generation
            refs = entry.refs if entry is not None else 0
            if entry is not None:
                self._provider.unlink(entry.descriptor.name)
            csr = frag.csr()
            try:
                seg, desc = publish_fragment(self._provider, token_id,
                                             version, generation, frag, csr)
            except (OSError, ValueError, pickle.PicklingError):
                self._entries.pop(key, None)
                return None
            shared_csr, patch = _coordinator_views(seg, desc, csr)
            self._entries[key] = _Entry(seg, desc, shared_csr, patch,
                                        version, generation, compat_floor,
                                        refs)
            self.publishes += 1
            evict = list(self._token_order)[:-self._max_tokens] \
                if len(self._token_order) > self._max_tokens else []
            for tid in evict:
                self._forget_locked(tid)
        # The coordinator adopts the shared view too: its own fragment
        # now reads the published pages, weight patches are visible on
        # both sides, and the dict->CSR build happens once per publish.
        frag.install_csr(shared_csr, shared=True)
        return desc

    def current_generation(self, token_id: int, version: int,
                           fid: int) -> Optional[int]:
        """Generation serving ``(token_id, fid)`` at ``version``, if the
        entry's arrays are current (used by tests and leak audits)."""
        with self._lock:
            entry = self._entries.get((token_id, fid))
            if entry is None or entry.stale or entry.version != version:
                return None
            return entry.generation

    def keepable_fids(self, token_id: int, version: int,
                      attached: Dict[Tuple[int, int], int],
                      fids: Iterable[int]) -> Set[int]:
        """Which of ``fids`` a worker holding ``attached`` generation
        records may replay *without* dropping its mapped CSR: the
        entry's arrays are current at ``version`` and the worker's
        generation is value-compatible (patched in place to the same
        values)."""
        keep: Set[int] = set()
        with self._lock:
            for fid in fids:
                gen = attached.get((token_id, fid))
                if gen is None:
                    continue
                entry = self._entries.get((token_id, fid))
                if (entry is not None and not entry.stale
                        and entry.version == version
                        and gen >= entry.compat_floor):
                    keep.add(fid)
        return keep

    # -- delta maintenance ---------------------------------------------
    def apply_delta(self, token_id: int, new_version: int,
                    touched: Dict[int, Any]) -> Dict[int, Any]:
        """Advance this arena's entries past one applied update batch.

        Per entry of ``token_id``: untouched fragments stay current at
        the new version; weight-only deltas are patched into the mapped
        arrays in place (both sides see the new weights with no
        republish); border-only deltas keep the arrays but stale the
        meta region; structural deltas stale the entry (lazily
        republished at the next descriptor request).  Returns
        ``{fid: shared_csr}`` for the fragments patched in place — the
        caller keeps those snapshots live instead of invalidating."""
        patched: Dict[int, Any] = {}
        if self._provider is None:
            return patched
        with self._lock:
            for (tid, fid), entry in self._entries.items():
                if tid != token_id or entry.stale:
                    continue
                delta = touched.get(fid)
                if delta is None:
                    entry.version = new_version
                    entry.published_version = new_version
                elif not delta.mutates_graph:
                    # border-set churn only: arrays untouched, pickled
                    # meta stale -> republish before any new attach
                    entry.version = new_version
                elif getattr(delta, "weight_only", False) \
                        and self._patch(entry, delta):
                    entry.version = new_version
                    self.patches += 1
                    patched[fid] = entry.csr
                else:
                    entry.stale = True
        return patched

    @staticmethod
    def _patch(entry: _Entry, delta) -> bool:
        """Write a weight-only delta into the mapped arrays.  Returns
        False (caller stales the entry) if any changed edge is missing
        from the published CSR — half-applied writes are then never
        served."""
        csr = entry.csr
        id_of = csr.id_of
        fwd = entry.patch["weights"]
        rev = entry.patch["rev_weights"]
        indptr, indices = csr.indptr, csr.indices
        rev_indptr, rev_indices = csr.rev_indptr, csr.rev_indices
        for u, v, _old, new in delta.weight_changes:
            pairs = [(u, v)]
            if not csr.directed and u != v:
                # the local graph stores both orientations; the delta
                # records the one(s) the owner saw
                pairs.append((v, u))
            for a, b in pairs:
                ai = id_of.get(a)
                bi = id_of.get(b)
                if ai is None or bi is None:
                    return False
                s, e = indptr[ai], indptr[ai + 1]
                hits = np.nonzero(indices[s:e] == bi)[0]
                if hits.size == 0:
                    return False
                fwd[s + hits] = new
                s, e = rev_indptr[bi], rev_indptr[bi + 1]
                hits = np.nonzero(rev_indices[s:e] == ai)[0]
                if hits.size == 0:
                    return False
                rev[s + hits] = new
        csr.weights_patched()
        return True

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
                    entry.stale = True

    def _forget_locked(self, token_id: int) -> int:
        released = 0
        for key in [k for k in self._entries if k[0] == token_id]:
            entry = self._entries.pop(key)
            released += entry.refs
            self._provider.unlink(entry.descriptor.name)
        self._token_order.pop(token_id, None)
        return released

    def forget(self, token_id: int) -> int:
        """Unlink and drop every segment of a retired fragmentation
        token.  Returns how many worker references were outstanding
        (normal while the pool is warm — the mappings stay valid)."""
        with self._lock:
            if self._provider is None:
                return 0
            return self._forget_locked(token_id)

    def stats(self) -> Tuple[int, int]:
        """(active segments, mapped bytes) currently owned."""
        with self._lock:
            segs = len(self._entries)
            nbytes = sum(e.descriptor.nbytes for e in self._entries.values())
        return segs, nbytes

    def close(self) -> None:
        """Unlink everything.  References still outstanding here are
        real leaks (the owner released worker mirrors first) and are
        recorded in ``ref_leaks``."""
        with self._lock:
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
            self._token_order.clear()
        for entry in entries:
            self.ref_leaks += entry.refs
            if self._provider is not None:
                self._provider.unlink(entry.descriptor.name)
        _arenas.discard(self)


# ---------------------------------------------------------------------------
# Module registry: one coordinator may own several arenas (one per
# backend instance); fragmentation-level hooks fan out to all of them.
# ---------------------------------------------------------------------------
_arenas: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


def notify_delta(token_id: int, new_version: int,
                 touched: Dict[int, Any]) -> Dict[int, Any]:
    """Fan an applied update batch out to every live arena; returns the
    union of fragments whose mapped arrays were patched in place."""
    patched: Dict[int, Any] = {}
    for arena in list(_arenas):
        patched.update(arena.apply_delta(token_id, new_version, touched))
    return patched


def invalidate_token(token_id: int) -> None:
    for arena in list(_arenas):
        arena.invalidate(token_id)


def forget_token(token_id: int) -> None:
    for arena in list(_arenas):
        arena.forget(token_id)


def global_stats() -> Tuple[int, int]:
    """(active segments, mapped bytes) across every live arena."""
    segs = 0
    nbytes = 0
    for arena in list(_arenas):
        s, b = arena.stats()
        segs += s
        nbytes += b
    return segs, nbytes


def sweep_stale(prov=None) -> int:
    """Unlink segments whose publishing process is dead (mirrors the
    Arbitrator's stale-checkpoint GC).  Live publishers' segments are
    left alone.  Returns the number of segments removed."""
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
