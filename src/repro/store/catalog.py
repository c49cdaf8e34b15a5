"""The durable graph catalog: named graphs -> snapshot + WAL chains.

``GraphStore`` is the persistence root the serving layer plugs into
(``GrapeService(store_dir=...)``).  Each stored graph owns one directory
holding a generation-numbered snapshot, the delta WAL accumulated on top
of it, and a ``MANIFEST.json`` naming the current pair::

    <root>/
      graphs/<dir>/
        MANIFEST.json          # {"name", "generation", "snapshot", "wal"}
        snapshot-<N>.snap      # repro.store.snapshot container
        wal-<N>.log            # repro.store.wal chain on top of it

Commits are crash-ordered: a new snapshot and a fresh WAL are fully
written (and fsynced) under the next generation number *before* the
manifest is atomically replaced to point at them; stale generations are
deleted only afterwards.  A crash at any point leaves either the old
consistent pair or the new one — never a mix.

Compaction folds a WAL that outgrew ``compact_threshold_bytes`` into a
fresh snapshot of the live graph (the write path calls
:meth:`maybe_compact` after each append), bounding both recovery time
and disk growth under sustained churn.  Superseded generations are
garbage-collected with a small retention window
(``retain_generations``, default 0: superseded files are removed as
soon as the next generation commits).  Replication setups raise it so
an active tailer a rollover or two behind can still open the previous
chain by path; a tailer mid-drain is safe either way — its open handle
outlives the unlink.

The store is also the **replication substrate**: a read-only store
(``GraphStore(root, read_only=True)``) on the same directory can
:meth:`load` snapshots and :meth:`follow` a graph's WAL chain — a
:class:`WALFollower` streams every appended batch, surviving live
appends and generation rollovers — which is what
:class:`~repro.replication.ReplicaService` tails.  Write fencing
(:meth:`arm_fence` + an ``EPOCH`` file maintained by
:class:`~repro.replication.FailoverCoordinator`) rejects appends from a
deposed primary with a typed :class:`FencedError`.
"""

from __future__ import annotations

import json
import os
import re
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.graph.delta import NormalizedDelta
from repro.graph.graph import Graph
from repro.ioutil import atomic_write_bytes
from repro.obs import events as _events
from repro.partition.base import Fragmentation
from repro.resilience import faults as _faults
from repro.store.snapshot import load_snapshot, save_snapshot
from repro.store.wal import DeltaWAL, WALTailer, WAL_HEADER_SIZE

__all__ = ["FencedError", "GenerationGapError", "GraphStore",
           "StoreMetrics", "StoredGraph", "WALFollower"]

#: default WAL size beyond which the next append triggers compaction
DEFAULT_COMPACT_THRESHOLD = 4 << 20

#: name of the fencing-epoch file under the store root
EPOCH_FILE = "EPOCH"

_CHAIN_FILE = re.compile(r"^(snapshot|wal)-(\d+)\.(snap|log)$")


class FencedError(RuntimeError):
    """A write was rejected because this store handle's fencing epoch is
    no longer the one on disk — a newer primary was promoted.  The
    deposed writer must stop acking updates."""


class GenerationGapError(RuntimeError):
    """A follower fell more generations behind than the store retains
    WAL files for; it must re-bootstrap from the current snapshot."""


@dataclass
class StoreMetrics:
    """Counters for one store's lifetime (folded into
    :class:`~repro.runtime.metrics.ServiceMetrics` by the service)."""

    snapshots_written: int = 0
    snapshots_loaded: int = 0
    wal_appends: int = 0
    wal_replayed: int = 0
    compactions: int = 0
    #: superseded snapshot/WAL chain files removed by generation GC
    files_gced: int = 0
    #: writes rejected because a newer fencing epoch was on disk
    fenced_rejections: int = 0
    #: always-on timers: the ``phases`` of :func:`save_snapshot` and
    #: :func:`load_snapshot`, summed over the snapshots written / loaded
    snapshot_hash_s: float = 0.0
    snapshot_pack_s: float = 0.0
    snapshot_io_s: float = 0.0
    snapshot_decode_s: float = 0.0
    snapshot_verify_s: float = 0.0

    def add_phases(self, phases: Dict[str, float]) -> None:
        for name, seconds in phases.items():
            name = f"snapshot_{name}"
            setattr(self, name, getattr(self, name) + seconds)


@dataclass
class StoredGraph:
    """What :meth:`GraphStore.load` recovered for one graph."""

    name: str
    graph: Graph
    fragmentation: Optional[Fragmentation]
    #: WAL records replayed on top of the snapshot
    replayed: int = 0
    #: the generation the snapshot + WAL chain was read from; together
    #: with ``replayed`` this is the exact ``(generation, seq)`` resume
    #: position a replica hands to :meth:`GraphStore.follow`
    generation: int = 0
    meta: Dict = field(default_factory=dict)
    #: caller-defined identity of the persisted fragmentation (the
    #: service records its ``(strategy signature, m)`` so a restart can
    #: tell whether the stored partition matches its own config)
    frag_key: Optional[List] = None


def _dirname(name: str) -> str:
    """Filesystem-safe directory name for a graph name.

    A readable sanitized prefix plus a crc of the *exact* name — the
    suffix keeps distinct names distinct even where sanitization or the
    filesystem would fold them together (``"G"`` vs ``"g"`` on a
    case-insensitive filesystem, escaped characters, long names).
    """
    safe = "".join(ch if (ch.isalnum() or ch in "-_.") else "_"
                   for ch in name)[:80]
    tag = zlib.crc32(name.encode("utf-8"))
    return f"{safe or 'g'}-{tag:08x}"


class GraphStore:
    """Catalog of durably stored graphs with atomic generation commits.

    Thread-safe, with **per-graph** write locks: one graph's compaction
    (a multi-second snapshot pack + fsync for a large graph) never
    blocks another graph's WAL appends — the serving facade promises
    per-graph concurrency and the store must not quietly serialize it.
    A narrow catalog lock guards only the shared dictionaries and the
    metrics counters.
    """

    def __init__(self, root: Union[str, Path], *,
                 compact_threshold_bytes: int = DEFAULT_COMPACT_THRESHOLD,
                 sync: bool = True,
                 read_only: bool = False,
                 retain_generations: int = 0,
                 node_id: Optional[str] = None):
        self.root = Path(root)
        self.compact_threshold_bytes = compact_threshold_bytes
        self._sync = sync
        self.read_only = read_only
        #: this writer's identity for fencing (``None`` = anonymous)
        self.node_id = node_id
        #: superseded generations whose chain files GC keeps around (so
        #: a tailer that lags by up to this many rollovers can still
        #: open the older WAL); 0 deletes them as soon as superseded
        self.retain_generations = max(0, retain_generations)
        self._graphs_dir = self.root / "graphs"
        if not read_only:
            self._graphs_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = StoreMetrics()
        self._wals: Dict[str, DeltaWAL] = {}
        self._lock = threading.RLock()  # dicts + metrics + closed flag
        self._name_locks: Dict[str, threading.RLock] = {}
        self._closed = False
        #: fencing epoch this handle writes under (None = fencing off)
        self._fence_epoch: Optional[int] = None
        if not read_only:
            # A writable handle arms itself with the epoch currently on
            # disk (0 when no coordinator ever ran — then the check is a
            # tautology and fencing stays invisible).  A deposed primary
            # that kept running therefore fails its next write the
            # moment a coordinator publishes a newer epoch; one that
            # *restarts* and names itself is rejected here, at open,
            # when the published leader is someone else.
            epoch, leader = self.read_epoch()
            if (leader is not None and node_id is not None
                    and leader != node_id):
                self.metrics.fenced_rejections += 1
                raise FencedError(
                    f"store {str(self.root)!r} is fenced to leader "
                    f"{leader!r} at epoch {epoch}; {node_id!r} was "
                    "deposed — rejoin as a replica instead")
            self._fence_epoch = epoch

    def _name_lock(self, name: str) -> threading.RLock:
        with self._lock:
            lock = self._name_locks.get(name)
            if lock is None:
                lock = self._name_locks[name] = threading.RLock()
            return lock

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------
    def _graph_dir(self, name: str) -> Path:
        return self._graphs_dir / _dirname(name)

    def _manifest_path(self, name: str) -> Path:
        return self._graph_dir(name) / "MANIFEST.json"

    def _read_manifest(self, name: str) -> Optional[Dict]:
        try:
            return json.loads(self._manifest_path(name).read_text(
                encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def _commit_manifest(self, name: str, manifest: Dict) -> None:
        """Atomically publish a manifest (tmp write + durable rename)."""
        blob = json.dumps(manifest, indent=2,
                          sort_keys=True).encode("utf-8")
        atomic_write_bytes(self._manifest_path(name), blob)

    # ------------------------------------------------------------------
    # fencing
    # ------------------------------------------------------------------
    @property
    def epoch_path(self) -> Path:
        return self.root / EPOCH_FILE

    def read_epoch(self) -> Tuple[int, Optional[str]]:
        """The on-disk fencing state ``(epoch, leader)``; ``(0, None)``
        when no coordinator has ever written one."""
        try:
            data = json.loads(self.epoch_path.read_text(encoding="utf-8"))
            return int(data["epoch"]), data.get("leader")
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            return 0, None

    def arm_fence(self, epoch: int) -> None:
        """Fence this handle's write path at ``epoch``: every subsequent
        write re-reads the ``EPOCH`` file and raises :class:`FencedError`
        if a newer epoch was published (a replica was promoted over us).
        Writable handles self-arm at open with the on-disk epoch; this
        re-arms after a promotion this handle itself won."""
        self._fence_epoch = epoch

    def _check_fence(self) -> None:
        if self._fence_epoch is None:
            return
        disk_epoch, leader = self.read_epoch()
        if disk_epoch != self._fence_epoch:
            with self._lock:
                self.metrics.fenced_rejections += 1
            raise FencedError(
                f"write fenced: this handle holds epoch "
                f"{self._fence_epoch} but the store is at epoch "
                f"{disk_epoch} (leader {leader!r}); a newer primary was "
                "promoted — stop acking updates")

    def _require_writable(self) -> None:
        if self.read_only:
            raise RuntimeError(
                "graph store was opened read_only=True (replica mode); "
                "writes go through the primary")

    # ------------------------------------------------------------------
    # generation GC
    # ------------------------------------------------------------------
    def _gc_generations(self, name: str, current: int) -> int:
        """Remove superseded snapshot/WAL chain files older than the
        retention window (and orphans from crashed commits *newer* than
        the committed generation).  Returns the number of files removed.

        Retention keeps ``retain_generations`` superseded generations on
        disk so an active follower that lags by a rollover or two can
        still open the older chain; anything further back is garbage —
        its content is folded into the current snapshot.  Tailers
        holding open handles to a removed file keep reading it (POSIX
        unlink semantics), so GC never corrupts an in-flight drain.
        """
        gdir = self._graph_dir(name)
        keep_floor = current - self.retain_generations
        removed = 0
        try:
            children = list(gdir.iterdir())
        except OSError:
            return 0
        for child in children:
            m = _CHAIN_FILE.match(child.name)
            if m is None:
                continue
            generation = int(m.group(2))
            if keep_floor <= generation <= current:
                continue
            try:
                os.unlink(child)
                removed += 1
            except OSError:
                pass
        if removed:
            with self._lock:
                self.metrics.files_gced += removed
        return removed

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Every committed graph name, sorted."""
        found = []
        try:
            children = sorted(self._graphs_dir.iterdir())
        except OSError:
            return found  # read-only store opened before any commit
        for child in children:
            manifest = child / "MANIFEST.json"
            if manifest.is_file():
                try:
                    found.append(json.loads(
                        manifest.read_text(encoding="utf-8"))["name"])
                except (OSError, json.JSONDecodeError, KeyError):
                    continue
        return sorted(found)

    def __contains__(self, name: str) -> bool:
        return self._read_manifest(name) is not None

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def persist_graph(self, name: str, graph: Graph, *,
                      fragmentation: Optional[Fragmentation] = None,
                      frag_key: Optional[List] = None,
                      meta: Optional[Dict] = None) -> None:
        """Commit a fresh snapshot generation for ``name`` (new graph or
        compaction target) with an empty WAL on top.

        ``frag_key`` is an opaque JSON-serializable identity recorded in
        the manifest alongside a persisted fragmentation; loaders use it
        to decide whether the stored partition matches their config.
        """
        with self._name_lock(name):
            self._require_open()
            self._require_writable()
            self._check_fence()
            gdir = self._graph_dir(name)
            gdir.mkdir(parents=True, exist_ok=True)
            old = self._read_manifest(name)
            generation = (old["generation"] + 1) if old else 1
            snap_name = f"snapshot-{generation}.snap"
            wal_name = f"wal-{generation}.log"

            phases: Dict[str, float] = {}
            save_snapshot(gdir / snap_name, graph,
                          fragmentation=fragmentation, meta=meta,
                          phases=phases)
            fresh = DeltaWAL(gdir / wal_name, sync=self._sync)
            self._commit_manifest(name, {
                "name": name, "generation": generation,
                "snapshot": snap_name, "wal": wal_name,
                "frag_key": (frag_key if fragmentation is not None
                             else None),
            })
            # The open WAL handle is swapped only after the manifest
            # committed: if the commit fails, appends keep landing in
            # the WAL the manifest still points at.
            with self._lock:
                self.metrics.snapshots_written += 1
                self.metrics.add_phases(phases)
                wal = self._wals.pop(name, None)
                self._wals[name] = fresh
            if wal is not None:
                wal.close()
            # Only after the manifest points at the new pair are older
            # generations garbage; the sweep also removes orphans from
            # commits that crashed between writing files and committing
            # the manifest.
            self._gc_generations(name, generation)

    def _wal_for(self, name: str) -> DeltaWAL:
        """The graph's open WAL handle (callers hold its name lock)."""
        with self._lock:
            wal = self._wals.get(name)
        if wal is None:
            manifest = self._read_manifest(name)
            if manifest is None:
                raise KeyError(f"no stored graph named {name!r}")
            wal = DeltaWAL(self._graph_dir(name) / manifest["wal"],
                           sync=self._sync)
            with self._lock:
                self._wals[name] = wal
        return wal

    def append_delta(self, name: str, delta: NormalizedDelta,
                     seq: int) -> int:
        """Durably log one applied batch; returns bytes appended."""
        with self._name_lock(name):
            self._require_open()
            self._require_writable()
            self._check_fence()
            written = self._wal_for(name).append(seq, delta)
            with self._lock:
                self.metrics.wal_appends += 1
            _events.emit("wal.append", graph=name, seq=seq, bytes=written)
            return written

    def wal_size(self, name: str) -> int:
        with self._name_lock(name):
            if self.read_only:
                try:
                    return self._current_wal_path(name).stat().st_size
                except OSError:
                    return 0
            return self._wal_for(name).size_bytes

    def has_pending_wal(self, name: str) -> bool:
        """Whether any batch was appended since the last snapshot
        (O(1): compares the log size against its bare header)."""
        with self._name_lock(name):
            if self.read_only:
                return self.wal_size(name) > WAL_HEADER_SIZE
            return self._wal_for(name).has_records

    def fragmentation_key(self, name: str) -> Optional[List]:
        """The ``frag_key`` of the stored snapshot's fragmentation, or
        ``None`` when the snapshot is graph-only."""
        manifest = self._read_manifest(name)
        return manifest.get("frag_key") if manifest else None

    def maybe_compact(self, name: str, graph: Graph, *,
                      fragmentation: Optional[Fragmentation] = None,
                      frag_key: Optional[List] = None) -> bool:
        """Fold the WAL into a fresh snapshot if it outgrew the
        threshold; returns whether compaction ran."""
        with self._name_lock(name):
            self._require_open()
            self._require_writable()
            if self._wal_for(name).size_bytes < self.compact_threshold_bytes:
                return False
            self.persist_graph(name, graph, fragmentation=fragmentation,
                               frag_key=frag_key)
            with self._lock:
                self.metrics.compactions += 1
            return True

    def remove(self, name: str) -> None:
        """Forget a stored graph (manifest first, then the files)."""
        with self._name_lock(name):
            self._require_writable()
            with self._lock:
                wal = self._wals.pop(name, None)
            if wal is not None:
                wal.close()
            gdir = self._graph_dir(name)
            try:
                os.unlink(self._manifest_path(name))
            except OSError:
                pass
            if gdir.is_dir():
                for child in gdir.iterdir():
                    try:
                        os.unlink(child)
                    except OSError:
                        pass
                try:
                    os.rmdir(gdir)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def load(self, name: str) -> StoredGraph:
        """Recover one graph: load its snapshot, replay the WAL chain.

        When the snapshot carried a fragmentation, deltas are replayed
        through :func:`repro.core.updates.apply_delta` so fragments,
        border sets and the ``G_P`` index are maintained exactly as they
        were live; otherwise they are applied to the bare graph.
        """
        with self._name_lock(name):
            self._require_open()
            manifest = self._read_manifest(name)
            if manifest is None:
                raise KeyError(f"no stored graph named {name!r}")
            gdir = self._graph_dir(name)
            phases: Dict[str, float] = {}
            snap = load_snapshot(gdir / manifest["snapshot"], phases=phases)
            replayed = 0
            for _seq, delta in self._replay_wal(name, manifest):
                if snap.fragmentation is not None:
                    from repro.core.updates import apply_delta
                    apply_delta(snap.fragmentation, delta)
                else:
                    delta.apply_to(snap.graph)
                replayed += 1
            with self._lock:
                self.metrics.snapshots_loaded += 1
                self.metrics.add_phases(phases)
                self.metrics.wal_replayed += replayed
            return StoredGraph(name=name, graph=snap.graph,
                               fragmentation=snap.fragmentation,
                               replayed=replayed, meta=snap.meta,
                               generation=manifest["generation"],
                               frag_key=manifest.get("frag_key"))

    def _replay_wal(self, name: str, manifest: Dict):
        """Replay the manifest's WAL records.

        A writable store goes through its owning :class:`DeltaWAL`
        handle (validating + truncating any torn tail, which it is
        entitled to do); a read-only store must never truncate a live
        primary's log, so it reads through a throwaway
        :class:`WALTailer` — same intact-prefix definition, zero
        mutation."""
        if not self.read_only:
            yield from self._wal_for(name).replay()
            return
        path = self._graph_dir(name) / manifest["wal"]
        try:
            tailer = WALTailer(path)
        except FileNotFoundError:
            return
        with tailer:
            yield from tailer.poll()

    def _current_wal_path(self, name: str) -> Path:
        manifest = self._read_manifest(name)
        if manifest is None:
            raise KeyError(f"no stored graph named {name!r}")
        return self._graph_dir(name) / manifest["wal"]

    def peek_manifest(self, name: str) -> Dict:
        """The committed manifest for ``name`` (read-only callers:
        replicas, the failover coordinator)."""
        manifest = self._read_manifest(name)
        if manifest is None:
            raise KeyError(f"no stored graph named {name!r}")
        return dict(manifest)

    def generation(self, name: str) -> int:
        """The committed generation number for ``name``."""
        return self.peek_manifest(name)["generation"]

    def follow(self, name: str, *, from_generation: Optional[int] = None,
               from_seq: int = 0) -> "WALFollower":
        """Stream ``name``'s WAL chain from ``(from_generation,
        from_seq)`` onwards — the replication read API.

        ``from_seq`` counts *records within that generation's WAL* (0 =
        its beginning, i.e. the state of ``snapshot-<from_generation>``);
        it is the positional cursor a replica resumes at, not the
        advisory per-record seq stamp.  Defaults to the current
        generation's beginning.  See :class:`WALFollower`.
        """
        if from_generation is None:
            from_generation = self.generation(name)
        return WALFollower(self, name, from_generation, from_seq)

    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("graph store is closed")

    def close(self) -> None:
        with self._lock:
            self._closed = True
            wals, self._wals = list(self._wals.values()), {}
        for wal in wals:
            wal.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"GraphStore({str(self.root)!r}, "
                f"graphs={len(self.names())}, {self.metrics!r})")


class WALFollower:
    """A streaming cursor over one graph's snapshot + WAL *chain*.

    Where :class:`~repro.store.wal.WALTailer` follows a single file,
    the follower follows the chain across **generation rollovers**: when
    the primary compacts (new snapshot + fresh WAL under generation
    ``N+1``), the follower first drains its open handle to the old
    generation's end — every record folded into the new snapshot — then
    switches to the new WAL at its beginning, so the stream it yields is
    gap-free: applying it to generation ``from_generation``'s snapshot
    state always reproduces the primary's graph.

    The drain-then-switch step is why it is safe for generation GC to
    unlink a superseded WAL: a mid-drain follower keeps its open handle.
    Only when the follower falls more rollovers behind than the store's
    retention window keeps files for does :meth:`poll` raise
    :class:`GenerationGapError` — the consumer re-bootstraps from the
    current snapshot (a replica counts this as a resnapshot).

    Positions are ``(generation, seq)`` with ``seq`` the number of
    records consumed *within that generation* — totally ordered across
    followers of the same store, which is what failover's
    most-advanced-replica selection compares.
    """

    def __init__(self, store: GraphStore, name: str,
                 from_generation: int, from_seq: int = 0):
        self.store = store
        self.name = name
        self.generation = from_generation
        self._gdir = store._graph_dir(name)
        try:
            self._tailer = WALTailer(self._wal_path(from_generation),
                                     from_seq=from_seq)
        except FileNotFoundError:
            raise GenerationGapError(
                f"generation {from_generation} of {name!r} is no longer "
                "on disk; re-bootstrap from the current snapshot")

    def _wal_path(self, generation: int) -> Path:
        return self._gdir / f"wal-{generation}.log"

    @property
    def seq(self) -> int:
        """Records consumed within the current generation."""
        return self._tailer.records_read

    @property
    def position(self) -> Tuple[int, int]:
        """``(generation, seq)`` — the follower's replication position."""
        return (self.generation, self._tailer.records_read)

    @property
    def last_seq(self) -> Optional[int]:
        """Advisory seq stamp of the last consumed record."""
        return self._tailer.last_seq

    def poll(self) -> List[Tuple[int, NormalizedDelta]]:
        """Every batch appended (across rollovers) since the last poll.

        Yields ``(seq_stamp, delta)`` pairs in application order.
        Raises :class:`GenerationGapError` when the chain cannot be
        proven gap-free (a needed superseded WAL was GC'd) — the
        consumer must re-bootstrap from the current snapshot.

        An injected ``replication.tail`` *stall* fault makes this poll
        return nothing — indistinguishable from a quiet primary, which
        is exactly what a stalled tail looks like to the consumer; the
        cursor does not move, so draining resumes cleanly once the
        schedule is exhausted.
        """
        fault = _faults.check("replication.tail", key=self.name)
        if fault is not None and fault.kind == "stall":
            return []
        out: List[Tuple[int, NormalizedDelta]] = []
        while True:
            out.extend(self._tailer.poll())
            try:
                current = self.store.generation(self.name)
            except KeyError:
                # the graph was removed from the store; nothing further
                return out
            if current == self.generation:
                return out
            # Rollover: appends to the old WAL stopped before the new
            # manifest committed, so one more drain of the (possibly
            # already unlinked) old handle completes its chain...
            out.extend(self._tailer.poll())
            # ...and the next generation's WAL continues from exactly
            # the state its snapshot captured.
            nxt = self.generation + 1
            try:
                fresh = WALTailer(self._wal_path(nxt))
            except FileNotFoundError:
                raise GenerationGapError(
                    f"WAL of generation {nxt} of {self.name!r} was "
                    "garbage-collected before this follower drained it; "
                    "re-bootstrap from the current snapshot")
            self._tailer.close()
            self._tailer = fresh
            self.generation = nxt

    def lag_bytes(self) -> int:
        """Unconsumed bytes: the remainder of the current file plus the
        full size of every newer generation's WAL."""
        lag = self._tailer.lag_bytes()
        try:
            current = self.store.generation(self.name)
        except KeyError:
            return lag
        for generation in range(self.generation + 1, current + 1):
            try:
                lag += self._wal_path(generation).stat().st_size
            except OSError:
                pass
        return lag

    @property
    def caught_up(self) -> bool:
        """No unconsumed bytes and no pending rollover."""
        try:
            current = self.store.generation(self.name)
        except KeyError:
            return True
        return current == self.generation and self._tailer.lag_bytes() == 0

    def close(self) -> None:
        self._tailer.close()

    def __enter__(self) -> "WALFollower":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"WALFollower({self.name!r}, gen={self.generation}, "
                f"seq={self.seq})")
