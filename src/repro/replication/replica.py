"""ReplicaService: a WAL-tailing read replica of a durable service.

A replica is a :class:`~repro.service.GrapeService` whose state is fed
entirely by the primary's durable chain: it **bootstraps** from the
latest committed snapshot (replaying the WAL prefix the snapshot does
not cover) and then **tails** — every :meth:`~ReplicaService.sync` polls
a :class:`~repro.store.catalog.WALFollower` per graph and applies the
new batches through the exact write path the primary used
(``_apply_batch``: fragmentation maintenance, watcher fan-out), minus
the re-logging.  Standing watches registered on the replica are thus
maintained by *replaying the update*, never by re-running the query —
the bounded-maintenance framing of FO+MOD-under-updates applied to the
serving tier.

Lag is observable (:meth:`lag_bytes`, :meth:`replication_status`) and
bounded by how often the consumer syncs; the applied position is the
``(generation, seq)`` the follower reached plus a monotone per-graph
applied-batch counter.  When the replica falls behind the primary's GC
retention window (:class:`~repro.store.catalog.GenerationGapError`) it
**re-bootstraps** from the current snapshot — graphs are reloaded and
every active watch session is rebuilt against the fresh state, so
handles survive with their identity (and answer) intact.

Writes are refused with a typed :class:`ReadOnlyReplicaError` until the
:class:`~repro.replication.FailoverCoordinator` promotes this replica —
:meth:`promote` drains the followers one final time, opens a *writable*
store handle fenced at the new epoch, and from then on the full
primary write path (updates, WAL appends, compaction) is live.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.api import PIERegistry
from repro.core.engine import EngineConfig, GrapeEngine
from repro.core.updates import ContinuousQuerySession
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.obs import events as _events
from repro.replication.admission import AdmissionController
from repro.service.facade import GrapeService
from repro.store.catalog import (GenerationGapError, GraphStore,
                                 WALFollower)
from repro.store.snapshot import SnapshotError
from repro.store.wal import WALError

__all__ = ["ReadOnlyReplicaError", "ReplicaService"]


class ReadOnlyReplicaError(RuntimeError):
    """A mutation was attempted on an unpromoted replica.

    Replicas only ever learn about updates by tailing the primary's
    WAL; accepting a local write would fork the history.  Route writes
    to the primary — or promote this replica first.
    """


class ReplicaService(GrapeService):
    """A read-only serving node fed by tailing a primary's WAL chain.

    Parameters mirror :class:`~repro.service.GrapeService` where they
    make sense for a reader; ``store_dir`` is the *primary's* store root
    (shared storage), opened read-only.  ``replica_id`` names this node
    for failover (it becomes the fencing ``node_id`` on promotion).
    """

    def __init__(self, store_dir: Union[str, Path], *,
                 engine: Union[EngineConfig, GrapeEngine, None] = None,
                 registry: Optional[PIERegistry] = None,
                 concurrency: int = 4,
                 admission: Optional[AdmissionController] = None,
                 grouping: bool = True,
                 replica_id: str = "replica",
                 store_compact_threshold: Optional[int] = None,
                 store_retain_generations: Optional[int] = None):
        super().__init__(engine=engine, registry=registry,
                         concurrency=concurrency, admission=admission,
                         grouping=grouping, node_id=replica_id)
        self.replica_id = replica_id
        self.store_root = Path(store_dir)
        self._store_compact_threshold = store_compact_threshold
        self._store_retain_generations = store_retain_generations
        self._ro_store = GraphStore(store_dir, read_only=True)
        self._followers: Dict[str, WALFollower] = {}
        #: monotone count of WAL batches applied per graph (the
        #: "applied seq" a consumer watches advance)
        self._applied: Dict[str, int] = {}
        self._promoted = False
        for name in self._ro_store.names():
            self._bootstrap(name)

    # ------------------------------------------------------------------
    # bootstrap / re-bootstrap
    # ------------------------------------------------------------------
    def _bootstrap(self, name: str) -> None:
        """Load ``name`` from the current snapshot + WAL and leave a
        follower positioned exactly after what was loaded.

        Retries around the primary compacting mid-bootstrap: between
        reading the manifest and opening the follower the generation can
        roll over and GC can unlink the files just read — then the state
        we loaded is already superseded, so load again from the fresh
        chain.
        """
        last_exc: Optional[BaseException] = None
        for _attempt in range(8):
            try:
                stored = self._ro_store.load(name)
                follower = self._ro_store.follow(
                    name, from_generation=stored.generation,
                    from_seq=stored.replayed)
            except (GenerationGapError, SnapshotError, WALError,
                    FileNotFoundError) as exc:
                last_exc = exc
                time.sleep(0.01)
                continue
            break
        else:
            raise RuntimeError(
                f"could not bootstrap replica graph {name!r}: the "
                "primary kept compacting past us") from last_exc
        with self._lock:
            self._install_recovered(name, stored)
        old = self._followers.pop(name, None)
        if old is not None:
            old.close()
        self._followers[name] = follower
        self._applied.setdefault(name, 0)

    def _resnapshot(self, name: str) -> None:
        """Fall back to a full re-bootstrap after losing the chain
        (follower beyond the retention window, or a reset WAL).

        Active watch sessions are rebuilt against the freshly loaded
        fragmentation — each :class:`~repro.service.WatchHandle` keeps
        its identity and simply starts answering from the new state.
        """
        self._bootstrap(name)
        _events.emit("replica.resnapshot", graph=name,
                     replica=self.replica_id)
        with self._lock:
            handles = self._active_watches(name)
            self.stats.replica_resnapshots += 1
        if not handles:
            return
        frag = self._fragmentation_for(name, self.engine_config)
        glock = self._graph_lock(name)
        with glock.read():
            for handle in handles:
                old = handle.session
                handle.session = ContinuousQuerySession(
                    self.engine_config.build(), old.program, old.query,
                    fragmentation=frag)
        with self._lock:
            for handle in handles:
                self.stats.observe_run(handle.session.metrics)

    # ------------------------------------------------------------------
    # tailing
    # ------------------------------------------------------------------
    def sync(self, name: Optional[str] = None) -> int:
        """Apply every batch the primary appended since the last sync;
        returns how many were applied (across the given graph, or all).

        Also adopts graphs the primary registered after this replica
        started.  A graph whose chain was lost to retention GC is
        re-bootstrapped (counted in ``stats.replica_resnapshots``)
        rather than failed.

        On a promoted replica this is a no-op returning 0 — the node
        *is* the primary; there is no chain left to tail.
        """
        if self._promoted:
            return 0
        if name is None:
            for fresh in self._ro_store.names():
                if fresh not in self._followers:
                    self._bootstrap(fresh)
            names = list(self._followers)
        else:
            names = [name]
        return sum(self._sync_one(n) for n in names)

    def _sync_one(self, name: str) -> int:
        with self._mutation_lock(name):
            follower = self._followers.get(name)
            if follower is None:
                raise ValueError(f"replica is not following {name!r}")
            generation_before = follower.generation
            try:
                batches = follower.poll()
            except (GenerationGapError, WALError):
                self._resnapshot(name)
                follower = self._followers[name]
                generation_before = follower.generation
                batches = follower.poll()
            applied = 0
            for _seq, norm in batches:
                if not norm:
                    continue
                self._apply_batch(name, norm)
                applied += 1
            rollovers = follower.generation - generation_before
            with self._lock:
                self._applied[name] = self._applied.get(name, 0) + applied
                self.stats.replica_batches_applied += applied
                if rollovers > 0:
                    self.stats.replica_rollovers += rollovers
            if applied or rollovers:
                _events.emit("replica.sync", graph=name,
                             replica=self.replica_id, batches=applied,
                             rollovers=rollovers,
                             lag_bytes=follower.lag_bytes())
            return applied

    # ------------------------------------------------------------------
    # lag / position introspection
    # ------------------------------------------------------------------
    def position(self, name: str) -> Tuple[int, int]:
        """The follower's ``(generation, seq)`` replication position."""
        return self._require_follower(name).position

    def applied_seq(self, name: str) -> int:
        """Monotone count of WAL batches applied to ``name`` by
        syncing (excludes the batches folded in at bootstrap)."""
        with self._lock:
            return self._applied.get(name, 0)

    def lag_bytes(self, name: str) -> int:
        """Unapplied WAL bytes between this replica and the primary."""
        return self._require_follower(name).lag_bytes()

    def caught_up(self, name: str) -> bool:
        return self._require_follower(name).caught_up

    def replication_status(self, name: str) -> Dict[str, Any]:
        """One graph's replication state, as a plain dict (for
        monitoring endpoints and tests alike)."""
        follower = self._require_follower(name)
        generation, seq = follower.position
        return {
            "graph": name,
            "replica_id": self.replica_id,
            "generation": generation,
            "seq": seq,
            "applied_batches": self.applied_seq(name),
            "lag_bytes": follower.lag_bytes(),
            "caught_up": follower.caught_up,
            "promoted": self._promoted,
        }

    def _require_follower(self, name: str) -> WALFollower:
        follower = self._followers.get(name)
        if follower is None:
            raise ValueError(f"replica is not following {name!r}")
        return follower

    @property
    def promoted(self) -> bool:
        return self._promoted

    def position_vector(self) -> Tuple[Tuple[str, int, int], ...]:
        """Every followed graph's ``(name, generation, seq)``, sorted —
        the totally ordered progress vector failover compares."""
        return tuple(sorted((name, *follower.position)
                            for name, follower in self._followers.items()))

    # ------------------------------------------------------------------
    # write protection / promotion
    # ------------------------------------------------------------------
    def _require_primary(self, what: str) -> None:
        if not self._promoted:
            raise ReadOnlyReplicaError(
                f"{what} refused: {self.replica_id!r} is a read replica; "
                "writes go to the primary (or promote this replica)")

    def update(self, graph: str, delta: GraphDelta):
        self._require_primary(f"update of {graph!r}")
        return super().update(graph, delta)

    def load_graph(self, name: str, graph: Graph, *,
                   replace: bool = False) -> None:
        self._require_primary(f"load_graph({name!r})")
        super().load_graph(name, graph, replace=replace)

    def unload_graph(self, name: str) -> Graph:
        self._require_primary(f"unload_graph({name!r})")
        return super().unload_graph(name)

    def promote(self, *, epoch: Optional[int] = None) -> None:
        """Become the primary: final-drain the WAL chain, then attach a
        writable store handle fenced at the (already published) epoch.

        Called by the :class:`~repro.replication.FailoverCoordinator`
        *after* it bumped the ``EPOCH`` file and elected this replica —
        opening the writable handle validates the published leader is
        us and arms the fence, so a concurrently deposed primary's
        appends fail while ours pass.
        """
        if self._promoted:
            return
        self.sync()  # final drain: everything durable must be applied
        for follower in self._followers.values():
            follower.close()
        self._followers = {}
        self._ro_store.close()
        kwargs: Dict[str, Any] = {"node_id": self.replica_id}
        if self._store_compact_threshold is not None:
            kwargs["compact_threshold_bytes"] = self._store_compact_threshold
        if self._store_retain_generations is not None:
            kwargs["retain_generations"] = self._store_retain_generations
        store = GraphStore(self.store_root, **kwargs)
        if epoch is not None:
            store.arm_fence(epoch)
        with self._lock:
            self.store = store
            self._promoted = True
            self._sync_store_stats()

    # ------------------------------------------------------------------
    def close(self, *, flush: bool = True) -> None:
        for follower in self._followers.values():
            follower.close()
        self._followers = {}
        self._ro_store.close()
        # An unpromoted replica has self.store is None, so the base
        # close never writes; a promoted one checkpoints like any
        # primary.
        super().close(flush=flush)

    def __repr__(self) -> str:
        role = "primary(promoted)" if self._promoted else "replica"
        return (f"ReplicaService({self.replica_id!r}, {role}, "
                f"following={sorted(self._followers)}, "
                f"applied={dict(self._applied)})")
