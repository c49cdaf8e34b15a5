"""Failover: elect the most-advanced replica, fence the deposed primary.

The coordinator's whole protocol is three steps against shared storage:

1. **Fence.**  Bump the epoch in the store root's ``EPOCH`` file (with
   no leader yet).  Every writable store handle re-reads that file on
   each write, so the moment the bump lands, a still-running deposed
   primary's next append raises
   :class:`~repro.store.catalog.FencedError` — it can no longer ack
   updates that the new primary would not have.
2. **Elect.**  Let every candidate replica drain the (now quiescent)
   WAL chain, then pick the one with the greatest position vector —
   per graph the ``(generation, seq)`` its follower reached.  Because
   the chain is totally ordered and fenced, the most-advanced replica
   has applied a superset of every other's acked state: promoting it
   loses no acked update.
3. **Publish + promote.**  Write the winner's id as leader at the new
   epoch, then :meth:`~repro.replication.ReplicaService.promote` it.
   A deposed primary that *restarts* and tries to reopen the store
   under its own name is rejected at open (the published leader is
   someone else); one that kept running is already fenced by step 1.

No consensus service is modeled — the EPOCH file on shared storage
plays the role the paper's coordinator (and production systems' etcd/
ZooKeeper) plays; what this module reproduces is the *fencing and
election discipline* on top of the WAL chain.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.obs import events as _events
from repro.replication.replica import ReplicaService
from repro.resilience import faults as _faults
from repro.resilience.errors import FailoverInterrupted
from repro.store.catalog import read_epoch, write_epoch

__all__ = ["FailoverCoordinator"]


class FailoverCoordinator:
    """Runs the fence → elect → promote protocol over one store root."""

    def __init__(self, store_root: Union[str, Path]):
        self.root = Path(store_root)

    # ------------------------------------------------------------------
    def epoch(self) -> Tuple[int, Optional[str]]:
        return read_epoch(self.root)

    def fence(self) -> int:
        """Bump the epoch with no leader: from this point the previous
        primary's writes are rejected.  Returns the new epoch."""
        epoch, _leader = read_epoch(self.root)
        new_epoch = epoch + 1
        write_epoch(self.root, new_epoch, None)
        _events.emit("failover.fence", epoch=new_epoch)
        return new_epoch

    def promote(self, replicas: Sequence[ReplicaService]
                ) -> ReplicaService:
        """Fail over to the most-advanced of ``replicas``.

        Fences first, then lets every candidate drain the chain, elects
        by position vector (ties broken by replica id, so the outcome
        is deterministic), publishes the winner as leader and promotes
        it.  Returns the new primary.

        The ``replication.promote`` fault site sits between fence and
        publish — the promote-race window.  A *crash* there raises
        :exc:`~repro.resilience.errors.FailoverInterrupted`, leaving
        the epoch bumped with **no leader**: the old primary stays
        fenced, no replica was promoted, and a re-run of ``promote``
        (the coordinator restarting) completes the failover at a fresh
        epoch with nothing lost.  A *delay* widens the window instead.
        """
        if not replicas:
            raise ValueError("cannot fail over with no replicas")
        new_epoch = self.fence()
        fault = _faults.check("replication.promote", key=str(self.root))
        if fault is not None:
            if fault.kind == "crash":
                raise FailoverInterrupted(
                    f"injected coordinator crash after fencing epoch "
                    f"{new_epoch} (no leader published)")
            if fault.kind == "delay":
                time.sleep(float(fault.param("delay_s", 0.05)))
        for replica in replicas:
            replica.sync()
        winner = max(replicas,
                     key=lambda r: (r.position_vector(), r.replica_id))
        write_epoch(self.root, new_epoch, winner.replica_id)
        winner.promote(epoch=new_epoch)
        _events.emit("failover.promote", epoch=new_epoch,
                     leader=winner.replica_id)
        return winner

    def __repr__(self) -> str:
        epoch, leader = read_epoch(self.root)
        return (f"FailoverCoordinator({str(self.root)!r}, epoch={epoch}, "
                f"leader={leader!r})")
