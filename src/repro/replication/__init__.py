"""Replication tier: WAL-tailing read replicas, failover, admission.

The durable store (:mod:`repro.store`) made a serving node's state a
snapshot + delta-WAL chain on shared storage; this package turns that
chain into a **primary/replica serving tier**:

* :class:`ReplicaService` — a read-only :class:`~repro.service.GrapeService`
  that warm-starts from the latest snapshot and *tails* the primary's
  WAL (:meth:`~repro.store.catalog.GraphStore.follow`), applying every
  batch to its graphs, fragmentations and standing watches — reads are
  served at bounded, observable lag, and watch answers are maintained
  by replaying the update, never by re-running the query.
* :class:`FailoverCoordinator` — promotes the most-advanced replica by
  ``(generation, seq)`` and fences the deposed primary via the store's
  ``EPOCH`` file (:class:`~repro.store.catalog.FencedError`).
* :class:`AdmissionController` — per-graph concurrency caps, bounded
  queues and typed load shedding (:class:`AdmissionRejected`), plugged
  into any service via ``GrapeService(admission=...)``.

Submodules are imported lazily (PEP 562): the service facade imports
:mod:`repro.replication.admission` while :mod:`.replica` imports the
facade back, and laziness is what keeps that cycle inert.
"""

from __future__ import annotations

__all__ = ["AdmissionController", "AdmissionRejected",
           "FailoverCoordinator", "ReadOnlyReplicaError",
           "ReplicaService", "read_epoch", "write_epoch"]

_EXPORTS = {
    "AdmissionController": "repro.replication.admission",
    "AdmissionRejected": "repro.replication.admission",
    "ReplicaService": "repro.replication.replica",
    "ReadOnlyReplicaError": "repro.replication.replica",
    "FailoverCoordinator": "repro.replication.failover",
    "read_epoch": "repro.store.catalog",
    "write_epoch": "repro.store.catalog",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
