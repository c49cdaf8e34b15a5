"""FaultPlane: one deterministic, seeded fault-injection registry.

Before this module, every fault path was exercised by a bespoke one-off
— a ``kill -9`` in the kill-recovery test, a hand-truncated file in the
WAL tests, a monkeypatched ``poll`` in the replication suite.  The fault
plane replaces that with a single registry the production code itself
consults at its **injection sites**:

========================  ====================================  =========
site                      where it is checked                   kinds
========================  ====================================  =========
``exec.step``             engine, once per fragment+superstep   ``crash``
                          (embedded into the StepCommand)       ``hang``
                                                                ``slow``
``exec.shm.attach``       :meth:`~repro.runtime.executors.      ``error``
                          ProcessBackend.open`, once per worker
                          lease shipping segment descriptors
                          (workers degrade to pickle shipping)
``store.wal.append``      :meth:`~repro.store.wal.DeltaWAL.     ``torn``
                          append`                               ``fsync``
``store.snapshot.write``  :func:`~repro.store.snapshot.         ``torn``
                          save_snapshot`
``replication.tail``      :meth:`~repro.store.wal.WALTailer.    ``stall``
                          poll`
``replication.promote``   :meth:`~repro.replication.failover.   ``crash``
                          FailoverCoordinator.promote`          ``delay``
========================  ====================================  =========

Checks are **ordinal**: every ``check(site, key)`` call advances a
deterministic per-``(site, key)`` counter, and a planned fault fires
when its ordinal window is reached — the same schedule every run, which
is what lets the chaos harness assert bitwise equality against a
fault-free oracle.  Randomized schedules (:meth:`FaultPlane.rate`) draw
from per-spec ``random.Random`` streams derived from the plane seed, so
they too are reproducible.  Every fault fires a bounded number of times
(``times`` per spec, ``max_fires`` per plane) — retries and recovery
always drain the schedule instead of livelocking.

Production code calls the module-level :func:`check`, a fast no-op while
no plane is installed (one attribute read), so the fault-free path pays
nothing.  Tests install a plane for a scope with::

    with faults.installed(FaultPlane(seed=7)) as plane:
        plane.plan("exec.step", "crash", key=1, at=2)
        ...

The engine additionally accepts a plane directly
(``EngineConfig(fault_plane=...)``) for single-run injection without the
process-global install — the one way to fail a worker in a test, on
every backend (fragment ``fid``'s ``k``-th superstep, or a seeded rate)::

    FaultPlane().plan("exec.step", "crash", key=fid, at=k)
    FaultPlane(seed=4).rate("exec.step", "crash", 0.05, times=5)
"""

from __future__ import annotations

import random
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

__all__ = ["FaultAction", "FaultPlane", "active", "check", "install",
           "installed", "uninstall"]


@dataclass
class FaultAction:
    """What an injection site should do, as data.

    Picklable on purpose: the engine embeds step actions into
    :class:`~repro.runtime.executors.StepCommand`, which crosses the
    pipe to process-backend workers.
    """

    site: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)


@dataclass
class _FaultSpec:
    site: str
    kind: str
    key: Optional[Hashable]  # None matches any key (site-wide ordinals)
    at: int                  # first ordinal (1-based) the fault fires on
    times: int               # how many consecutive ordinals fire
    rate: float              # >0: probabilistic instead of ordinal
    params: Dict[str, Any]
    rng: Optional[random.Random] = None
    fires: int = 0


def _spec_seed(seed: int, site: str, kind: str, index: int) -> int:
    """A stable per-spec stream seed (independent of dict order)."""
    return zlib.crc32(f"{seed}:{site}:{kind}:{index}".encode()) & 0xFFFFFFFF


class FaultPlane:
    """A seeded, deterministic schedule of faults across the stack.

    Parameters
    ----------
    seed:
        Master seed deriving every probabilistic spec's random stream.
    max_fires:
        Plane-wide cap on total fired faults — a backstop so even a
        carelessly high ``rate`` schedule always drains.
    """

    def __init__(self, seed: int = 0, *, max_fires: int = 64):
        self.seed = seed
        self.max_fires = max_fires
        self._specs: Dict[str, List[_FaultSpec]] = {}
        self._ordinals: Dict[Tuple[str, Optional[Hashable]], int] = {}
        self._lock = threading.Lock()
        #: every fired fault: ``(site, key, ordinal, kind)`` in order
        self.fired: List[Tuple[str, Optional[Hashable], int, str]] = []

    # ------------------------------------------------------------------
    # schedule construction
    # ------------------------------------------------------------------
    def plan(self, site: str, kind: str, *, at: int = 1,
             key: Optional[Hashable] = None, times: int = 1,
             **params: Any) -> "FaultPlane":
        """Schedule a fault at the ``at``-th check of ``site`` (1-based;
        per-``key`` ordinals when ``key`` is given, site-wide
        otherwise), firing on ``times`` consecutive ordinals.  Returns
        the plane for chaining."""
        if at < 1 or times < 1:
            raise ValueError("at and times are 1-based and positive")
        spec = _FaultSpec(site=site, kind=kind, key=key, at=at,
                          times=times, rate=0.0, params=dict(params))
        with self._lock:
            self._specs.setdefault(site, []).append(spec)
        return self

    def rate(self, site: str, kind: str, rate: float, *,
             key: Optional[Hashable] = None, times: int = 4,
             **params: Any) -> "FaultPlane":
        """Schedule a probabilistic fault: each check of ``site`` fires
        with probability ``rate`` from a stream derived from the plane
        seed (same seed → same schedule), at most ``times`` total."""
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        spec = _FaultSpec(site=site, kind=kind, key=key, at=1,
                          times=times, rate=rate, params=dict(params))
        with self._lock:
            index = len(self._specs.get(site, []))
            spec.rng = random.Random(
                _spec_seed(self.seed, site, kind, index))
            self._specs.setdefault(site, []).append(spec)
        return self

    # ------------------------------------------------------------------
    # consultation (called by the injection sites)
    # ------------------------------------------------------------------
    def check(self, site: str, key: Optional[Hashable] = None
              ) -> Optional[FaultAction]:
        """Advance the ``(site, key)`` ordinal; return the action to
        perform, or ``None``.  At most one spec fires per check (first
        scheduled wins)."""
        with self._lock:
            site_ord = self._ordinals[(site, None)] = \
                self._ordinals.get((site, None), 0) + 1
            key_ord = site_ord
            if key is not None:
                key_ord = self._ordinals[(site, key)] = \
                    self._ordinals.get((site, key), 0) + 1
            if len(self.fired) >= self.max_fires:
                return None
            for spec in self._specs.get(site, ()):
                if spec.fires >= spec.times:
                    continue
                if spec.key is not None and spec.key != key:
                    continue
                ordinal = key_ord if spec.key is not None else site_ord
                if spec.rate > 0.0:
                    if spec.rng.random() >= spec.rate:
                        continue
                elif not spec.at <= ordinal < spec.at + spec.times:
                    continue
                spec.fires += 1
                self.fired.append((site, key, ordinal, spec.kind))
                return FaultAction(site=site, kind=spec.kind,
                                   params=dict(spec.params))
            return None

    def may_fire(self, prefix: str) -> bool:
        """Whether any spec under sites starting with ``prefix`` could
        still fire — the engine uses this to decide whether checkpoint
        fault tolerance must be enabled for a run."""
        with self._lock:
            if len(self.fired) >= self.max_fires:
                return False
            return any(spec.fires < spec.times
                       for site, specs in self._specs.items()
                       if site.startswith(prefix)
                       for spec in specs)

    def drained(self) -> bool:
        """True once every planned fault has fired (rate specs count as
        drained when their ``times`` budget is spent)."""
        with self._lock:
            return all(spec.fires >= spec.times or spec.rate > 0.0
                       for specs in self._specs.values()
                       for spec in specs)

    def __getstate__(self) -> Dict[str, Any]:
        # a plane rides an EngineConfig, which must pickle: the schedule
        # and its progress travel, the lock does not
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        with self._lock:
            n = sum(len(s) for s in self._specs.values())
            return (f"FaultPlane(seed={self.seed}, specs={n}, "
                    f"fired={len(self.fired)})")


# ---------------------------------------------------------------------------
# process-global installation (what the store/replication sites consult)
# ---------------------------------------------------------------------------
_active: Optional[FaultPlane] = None
_install_lock = threading.Lock()


def install(plane: FaultPlane) -> FaultPlane:
    """Make ``plane`` the process-global fault plane (one at a time)."""
    global _active
    with _install_lock:
        if _active is not None:
            raise RuntimeError("a FaultPlane is already installed")
        _active = plane
    return plane


def uninstall() -> None:
    """Remove the installed plane (idempotent)."""
    global _active
    with _install_lock:
        _active = None


def active() -> Optional[FaultPlane]:
    """The installed plane, if any."""
    return _active


@contextmanager
def installed(plane: FaultPlane):
    """Install ``plane`` for a scope: the chaos harness's entry point."""
    install(plane)
    try:
        yield plane
    finally:
        uninstall()


def check(site: str, key: Optional[Hashable] = None
          ) -> Optional[FaultAction]:
    """Consult the installed plane; a fast no-op when none is."""
    plane = _active
    if plane is None:
        return None
    return plane.check(site, key)
