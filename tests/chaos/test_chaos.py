"""Chaos differential tests: seeded fault schedules over a mixed
query+update workload, across backend × store × replica configurations.

The acceptance property, per configuration:

* every operation **completes** (bounded retries over a finite fault
  schedule — the harness raises if one never does);
* every completed answer is **equal to the fault-free oracle's**;
* every failure observed on the way is a **typed** error from the
  resilience taxonomy (the harness catches nothing else);
* nothing ever hangs (a hard SIGALRM watchdog brackets each run);
* nothing is corrupted (store-backed runs must serve identical answers
  after a cold restart; the replica must converge to the primary).
"""

from __future__ import annotations

import os

import pytest

from repro.core.engine import EngineConfig
from repro.replication import ReplicaService
from repro.resilience import FaultPlane, RetryPolicy
from repro.resilience.faults import installed
from repro.service import GrapeService

from .harness import base_graph, build_ops, run_workload, watchdog

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="SIGALRM watchdog and worker-kill "
    "semantics are POSIX-only")

SEED = 1234


@pytest.fixture(scope="module")
def oracle():
    """The fault-free pass: same ops, no plane installed."""
    ops = build_ops(SEED)
    svc = GrapeService(engine=EngineConfig(num_workers=4), grouping=False)
    svc.load_graph("soc", base_graph())
    with watchdog(60):
        answers, observed = run_workload(svc, "soc", ops)
    svc.close()
    assert observed == []  # nothing fails without faults
    return ops, answers


def test_chaos_serial_inline(oracle):
    """Inline backend: crashes surface as simulated worker failures and
    recover from in-memory checkpoints; slow faults just cost time."""
    ops, expected = oracle
    plane = (FaultPlane(seed=SEED)
             .plan("exec.step", "crash", at=2)
             .plan("exec.step", "slow", at=5, delay_s=0.02)
             .rate("exec.step", "crash", 0.03, times=3))
    svc = GrapeService(engine=EngineConfig(num_workers=4), grouping=False)
    svc.load_graph("soc", base_graph())
    with watchdog(90), installed(plane):
        answers, observed = run_workload(svc, "soc", ops)
    svc.close()
    assert len(plane.fired) >= 1   # the schedule really hit
    assert answers == expected     # bitwise differential


def test_chaos_thread_with_store(oracle, tmp_path):
    """Thread backend over a durable store: executor crashes plus
    torn/failed WAL appends (absorbed by the service's retry policy),
    then a cold restart must replay to identical answers."""
    ops, expected = oracle
    plane = (FaultPlane(seed=SEED + 1)
             .plan("exec.step", "crash", at=3)
             .plan("store.wal.append", "torn", at=1)
             .plan("store.wal.append", "fsync", at=3)
             .rate("exec.step", "crash", 0.02, times=2))
    svc = GrapeService(engine=EngineConfig(num_workers=4, backend="thread"),
                       store_dir=tmp_path / "store",
                       node_id="p",
                       retry=RetryPolicy(max_attempts=6,
                                         base_backoff_s=0.001,
                                         jitter=0.0),
                       grouping=False)
    svc.load_graph("soc", base_graph())
    with watchdog(90), installed(plane):
        answers, observed = run_workload(svc, "soc", ops)
    assert len(plane.fired) >= 3
    assert answers == expected
    final = svc.play("sssp", 0, graph="soc").answer
    svc.close()

    # No corruption: a cold restart replays snapshot + WAL to the same
    # graph and the same answers.
    revived = GrapeService(store_dir=tmp_path / "store", node_id="p2")
    with watchdog(60):
        assert revived.play("sssp", 0, graph="soc").answer == final
    revived.close()


def test_chaos_process_store_replica(oracle, tmp_path):
    """The full stack: process backend (real worker crashes and a real
    hang caught by heartbeats), WAL faults, and a tailing replica whose
    stream is stalled — everything must still converge bit-for-bit."""
    ops, expected = oracle
    plane = (FaultPlane(seed=SEED + 2)
             .plan("exec.step", "crash", key=1, at=4)
             .plan("exec.step", "hang", key=0, at=7, hang_s=30.0)
             .plan("store.wal.append", "fsync", at=2)
             .plan("replication.tail", "stall", key="soc", at=1)
             .rate("replication.tail", "stall", 0.2, times=2))
    svc = GrapeService(engine=EngineConfig(num_workers=4, backend="process",
                                           heartbeat_timeout_s=0.4),
                       store_dir=tmp_path / "store", node_id="primary",
                       retry=RetryPolicy(max_attempts=6,
                                         base_backoff_s=0.001,
                                         jitter=0.0),
                       grouping=False)
    svc.load_graph("soc", base_graph())
    replica = ReplicaService(tmp_path / "store", replica_id="r1")
    with watchdog(150), installed(plane):
        answers, observed = run_workload(svc, "soc", ops)
        # Drain the replica through the stalls (bounded: the stall
        # schedule is finite, so polls eventually flow again).
        for _ in range(50):
            replica.sync()
            if replica.lag_bytes("soc") == 0:
                break
        assert replica.lag_bytes("soc") == 0
    kinds = {k for (_s, _k, _o, k) in plane.fired}
    assert {"crash", "hang"} <= kinds  # the headline faults really hit
    assert answers == expected
    # Replica convergence: identical answers to the primary.
    with watchdog(60):
        for source in (0, 7, 14):
            assert (replica.play("sssp", source, graph="soc").answer
                    == svc.play("sssp", source, graph="soc").answer)
    replica.close()
    svc.close()
