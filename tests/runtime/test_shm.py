"""The shared-memory fragment plane: publish/attach, in-place patching,
republish-on-structural, arena lifecycle, and the stale-segment sweep."""

import glob
import multiprocessing
import os
import subprocess
import time

import numpy as np
import pytest

from repro.core.engine import GrapeEngine
from repro.core.updates import apply_delta
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.runtime import shm

pytestmark = pytest.mark.skipif(not shm.shm_available(),
                                reason="no shared-memory provider here")


def make_fragmentation(seed=5, parts=2):
    g = uniform_random_graph(40, 140, seed=seed)
    return GrapeEngine(parts).make_fragmentation(g), g


def shm_files():
    return glob.glob("/dev/shm/repro-shm-*")


# ---------------------------------------------------------------------------
# publish / attach
# ---------------------------------------------------------------------------
def test_publish_attach_roundtrip():
    fragmentation, _g = make_fragmentation()
    frag = fragmentation[0]
    csr = frag.csr()
    prov = shm.provider()
    seg, desc = shm.publish_fragment(prov, 1, 0, 0, frag, csr)
    try:
        clone, _seg2 = shm.attach_fragment(desc)
        assert clone.fid == frag.fid
        assert clone.owned == frag.owned
        assert clone.inner == frag.inner
        assert clone.outer == frag.outer
        assert sorted(clone.graph.edges()) == sorted(frag.graph.edges())
        # the CSR is installed from the mapped arrays, never rebuilt
        snap = clone.csr()
        assert clone.csr_builds == 0
        assert clone.csr_shared
        np.testing.assert_array_equal(snap.indptr, csr.indptr)
        np.testing.assert_array_equal(snap.indices, csr.indices)
        np.testing.assert_array_equal(snap.weights, csr.weights)
        np.testing.assert_array_equal(snap.rev_indices, csr.rev_indices)
        # attached views are read-only (file provider maps PROT_READ)
        assert not snap.indices.flags.writeable
        assert not snap.weights.flags.writeable
    finally:
        prov.unlink(desc.name)


def test_attach_missing_segment_raises():
    fragmentation, _g = make_fragmentation()
    frag = fragmentation[0]
    prov = shm.provider()
    seg, desc = shm.publish_fragment(prov, 1, 0, 0, frag, frag.csr())
    prov.unlink(desc.name)
    with pytest.raises(OSError):
        shm.attach_fragment(desc)


# ---------------------------------------------------------------------------
# arena: descriptors, patches, republish
# ---------------------------------------------------------------------------
def test_descriptor_reuse_and_weight_patch():
    fragmentation, g = make_fragmentation()
    arena = shm.ShmArena()
    try:
        tid, ver = fragmentation.cache_token
        descs = {f.fid: arena.descriptor_for(tid, ver, fragmentation[f.fid])
                 for f in fragmentation}
        assert all(d is not None for d in descs.values())
        assert arena.publishes == fragmentation.num_fragments
        # a second request at the same version reuses the segments
        again = arena.descriptor_for(tid, ver, fragmentation[0])
        assert again is descs[0]
        assert arena.publishes == fragmentation.num_fragments

        # weight-only delta: patched into the mapped arrays in place —
        # no republish, the coordinator's shared CSR shows the new value
        u, v, w = next(iter(g.edges()))
        built = fragmentation.csr_snapshots_built
        apply_delta(fragmentation, GraphDelta().set_weight(u, v, w + 2.5))
        assert arena.patches >= 1
        assert arena.publishes == fragmentation.num_fragments
        assert fragmentation.csr_snapshots_built == built
        owner = fragmentation.gp.owner(u)
        snap = fragmentation[owner].csr()
        eid = snap.id_of[u]
        row = slice(int(snap.indptr[eid]), int(snap.indptr[eid + 1]))
        hit = np.nonzero(snap.indices[row] == snap.id_of[v])[0]
        assert hit.size > 0
        assert snap.weights[row][hit[0]] == w + 2.5

        # structural delta: the entry goes stale, the next descriptor
        # request republishes under a bumped generation
        apply_delta(fragmentation, GraphDelta().insert(u, "fresh", 0.4))
        tid2, ver2 = fragmentation.cache_token
        assert tid2 == tid
        desc2 = arena.descriptor_for(tid, ver2, fragmentation[owner])
        assert desc2 is not None
        assert desc2.generation > descs[owner].generation
        assert arena.publishes > fragmentation.num_fragments
    finally:
        arena.close()
    assert arena.ref_leaks == 0


def test_keepable_fids_tracks_compat_floor():
    fragmentation, g = make_fragmentation()
    arena = shm.ShmArena()
    try:
        tid, ver = fragmentation.cache_token
        desc = arena.descriptor_for(tid, ver, fragmentation[0])
        attached = {(tid, 0): desc.generation}
        u, v, w = next(iter(fragmentation[0].graph.edges()))
        apply_delta(fragmentation, GraphDelta().set_weight(u, v, w + 1.0))
        _tid, ver2 = fragmentation.cache_token
        # patched in place: a worker mapping the old generation may keep
        # its CSR across the replay
        assert arena.keepable_fids(tid, ver2, attached, [0]) == {0}
        # structural: nothing is keepable
        apply_delta(fragmentation, GraphDelta().delete(u, v))
        _tid, ver3 = fragmentation.cache_token
        assert arena.keepable_fids(tid, ver3, attached, [0]) == set()
    finally:
        arena.close()


def test_forget_unlinks_segments():
    fragmentation, _g = make_fragmentation(seed=6)
    arena = shm.ShmArena()
    tid, ver = fragmentation.cache_token
    for f in fragmentation:
        arena.descriptor_for(tid, ver, fragmentation[f.fid])
    before = {os.path.basename(p) for p in shm_files()}
    assert len(before) >= fragmentation.num_fragments
    arena.forget(tid)
    assert arena.stats() == (0, 0)
    remaining = {os.path.basename(p) for p in shm_files()}
    assert not any(f"-f{f.fid}" in name and name in before
                   for f in fragmentation for name in remaining - before)
    arena.close()


def test_arena_token_lru_bound():
    fragmentation, _g = make_fragmentation(seed=7)
    arena = shm.ShmArena(max_tokens=2)
    try:
        frag = fragmentation[0]
        for tid in (101, 102, 103):
            assert arena.descriptor_for(tid, 0, frag) is not None
        # the oldest token was evicted and its segment unlinked
        assert arena.current_generation(101, 0, 0) is None
        assert arena.current_generation(103, 0, 0) is not None
        segs, _nbytes = arena.stats()
        assert segs == 2
    finally:
        arena.close()


def test_close_unlinks_everything():
    fragmentation, _g = make_fragmentation(seed=8)
    arena = shm.ShmArena()
    tid, ver = fragmentation.cache_token
    desc = arena.descriptor_for(tid, ver, fragmentation[0])
    path = os.path.join("/dev/shm", desc.name)
    assert os.path.exists(path)
    arena.close()
    assert not os.path.exists(path)
    assert arena.stats() == (0, 0)
    # a closed arena serves no descriptors
    assert arena.descriptor_for(tid, ver, fragmentation[0]) is None


# ---------------------------------------------------------------------------
# stale sweep and capability gating
# ---------------------------------------------------------------------------
def test_sweep_stale_reclaims_dead_owner_segments():
    proc = subprocess.Popen(["sleep", "0"])
    proc.wait()
    dead = f"repro-shm-{proc.pid}-1-f0"
    live = f"repro-shm-{os.getpid()}-deadbeef-f0"
    prov = shm.provider()
    for name in (dead, live):
        with open(os.path.join("/dev/shm", name), "wb") as fh:
            fh.write(b"x")
    try:
        removed = shm.sweep_stale()
        assert removed >= 1
        assert not os.path.exists(os.path.join("/dev/shm", dead))
        # live publishers' segments are left alone
        assert os.path.exists(os.path.join("/dev/shm", live))
    finally:
        prov.unlink(dead)
        prov.unlink(live)


def _spill_and_hang(conn):
    from repro.runtime.executors import _Channel
    _Channel(conn).send(b"x" * (2 << 20))  # above the 1 MiB threshold
    time.sleep(60)


@pytest.mark.parametrize("read_after_sweep", [False, True])
def test_spill_of_a_killed_sender_is_swept(read_after_sweep):
    """The channel's >1 MB spill file outlives a sender that is killed
    before the reader takes it (what ``_WorkerHandle._abandon`` does on
    cancel, deadline and missed heartbeats).  It lives in the segments'
    namespace, so the dead-owner sweep reclaims it — and a reader that
    comes for it afterwards gets the typed worker-death error."""
    from repro.runtime.executors import (WorkerProcessDied, _Channel,
                                         _WorkerHandle)
    shm.sweep_stale()  # whatever dead processes left here before
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_spill_and_hang, args=(child,), daemon=True)
    proc.start()
    child.close()
    try:
        assert parent.poll(30)  # the header is sent after the file is written
        spilled = glob.glob(f"/dev/shm/repro-shm-{proc.pid}-ipc-*")
        assert len(spilled) == 1
        assert os.path.getsize(spilled[0]) > 2 << 20
        assert spilled[0] in shm_files()  # the orphan checks see it
    finally:
        proc.kill()
        proc.join(30)
    assert not proc.is_alive()
    handle = _WorkerHandle.__new__(_WorkerHandle)
    handle.channel, handle.process, handle._dead = _Channel(parent), proc, False
    if not read_after_sweep:
        handle.channel.close()  # unread: the receiver never owned the file
        assert os.path.exists(spilled[0])
    assert shm.sweep_stale() == 1
    assert not glob.glob(f"/dev/shm/repro-shm-{proc.pid}-*")
    if read_after_sweep:
        with pytest.raises(WorkerProcessDied):
            handle.receive()
        assert not handle.alive
        handle.channel.close()


def test_env_var_disables_plane(monkeypatch):
    monkeypatch.setenv("REPRO_SHM", "0")
    monkeypatch.setattr(shm, "_provider_box", [])
    assert shm.provider() is None
    assert not shm.shm_available()
    arena = shm.ShmArena()
    assert not arena.available
    assert arena.descriptor_for(1, 0, None) is None
    arena.close()
