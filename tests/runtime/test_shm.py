"""The shared-memory fragment plane: publish/attach, segments that are
never written after publish, stale-and-republish, arena lifecycle, and
the stale-segment sweep."""

import glob
import mmap
import multiprocessing
import os
import subprocess
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.engine import EngineConfig, GrapeEngine
from repro.core.updates import apply_delta
from repro.graph.delta import GraphDelta
from repro.graph.generators import labeled_graph, uniform_random_graph
from repro.graph.graph import DeferredGraph
from repro.partition.strategies import HashPartition
from repro.pie_programs import SSSPProgram
from repro.runtime import shm
from repro.runtime.executors import ProcessBackend
from repro.sequential import sssp_distances
from repro.service import GrapeService
from repro.store import load_snapshot, save_snapshot

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


def test_segment_layout_is_three_arrays_and_the_fragment():
    """The format, pinned: ``indptr | indices | weights | meta``, each
    at the next 64-byte boundary, and nothing after the pickle."""
    fragmentation, _g = make_fragmentation()
    frag = fragmentation[0]
    csr = frag.csr()
    prov = shm.provider()
    _seg, desc = shm.publish_fragment(prov, 1, 0, 0, frag, csr)
    try:
        assert [name for name, *_rest in desc.layout] \
            == ["indptr", "indices", "weights", "meta"]
        end = 0
        for name, dtype, count, offset in desc.layout:
            assert offset == -(-end // 64) * 64, name
            end = offset + count * np.dtype(dtype).itemsize
            if name != "meta":
                assert (dtype, count) == (getattr(csr, name).dtype.str,
                                          getattr(csr, name).shape[0])
        assert desc.nbytes == end
        assert os.path.getsize(os.path.join("/dev/shm", desc.name)) == end
    finally:
        prov.unlink(desc.name)


def test_labelled_fragments_attach_unbuilt_and_replay_equal(tmp_path):
    """A restored fragmentation with node and edge labels publishes and
    attaches without building a dict graph; the attached copies then
    replay a labelled insert and a mirror retirement to graphs equal to
    the coordinator's — edges, weights and both label maps."""
    g = labeled_graph(30, 70, num_labels=3, seed=4, directed=True)
    for i, (u, v, w) in enumerate(sorted(g.edges())):
        if i % 3 == 0:
            g.add_edge(u, v, weight=w, label=f"e{i}")
    save_snapshot(tmp_path / "g.snap", g,
                  fragmentation=HashPartition().partition(g, 2))
    restored = load_snapshot(tmp_path / "g.snap").fragmentation
    prov = shm.provider()
    fills = DeferredGraph.materialised
    published = [shm.publish_fragment(prov, 1, 0, 0, frag, frag.csr())
                 for frag in restored]
    try:
        clones = [shm.attach_fragment(desc)[0] for _seg, desc in published]
    finally:
        for _seg, desc in published:
            prov.unlink(desc.name)
    assert DeferredGraph.materialised == fills
    assert all(type(c.graph) is DeferredGraph for c in clones)
    for clone, frag in zip(clones, restored):
        assert (clone.owned, clone.inner, clone.outer) == (
            frag.owned, frag.inner, frag.outer)
        assert clone.graph._edge_labels == frag.graph._edge_labels != {}

    # fragment 0 gains a labelled mirror and drops one it reaches once
    frag = restored[0]
    local = frag.graph
    u = min(frag.owned)
    new = min(v for v in g.nodes() if not local.has_node(v))
    gone = min(v for v in frag.outer if local.in_degree(v) == 1)
    delta = GraphDelta().insert(u, new, 0.5)
    delta.delete(next(iter(local.predecessors(gone))), gone)
    touched = apply_delta(restored, delta)
    assert (new, g.node_label(new)) in touched[0].new_nodes
    assert g.node_label(new) is not None and gone in touched[0].retired_nodes
    for fid, fdelta in touched.items():
        fdelta.replay(clones[fid])
    for clone, frag in zip(clones, restored):
        assert clone.graph == frag.graph
        assert clone.graph._succ == frag.graph._succ
        assert clone.graph._node_labels == frag.graph._node_labels
        assert clone.graph._edge_labels == frag.graph._edge_labels
        assert (clone.owned, clone.inner, clone.outer) == (
            frag.owned, frag.inner, frag.outer)
        np.testing.assert_array_equal(clone.csr().indices,
                                      frag.csr().indices)


# ---------------------------------------------------------------------------
# arena: descriptors, stale entries, republish
# ---------------------------------------------------------------------------
def test_descriptor_reuse_stale_and_republish():
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
        assert arena.stats() == (2, sum(d.nbytes for d in descs.values()))

        # a weight-only delta is a delta like any other: the touched
        # fragment's entry goes stale and is unlinked on the spot, its
        # shared snapshot is retired and the next one spliced from it
        u, v, w = next(iter(g.edges()))
        owner = fragmentation.gp.owner(u)
        before = fragmentation[owner].csr()
        assert fragmentation[owner].csr_shared
        touched = apply_delta(fragmentation,
                              GraphDelta().set_weight(u, v, w + 2.5))
        ver1 = fragmentation.cache_token[1]
        for fid, desc in descs.items():
            gone = fid in touched
            assert os.path.exists(f"/dev/shm/{desc.name}") == (not gone)
            assert (arena.current_generation(tid, ver1, fid) is None) == gone
        assert arena.stats()[0] == 2 - len(touched)
        assert not fragmentation[owner].csr_cached
        snap = fragmentation[owner].csr()
        assert not fragmentation[owner].csr_shared
        assert (fragmentation[owner].csr_builds,  # the first: installed
                fragmentation[owner].csr_patches) == (0, 1)
        row = slice(*snap.indptr[snap.id_of[u]:snap.id_of[u] + 2])
        hit = snap.indices[row] == snap.id_of[v]
        assert snap.weights[row][hit] == w + 2.5
        assert before.weights[row][hit] == w  # the retired one is as it was

        # the next descriptor request republishes under a bumped generation
        desc1 = arena.descriptor_for(tid, ver1, fragmentation[owner])
        assert desc1.generation == descs[owner].generation + 1
        assert arena.publishes == fragmentation.num_fragments + 1
        assert fragmentation[owner].csr_shared

        # border-set churn alone stales too (the pickled fragment holds
        # F_i.I): ``other`` gains an inner node, none of its edges change
        other = 1 - owner
        x = next(n for n in fragmentation[other].owned
                 if n not in fragmentation[other].inner)
        touched = apply_delta(fragmentation, GraphDelta().insert(u, x, 0.4))
        assert not touched[other].mutates_graph
        ver2 = fragmentation.cache_token[1]
        assert arena.current_generation(tid, ver2, other) is None
        assert arena.stats() == (0, 0)
        assert not any(os.path.exists(f"/dev/shm/{d.name}")
                       for d in (*descs.values(), desc1))
    finally:
        arena.close()
    assert arena.ref_leaks == 0


def test_references_survive_stale_and_republish():
    """A reference belongs to the key, not to a generation: a worker
    that mapped generation 0 is still counted on generation 1."""
    fragmentation, g = make_fragmentation()
    arena = shm.ShmArena()
    tid, ver = fragmentation.cache_token
    arena.descriptor_for(tid, ver, fragmentation[0])
    assert arena.retain(tid, 0)
    u, v, w = next(iter(fragmentation[0].graph.edges()))
    apply_delta(fragmentation, GraphDelta().set_weight(u, v, w + 1.0))
    assert arena.stats() == (0, 0)
    desc = arena.descriptor_for(tid, fragmentation.cache_token[1],
                                fragmentation[0])
    assert desc.generation == 1
    arena.close()
    assert arena.ref_leaks == 1


# ---------------------------------------------------------------------------
# arena: lifecycle
# ---------------------------------------------------------------------------
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
# through the process backend: segments are immutable, stale ones unlinked
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def pool():
    backend = ProcessBackend(max_workers=2)
    yield backend
    backend.close()
    assert backend._arena.ref_leaks == 0


class SegmentWatch:
    """Maps every segment file of this process it has not seen yet and
    keeps the bytes it first read there — a mapping outlives the unlink,
    and a write through any other mapping of the file shows in it."""

    def __init__(self):
        self.seen = {}

    def look(self):
        for path in glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*-f*"):
            if path not in self.seen:
                with open(path, "rb") as fh:
                    mapped = mmap.mmap(fh.fileno(), 0, prot=mmap.PROT_READ)
                self.seen[path] = (mapped, bytes(mapped))

    def assert_unwritten(self):
        for path, (mapped, first) in self.seen.items():
            assert bytes(mapped) == first, path


edge_picks = st.integers(min_value=0)
weights = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
nodes = st.integers(min_value=0, max_value=43)  # a few beyond the graph's
reweight = st.tuples(st.just("w"), edge_picks, weights)
operation = st.one_of(reweight,
                      st.tuples(st.just("+"), nodes, nodes, weights),
                      st.tuples(st.just("-"), edge_picks))


@st.composite
def histories(draw):
    """``(pure, batches)``: pure-reweight histories, or mixed ones with
    empty batches among them."""
    pure = draw(st.booleans())
    batch = (st.lists(reweight, min_size=1, max_size=3) if pure
             else st.lists(operation, max_size=3))
    return pure, draw(st.lists(batch, min_size=1, max_size=4))


def resolve(graph, ops) -> GraphDelta:
    delta = GraphDelta()
    live = sorted(graph.edges())
    for kind, *args in ops:
        if kind == "+":
            if args[0] != args[1]:
                delta.insert(*args)
        else:
            u, v, _w = live[args[0] % len(live)]
            if kind == "-":
                delta.delete(u, v)
            else:
                delta.set_weight(u, v, args[1])
    return delta


@given(seed=st.integers(min_value=0, max_value=50), directed=st.booleans(),
       history=histories())
@settings(max_examples=40, deadline=None)
def test_published_segments_are_never_written(pool, seed, directed, history):
    """Whatever the update history — inserts, deletes, reweights, pure
    reweights, empty batches — no byte of a published segment changes,
    and the process backend agrees with the serial one on the answer and
    on every count.  After a pure-reweight batch the workers splice
    their next snapshots from the segments they map; nothing rebuilds."""
    g = uniform_random_graph(40, 140, directed=directed, seed=seed)
    engine = GrapeEngine(2, backend=pool)
    serial = GrapeEngine(2, backend="serial")
    fragmentation = engine.make_fragmentation(g)
    watch = SegmentWatch()
    pure, batches = history
    for ops in [[]] + batches:
        touched = apply_delta(fragmentation, resolve(g, ops))
        built = fragmentation.csr_snapshots_built
        patched = fragmentation.csr_snapshots_patched
        result = engine.run(SSSPProgram(), 0, fragmentation=fragmentation)
        watch.look()
        assert result.metrics.shm_fallbacks == 0
        if pure and touched:  # (a reweight to the same weight is no batch)
            # delta replay on resident copies: the splices below happened
            # worker-side, off the (stale, still mapped) segments
            assert result.metrics.fragments_shipped == 0
            assert fragmentation.csr_snapshots_patched - patched \
                == sum(d.mutates_graph for d in touched.values()) > 0
            assert fragmentation.csr_snapshots_built == built
        expected = serial.run(SSSPProgram(), 0, fragmentation=fragmentation)
        assert result.answer == expected.answer
        assert (result.supersteps, result.metrics.comm_bytes,
                result.metrics.comm_messages) == (
            expected.supersteps, expected.metrics.comm_bytes,
            expected.metrics.comm_messages)
    watch.assert_unwritten()
    assert len(watch.seen) >= fragmentation.num_fragments


def test_update_unlinks_the_segments_it_stales():
    """A stale segment's file does not wait for its token to be
    forgotten: ``update()`` unlinks what it touches, the workers replay
    past it on mappings that stay valid, and what the service reports as
    active is what ``/dev/shm`` holds."""
    def files():
        return sorted(os.path.basename(p) for p in glob.glob(
            f"/dev/shm/repro-shm-{os.getpid()}-*-f*"))

    def ours():
        return [name for name in files() if name not in before]

    g = uniform_random_graph(60, 220, directed=False, seed=24)
    before = files()
    backend = ProcessBackend(max_workers=2)
    try:
        with GrapeService(engine=EngineConfig(num_workers=2,
                                              backend=backend)) as service:
            service.load_graph("g", g)
            service.play("sssp", 0, graph="g")
            published = ours()
            assert len(published) == backend.shm_stats()[0] == 2
            u, v, w = next(iter(g.edges()))
            for batch in (GraphDelta().set_weight(u, v, w + 0.75),
                          GraphDelta().insert(u, 4000, 0.4),
                          GraphDelta().delete(u, v)):
                service.update("g", batch)
                # something went, nothing was republished
                assert set(ours()) < set(published)
                assert backend.shm_stats()[0] == len(ours())
                # (process-wide: other live arenas' segments count too)
                assert service.stats.shm_segments_active == len(files())
                ticket = service.play("sssp", 0, graph="g")
                assert ticket.metrics.fragments_shipped == 0
                assert ticket.metrics.fragments_delta_shipped > 0
                assert ticket.metrics.shm_fallbacks == 0
                assert ticket.answer == pytest.approx(sssp_distances(g, 0))
            # every worker has replayed past every touched fragment
            assert ours() == []
            assert backend.shm_stats() == (0, 0)
    finally:
        backend.close()
    assert backend._arena.ref_leaks == 0
    assert files() == before


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



def test_unwritable_shm_dir_disables_plane(monkeypatch, tmp_path):
    """Without a writable tmpfs directory there is no provider and the
    arena hands out no descriptors: every fragment ships by pickle."""
    monkeypatch.setattr(shm, "_DEFAULT_DIR", str(tmp_path / "absent"))
    monkeypatch.setattr(shm, "_provider_box", [])
    assert shm.provider() is None
    assert not shm.shm_available()
    arena = shm.ShmArena()
    assert not arena.available
    assert arena.descriptor_for(1, 0, None) is None
    arena.close()


def test_writable_shm_dir_enables_plane(monkeypatch, tmp_path):
    monkeypatch.setattr(shm, "_DEFAULT_DIR", str(tmp_path))
    monkeypatch.setattr(shm, "_provider_box", [])
    prov = shm.provider()
    assert prov is not None and prov.directory == str(tmp_path)
    assert shm.provider() is prov  # made once per process
    assert shm.shm_available()
