"""What a snapshot is packed from, and what still refuses a bad one.

``save_snapshot`` packs every fragment from ``frag.csr()`` — the cached
snapshot, or one spliced from the pending dirty rows — so the payload
must not depend on which of the two (or neither) the fragment held; and
``load_snapshot`` hashes the arrays it decoded against the hash the save
side took of the live dict graph, so an edit the sha256 header cannot
see (it was recomputed) is still refused — while the graphs it hands
out stay unbuilt until first use.
"""

from __future__ import annotations

import hashlib
import io
import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from differential.test_snapshot_splice_property import (batches, graphs,
                                                        resolve,
                                                        two_fragment_path,
                                                        weights)
from repro.core.updates import apply_delta
from repro.graph.delta import GraphDelta
from repro.graph.csr import union_hash
from repro.graph.generators import labeled_graph
from repro.graph.graph import DeferredGraph, Graph
from repro.partition.strategies import (HashPartition, MetisLikePartition,
                                        VertexCutPartition)
from repro.store import SnapshotError, load_snapshot, save_snapshot
from repro.store.snapshot import _HEADER, FORMAT_VERSION, MAGIC


def members(path):
    """The payload member for member: names in archive order, each with
    dtype, shape and bytes (the zip container stamps the wall clock on
    its entries, so two files are compared by what they carry)."""
    with np.load(io.BytesIO(path.read_bytes()[_HEADER.size:])) as arrays:
        return [(name, arrays[name].dtype.str, arrays[name].shape,
                 arrays[name].tobytes()) for name in arrays.files]


def rewrite(path, edit) -> None:
    """Apply ``edit(arrays, meta)`` to the decoded payload and write the
    file back under a *recomputed* sha256 header."""
    with np.load(io.BytesIO(path.read_bytes()[_HEADER.size:])) as npz:
        arrays = {name: npz[name] for name in npz.files}
    meta = pickle.loads(arrays["pickled_meta"].tobytes())
    edit(arrays, meta)
    arrays["pickled_meta"] = np.frombuffer(pickle.dumps(meta), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    payload = buf.getvalue()
    path.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION,
                                  hashlib.sha256(payload).digest(),
                                  len(payload)) + payload)


@given(g=graphs(), history=batches,
       strategy=st.sampled_from((HashPartition(), MetisLikePartition())))
@settings(max_examples=60, deadline=None)
def test_payload_does_not_depend_on_what_the_fragments_cached(
        tmp_path_factory, g, history, strategy):
    tmp = tmp_path_factory.mktemp("snap")
    fragmentation = strategy.partition(g, 4)
    for frag in fragmentation:
        frag.csr()
    for ops, _read in history:
        apply_delta(fragmentation, resolve(g, ops))

    # pending: snapshots retired by the history wait with their dirty rows
    patches = sum(f.csr_patches for f in fragmentation)
    spliced = sum(not f.csr_cached and f._csr_pending is not None
                  for f in fragmentation)
    save_snapshot(tmp / "pending.snap", g, fragmentation=fragmentation)
    assert sum(f.csr_patches for f in fragmentation) == patches + spliced
    # cached: the save left every fragment with a live snapshot
    assert all(f.csr_cached for f in fragmentation)
    save_snapshot(tmp / "cached.snap", g, fragmentation=fragmentation)
    # nothing: every fragment builds from its whole local graph
    for frag in fragmentation:
        frag.release_snapshots()
    save_snapshot(tmp / "scratch.snap", g, fragmentation=fragmentation)

    scratch = members(tmp / "scratch.snap")
    assert members(tmp / "pending.snap") == scratch
    assert members(tmp / "cached.snap") == scratch
    loaded = load_snapshot(tmp / "pending.snap")
    assert loaded.content_hash == g.content_hash()
    assert loaded.graph == g
    assert loaded.graph.content_hash() == g.content_hash()
    for back, frag in zip(loaded.fragmentation, fragmentation):
        assert back.graph == frag.graph
        # the id table round-trips, tombstones included
        assert back.id_table()[0] == frag.id_table()[0]
        assert back.id_table()[2] == frag.id_table()[2]


def _alter_weight(prefix):
    def edit(arrays, _meta):
        weights = arrays[f"{prefix}weights"].copy()
        weights[0] += 0.25
        arrays[f"{prefix}weights"] = weights
    return edit


def _alter_node_label(prefix):
    def edit(_arrays, meta):
        assert meta[prefix]["labels"][0] != "tampered"
        meta[prefix]["labels"][0] = "tampered"
    return edit


@pytest.mark.parametrize("alter", [_alter_weight, _alter_node_label])
@pytest.mark.parametrize("partitioned", [False, True])
def test_an_edit_under_a_recomputed_checksum_is_still_refused(
        tmp_path, alter, partitioned):
    g = labeled_graph(40, 120, num_labels=3, seed=6)
    path = tmp_path / "g.snap"
    fragmentation = HashPartition().partition(g, 3) if partitioned else None
    save_snapshot(path, g, fragmentation=fragmentation)
    rewrite(path, lambda arrays, meta: None)
    assert load_snapshot(path).graph == g  # the rewrite alone is harmless
    rewrite(path, alter("f0_" if partitioned else "g_"))
    with pytest.raises(SnapshotError, match="content hash"):
        load_snapshot(path)


def test_a_version_1_file_is_refused_naming_both_versions(tmp_path):
    path = tmp_path / "g.snap"
    save_snapshot(path, labeled_graph(10, 20, num_labels=2, seed=1))
    raw = bytearray(path.read_bytes())
    assert raw[len(MAGIC)] == FORMAT_VERSION == 2
    raw[len(MAGIC)] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="version 1, expected 2"):
        load_snapshot(path)


def test_phases_say_where_the_time_went(tmp_path):
    g = labeled_graph(40, 120, num_labels=3, seed=6)
    written, loaded = {}, {}
    save_snapshot(tmp_path / "g.snap", g, phases=written)
    load_snapshot(tmp_path / "g.snap", phases=loaded)
    assert set(written) == {"hash_s", "pack_s", "io_s"}
    assert set(loaded) == {"decode_s", "verify_s"}
    assert all(s > 0.0 for s in (*written.values(), *loaded.values()))


# ---------------------------------------------------------------------------
# The verification contract on the arrays, and the deferred graphs
# ---------------------------------------------------------------------------
@st.composite
def labelled_graphs(draw):
    """Small graphs whose nodes and edges may carry labels."""
    n = draw(st.integers(min_value=3, max_value=12))
    g = Graph(directed=draw(st.booleans()))
    for v in range(n):
        g.add_node(v, draw(st.sampled_from((None, "a", "b"))))
    for _ in range(draw(st.integers(min_value=1, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v, weight=draw(weights),
                       label=draw(st.sampled_from((None, "x", "y"))))
    return g


def eager(snap, edge_labels) -> Graph:
    """The graph a snapshot's arrays hold, built edge by edge through
    the public API (tombstones are no nodes of it)."""
    g = Graph(directed=snap.directed)
    for v, i in snap.id_of.items():
        g.add_node(v, snap.labels[i])
    for u, start, end in zip(snap.node_of, snap.indptr[:-1].tolist(),
                             snap.indptr[1:].tolist()):
        for k in range(start, end):
            v = snap.node_of[snap.indices[k]]
            g.add_edge(u, v, weight=float(snap.weights[k]),
                       label=edge_labels.get((u, v)))
    return g


def flip_weight(prefix):
    def edit(arrays, _meta):
        weights = arrays[f"{prefix}weights"].copy()
        weights[-1] += 0.5
        arrays[f"{prefix}weights"] = weights
    return edit


def drop_node(prefix, node, shift_dead=True):
    """Remove ``node`` from one fragment: its row, the entries naming
    it, its labels, its border-set memberships, its id (the ids after
    it move up one; the tombstones' too unless not ``shift_dead``)."""
    def edit(arrays, meta):
        fm = meta[prefix]
        k = fm["node_of"].index(node)
        indptr, indices, weights = (arrays[prefix + name] for name in
                                    ("indptr", "indices", "weights"))
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        keep = (rows != k) & (indices != k)
        rows, cols = rows[keep], indices[keep]
        counts = np.bincount(rows - (rows > k), minlength=indptr.size - 2)
        arrays[f"{prefix}indptr"] = np.concatenate(([0], np.cumsum(counts)))
        arrays[f"{prefix}indices"] = cols - (cols > k)
        arrays[f"{prefix}weights"] = weights[keep]
        del fm["node_of"][k], fm["labels"][k]
        if "dead" in fm and shift_dead:  # the tombstones after it, too
            fm["dead"] = [i - (i > k) for i in fm["dead"]]
        for name in ("owned", "inner", "outer"):
            fm[name] = [v for v in fm[name] if v != node]
        fm["edge_labels"] = {e: label for e, label
                             in fm["edge_labels"].items() if node not in e}
    return edit


def add_unowned_node(prefix):
    """An isolated node in one fragment that no fragment owns."""
    def edit(arrays, meta):
        indptr = arrays[f"{prefix}indptr"]
        arrays[f"{prefix}indptr"] = np.append(indptr, indptr[-1])
        meta[prefix]["node_of"].append(10_000)
        meta[prefix]["labels"].append(None)
    return edit


@given(g=labelled_graphs(), history=batches,
       strategy=st.sampled_from((HashPartition(), VertexCutPartition())))
@settings(max_examples=40, deadline=None)
def test_the_loader_verifies_the_arrays_it_defers_graphs_to(
        tmp_path_factory, g, history, strategy):
    """Hash and vertex-cut, directed and undirected, labelled nodes and
    edges, after a short update history: the loaded graphs are unbuilt,
    the hash computed on their arrays is the live graph's, and, once
    built, they equal the live graphs.  ``apply_delta`` maintains
    edge-cut fragmentations; a vertex-cut one takes insertions of new
    edges only (a deletion or reweight, which an insertion of an
    existing edge is, looks for the edge at its source's owner)."""
    tmp = tmp_path_factory.mktemp("arrays")
    fragmentation = strategy.partition(g, 4)
    for ops, _read in history:
        if isinstance(strategy, VertexCutPartition):
            ops = [op for op in ops
                   if op[0] == "+" and not g.has_edge(op[1], op[2])]
        apply_delta(fragmentation, resolve(g, ops))
    path = tmp / "g.snap"
    save_snapshot(path, g, fragmentation=fragmentation)

    loaded = load_snapshot(path)
    restored = loaded.fragmentation
    parts = [(frag.csr(), np.array([frag.csr().id_of[v] for v in frag.owned],
                                   dtype=np.int64)) for frag in restored]
    assert union_hash(g.directed, parts, g._edge_labels) == g.content_hash()
    assert type(loaded.graph) is DeferredGraph
    assert all(type(frag.graph) is DeferredGraph for frag in restored)
    for back, live in zip(restored, fragmentation):
        snap = back.csr()
        assert back.graph == eager(snap, live.graph._edge_labels)
        assert type(back.graph) is Graph
        assert back.graph == live.graph
        assert list(back.graph.nodes()) == list(snap.id_of)
    assert loaded.graph == g
    assert type(loaded.graph) is Graph

    # re-packed under a valid sha256: the arrays' hash refuses each edit
    with_edges = [fid for fid, frag in enumerate(fragmentation)
                  if frag.graph.num_edges]
    owner = max(fragmentation, key=lambda frag: len(frag.owned))
    owned = next(v for v in owner.graph.nodes() if v in owner.owned)
    edits = [drop_node(f"f{owner.fid}_", owned), add_unowned_node("f0_")]
    if with_edges:
        edits.append(flip_weight(f"f{with_edges[0]}_"))
    for edit in edits:
        tampered = tmp / "tampered.snap"
        tampered.write_bytes(path.read_bytes())
        rewrite(tampered, edit)
        with pytest.raises(SnapshotError, match="content hash"):
            load_snapshot(tampered)


def set_dead(prefix, dead):
    def edit(_arrays, meta):
        meta[prefix]["dead"] = dead
    return edit


@pytest.mark.parametrize("edit", [
    drop_node("f0_", 3, shift_dead=False),  # the tombstone now names 12
    set_dead("f0_", [10]),                  # past the last id
    set_dead("f0_", [-1]),
    set_dead("f0_", [0]),                   # a node with edges
    set_dead("f0_", [8, 8]),
    set_dead("f0_", [9, 8]),
], ids=["unshifted", "out-of-range", "negative", "has-a-row", "repeated",
        "unsorted"])
def test_the_loader_refuses_bad_tombstones(tmp_path, edit):
    """Fragment 0 holds a tombstone (mirror 8, id 8) before a live
    mirror (12, id 9): a tombstone id that is out of range, repeated,
    unsorted or names a row with edges is refused as a bad snapshot."""
    g, fragmentation = two_fragment_path()
    for delta in (GraphDelta().insert(0, 12, 1.0), GraphDelta().delete(7, 8)):
        apply_delta(fragmentation, delta)  # (g moves with it)
    assert fragmentation[0].csr().node_of[8:] == [8, 12]
    assert fragmentation[0].csr().dead.tolist() == [8]
    path = tmp_path / "g.snap"
    save_snapshot(path, g, fragmentation=fragmentation)
    assert load_snapshot(path).fragmentation[0].csr().dead.tolist() == [8]
    rewrite(path, edit)
    with pytest.raises(SnapshotError):
        load_snapshot(path)

