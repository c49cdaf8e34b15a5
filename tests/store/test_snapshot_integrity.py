"""What a snapshot is packed from, and what still refuses a bad one.

``save_snapshot`` packs every fragment from ``frag.csr()`` — the cached
snapshot, or one spliced from the pending dirty rows — so the payload
must not depend on which of the two (or neither) the fragment held; and
``load_snapshot`` hashes the dict graph it decoded, so an edit the sha256
header cannot see (it was recomputed) is still refused.
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
                                                        resolve)
from repro.core.updates import apply_delta
from repro.graph.generators import labeled_graph
from repro.partition.strategies import HashPartition, MetisLikePartition
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
        assert list(back.graph.nodes()) == list(frag.graph.nodes())


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
