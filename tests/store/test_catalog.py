"""GraphStore catalog: generation commits, WAL chains, compaction."""

from __future__ import annotations

import json

import pytest

from repro.core.updates import apply_delta
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.graph.graph import Graph
from repro.partition.strategies import HashPartition
from repro.store import FencedError, GraphStore
from repro.store.catalog import EPOCH_FILE, read_epoch, write_epoch


def small_graph(seed=6):
    return uniform_random_graph(50, 130, directed=False, seed=seed)


class TestCatalog:
    def test_persist_and_load(self, tmp_path):
        store = GraphStore(tmp_path)
        g = small_graph()
        store.persist_graph("soc", g)
        assert store.names() == ["soc"]
        assert "soc" in store
        loaded = store.load("soc")
        assert loaded.graph == g
        assert loaded.replayed == 0
        store.close()

    def test_append_and_replay(self, tmp_path):
        store = GraphStore(tmp_path)
        g = small_graph()
        store.persist_graph("soc", g)
        for i in range(4):
            norm = (GraphDelta().insert(1000 + i, i, 0.5)
                    .normalize(g))
            norm.apply_to(g)
            store.append_delta("soc", norm, i + 1)
        loaded = store.load("soc")
        assert loaded.graph == g
        assert loaded.replayed == 4
        assert store.metrics.wal_appends == 4
        assert store.metrics.wal_replayed == 4
        store.close()

    def test_load_unknown_raises(self, tmp_path):
        with GraphStore(tmp_path) as store:
            with pytest.raises(KeyError):
                store.load("nope")
            with pytest.raises(KeyError):
                store.append_delta("nope", GraphDelta().normalize(Graph()),
                                   1)

    def test_remove_forgets(self, tmp_path):
        store = GraphStore(tmp_path)
        store.persist_graph("a", small_graph())
        store.persist_graph("b", small_graph(seed=7))
        store.remove("a")
        assert store.names() == ["b"]
        assert "a" not in store
        store.close()

    def test_names_survive_new_instance(self, tmp_path):
        with GraphStore(tmp_path) as store:
            store.persist_graph("x", small_graph())
        with GraphStore(tmp_path) as store:
            assert store.names() == ["x"]

    def test_unfriendly_names(self, tmp_path):
        store = GraphStore(tmp_path)
        # incl. a case-colliding pair: distinct even on filesystems
        # that fold case (the dirname carries a crc of the exact name)
        names = ["social/graph", "über graph", "a.b-c_d", "Graph", "graph"]
        for i, name in enumerate(names):
            store.persist_graph(name, small_graph(seed=i))
        assert store.names() == sorted(names)
        assert len({store._graph_dir(n).name.lower()
                    for n in names}) == len(names)
        for name in names:
            assert store.load(name).name == name
        store.close()

    def test_root_holds_no_checkpoint_directory(self, tmp_path):
        """Engine checkpoints live in the coordinator's memory; the
        store's root holds the graphs only."""
        with GraphStore(tmp_path) as store:
            store.persist_graph("soc", small_graph())
            assert store.load("soc").name == "soc"
        assert [p.name for p in tmp_path.iterdir()] == ["graphs"]


class TestEpochFile:
    """The ``EPOCH`` fencing file is parsed in one place, beside the
    store that checks it on every write."""

    def test_write_then_read_round_trips(self, tmp_path):
        write_epoch(tmp_path, 3, "r2")
        assert read_epoch(tmp_path) == (3, "r2")
        write_epoch(tmp_path, 4, None)
        assert read_epoch(tmp_path) == (4, None)

    @pytest.mark.parametrize("content", [None, "not json", "{}",
                                         '{"epoch": "x"}'])
    def test_missing_or_unreadable_file_reads_as_no_coordinator(
            self, tmp_path, content):
        if content is not None:
            (tmp_path / EPOCH_FILE).write_text(content, encoding="utf-8")
        assert read_epoch(tmp_path) == (0, None)

    def test_store_handle_is_fenced_by_a_newer_epoch(self, tmp_path):
        write_epoch(tmp_path, 1, "r1")
        with GraphStore(tmp_path, node_id="r1") as store:
            store.persist_graph("soc", small_graph())
            write_epoch(tmp_path, 2, "r2")
            with pytest.raises(FencedError):
                store.persist_graph("soc2", small_graph(seed=7))
            assert store.metrics.fenced_rejections == 1
        with pytest.raises(FencedError):
            GraphStore(tmp_path, node_id="r1")


class TestCompaction:
    def test_wal_folds_into_fresh_snapshot(self, tmp_path):
        store = GraphStore(tmp_path, compact_threshold_bytes=512)
        g = small_graph()
        store.persist_graph("soc", g)
        compacted = 0
        for i in range(12):
            norm = GraphDelta().insert(2000 + i, i, 0.5).normalize(g)
            norm.apply_to(g)
            store.append_delta("soc", norm, i + 1)
            if store.maybe_compact("soc", g):
                compacted += 1
        assert compacted >= 1
        assert store.metrics.compactions == compacted

        gdir = store._graph_dir("soc")
        manifest = json.loads((gdir / "MANIFEST.json").read_text())
        assert manifest["generation"] == 1 + compacted
        # only the current generation's files remain
        files = {p.name for p in gdir.iterdir()}
        assert files == {"MANIFEST.json", manifest["snapshot"],
                         manifest["wal"]}

        loaded = store.load("soc")
        assert loaded.graph == g
        # WAL was reset at the last compaction: only post-compaction
        # batches replay
        assert loaded.replayed < 12
        store.close()

    def test_below_threshold_no_compaction(self, tmp_path):
        store = GraphStore(tmp_path)  # default 4 MiB threshold
        g = small_graph()
        store.persist_graph("soc", g)
        norm = GraphDelta().insert(9, 10, 0.1).normalize(g)
        norm.apply_to(g)
        store.append_delta("soc", norm, 1)
        assert not store.maybe_compact("soc", g)
        assert store.metrics.compactions == 0
        store.close()


class TestFragmentationChain:
    def test_load_replays_through_apply_delta(self, tmp_path):
        """When the snapshot carries a fragmentation, WAL replay goes
        through apply_delta, so the recovered fragmentation equals the
        live maintained one — including a deletion-bearing chain."""
        g = small_graph()
        frag = HashPartition().partition(g, 4)
        store = GraphStore(tmp_path)
        store.persist_graph("soc", g, fragmentation=frag)

        edges = list(g.edges())
        deltas = [GraphDelta().insert(0, 555, 0.4),
                  GraphDelta().delete(*edges[2][:2]),
                  GraphDelta().set_weight(edges[8][0], edges[8][1],
                                          edges[8][2] * 2.0)]
        for delta in deltas:
            norm = delta.normalize(g)
            apply_delta(frag, norm,
                        wal=lambda n, seq: store.append_delta("soc", n,
                                                              seq))
        loaded = store.load("soc")
        assert loaded.replayed == 3
        assert loaded.graph == g
        lf = loaded.fragmentation
        assert lf.version == frag.version
        for a, b in zip(lf.fragments, frag.fragments):
            assert a.graph == b.graph and a.owned == b.owned
            assert a.inner == b.inner and a.outer == b.outer
        lf.validate()
        store.close()

    def test_crash_ordering_manifest_last(self, tmp_path):
        """Simulated crash between snapshot write and manifest commit:
        the store still serves the previous generation."""
        store = GraphStore(tmp_path, compact_threshold_bytes=1)
        g = small_graph()
        store.persist_graph("soc", g)
        before = store.load("soc").graph

        # fake a crashed compaction: a newer-generation snapshot exists
        # but the manifest was never flipped
        gdir = store._graph_dir("soc")
        (gdir / "snapshot-2.snap").write_bytes(b"half-written garbage")
        with GraphStore(tmp_path) as fresh:
            assert fresh.load("soc").graph == before
