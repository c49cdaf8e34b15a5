"""ReplicaService: bootstrap, tailing, lag, rollover, re-bootstrap.

The tentpole behavior: a replica warm-starts from the primary's durable
chain and stays current by *replaying updates*, serving reads (and
maintaining standing watches) whose answers are equal to the primary's.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.replication import ReadOnlyReplicaError, ReplicaService
from repro.sequential import sssp_distances
from repro.service import GrapeService


def make_primary(tmp_path, seed=23, **kwargs):
    g = uniform_random_graph(40, 130, directed=False, seed=seed)
    primary = GrapeService(store_dir=tmp_path / "store", node_id="primary",
                           **kwargs)
    primary.load_graph("soc", g)
    return primary, g


def mixed_batch(g, rng, i):
    """One mixed batch: an insertion, plus (rotating) a deletion or a
    reweight against a live edge."""
    delta = GraphDelta().insert(rng.randrange(40), 1000 + i,
                                round(rng.uniform(0.1, 1.0), 3))
    edges = sorted(g.edges())
    u, v, w = edges[rng.randrange(len(edges))]
    if i % 3 == 0:
        delta.delete(u, v)
    elif i % 3 == 1:
        delta.set_weight(u, v, round(w * rng.uniform(0.25, 4.0), 3))
    return delta


class TestBootstrapAndTail:
    def test_replica_serves_without_parsing_or_writing(self, tmp_path):
        primary, g = make_primary(tmp_path)
        replica = ReplicaService(tmp_path / "store", replica_id="r1")
        assert replica.graphs() == ["soc"]
        assert replica.stats.edge_lists_parsed == 0
        assert replica.stats.warm_starts == 1
        assert (replica.play("sssp", 0, graph="soc").answer
                == primary.play("sssp", 0, graph="soc").answer)
        replica.close()
        primary.close()

    def test_tails_twenty_mixed_batches_with_monotone_seq(self, tmp_path):
        """The acceptance core: >= 20 mixed insert/delete/reweight
        batches, applied seq strictly advancing, every answer equal to
        the primary oracle (and the sequential oracle)."""
        primary, g = make_primary(tmp_path)
        replica = ReplicaService(tmp_path / "store", replica_id="r1")
        rng = random.Random(5)
        seqs = []
        for i in range(22):
            primary.update("soc", mixed_batch(g, rng, i))
            assert replica.lag_bytes("soc") > 0
            applied = replica.sync()
            assert applied >= 1
            seqs.append(replica.applied_seq("soc"))
            assert replica.lag_bytes("soc") == 0
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert replica.applied_seq("soc") == 22
        assert replica.stats.replica_batches_applied == 22
        answer = replica.play("sssp", 0, graph="soc").answer
        assert answer == primary.play("sssp", 0, graph="soc").answer
        assert answer == pytest.approx(sssp_distances(g, 0))
        status = replica.replication_status("soc")
        assert status["caught_up"] and not status["promoted"]
        replica.close()
        primary.close()

    def test_catches_up_a_backlog_in_one_sync(self, tmp_path):
        """A replica that never synced during the churn applies the whole
        backlog in one sync and then answers what the primary answers."""
        primary, g = make_primary(tmp_path)
        replica = ReplicaService(tmp_path / "store", replica_id="r1")
        rng = random.Random(7)
        for i in range(10):
            primary.update("soc", mixed_batch(g, rng, i))
        assert replica.lag_bytes("soc") > 0
        assert replica.sync("soc") == 10
        assert replica.applied_seq("soc") == 10
        assert replica.lag_bytes("soc") == 0
        assert replica.stats.replica_resnapshots == 0
        for program, query in (("sssp", 0), ("cc", None)):
            assert (replica.play(program, query, graph="soc").answer
                    == primary.play(program, query, graph="soc").answer)
        replica.close()
        primary.close()

    def test_replica_watch_maintained_by_replaying_updates(self, tmp_path):
        """A standing watch on the replica is refreshed per tailed
        batch — paying for the update, not the query: the replica runs
        the query once and maintains it, never re-running from scratch
        on the incremental path."""
        primary, g = make_primary(tmp_path)
        replica = ReplicaService(tmp_path / "store", replica_id="r1")
        watch_p = primary.watch("sssp", 0, graph="soc")
        watch_r = replica.watch("sssp", 0, graph="soc")
        # Monotone batches: the replica maintains incrementally.
        for i in range(6):
            primary.insert_edges("soc", [(i % 40, 2000 + i, 0.2)])
            replica.sync()
            assert watch_r.answer == watch_p.answer
        assert watch_r.refreshes == 6
        assert replica.stats.incremental_maintained >= 6
        replica.close()
        primary.close()

    def test_follows_generation_rollovers(self, tmp_path):
        """A tiny compaction threshold forces rollovers mid-stream; the
        follower drains and switches without losing a batch."""
        primary, g = make_primary(tmp_path, store_compact_threshold=256,
                                  store_retain_generations=2)
        replica = ReplicaService(tmp_path / "store", replica_id="r1")
        rng = random.Random(9)
        for i in range(10):
            primary.update("soc", mixed_batch(g, rng, i))
            replica.sync()
        assert replica.stats.replica_rollovers > 0
        assert replica.stats.replica_resnapshots == 0
        assert (replica.play("sssp", 0, graph="soc").answer
                == primary.play("sssp", 0, graph="soc").answer)
        assert replica.position("soc")[0] > 1  # generation advanced
        replica.close()
        primary.close()

    def test_resnapshots_after_falling_past_retention(self, tmp_path):
        """Zero retention + aggressive compaction + a replica that never
        syncs mid-churn: the chain it was following is GC'd, so the next
        sync re-bootstraps from the current snapshot — with an active
        watch whose handle survives and stays correct."""
        primary, g = make_primary(tmp_path, store_compact_threshold=256,
                                  store_retain_generations=0)
        replica = ReplicaService(tmp_path / "store", replica_id="r1")
        watch_r = replica.watch("sssp", 0, graph="soc")
        rng = random.Random(13)
        for i in range(12):  # several rollovers, replica never syncs
            primary.update("soc", mixed_batch(g, rng, i))
        replica.sync()
        assert replica.stats.replica_resnapshots >= 1
        assert watch_r.active
        assert watch_r.answer == pytest.approx(sssp_distances(g, 0))
        assert (replica.play("sssp", 0, graph="soc").answer
                == primary.play("sssp", 0, graph="soc").answer)
        replica.close()
        primary.close()

    def test_adopts_graphs_registered_after_start(self, tmp_path):
        primary, g = make_primary(tmp_path)
        replica = ReplicaService(tmp_path / "store", replica_id="r1")
        g2 = uniform_random_graph(20, 50, directed=False, seed=77)
        primary.load_graph("late", g2)
        replica.sync()
        assert sorted(replica.graphs()) == ["late", "soc"]
        assert (replica.play("cc", graph="late").answer
                == primary.play("cc", graph="late").answer)
        replica.close()
        primary.close()


class TestReadOnly:
    def test_mutations_raise_typed_error(self, tmp_path):
        primary, g = make_primary(tmp_path)
        replica = ReplicaService(tmp_path / "store", replica_id="r1")
        with pytest.raises(ReadOnlyReplicaError):
            replica.update("soc", GraphDelta().insert(1, 2, 0.5))
        with pytest.raises(ReadOnlyReplicaError):
            replica.insert_edges("soc", [(1, 2, 0.5)])
        with pytest.raises(ReadOnlyReplicaError):
            replica.load_graph("new", g)
        with pytest.raises(ReadOnlyReplicaError):
            replica.unload_graph("soc")
        # ...and nothing leaked into the primary's WAL.
        assert replica.stats.wal_appends == 0
        replica.close()
        primary.close()

    def test_replica_never_truncates_the_primary_wal(self, tmp_path):
        """A replica opening while the primary's WAL has a torn tail
        must leave the file alone — truncation is the writer's job."""
        primary, g = make_primary(tmp_path)
        primary.insert_edges("soc", [(0, 999, 0.5)])
        wal_path = primary.store._current_wal_path("soc")
        with open(wal_path, "ab") as fh:
            fh.write(b"\x00\x01torn")
        size_before = wal_path.stat().st_size
        replica = ReplicaService(tmp_path / "store", replica_id="r1")
        replica.sync()
        assert wal_path.stat().st_size == size_before
        assert (replica.play("sssp", 0, graph="soc").answer
                == primary.play("sssp", 0, graph="soc").answer)
        replica.close()
        primary.close(flush=False)
