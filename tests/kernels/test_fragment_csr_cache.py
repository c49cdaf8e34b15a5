"""Fragment CSR snapshot lifecycle: the snapshot a fresh partition
installs, lazy build, reuse, invalidation, and the splice of the next
snapshot from the retired one."""

import sys
import threading

import numpy as np
from differential.harness import assert_derived_state_fresh

from repro.core.engine import GrapeEngine
from repro.core.updates import apply_delta, apply_insertions
from repro.graph.delta import GraphDelta
from repro.graph.csr import CSRGraph
from repro.graph.generators import uniform_random_graph
from repro.pie_programs import SSSPProgram


def make_fragmentation(num_fragments=3, seed=0):
    """A fresh partition with its installed snapshots let go: the
    lifecycle of a fragment that has none (built lazily, spliced)."""
    g = uniform_random_graph(40, 120, seed=seed)
    fragmentation = GrapeEngine(num_fragments).make_fragmentation(g)
    fragmentation.release_snapshots()
    return fragmentation


class TestFragmentSnapshot:
    def test_a_fresh_partition_installs_its_snapshots(self):
        g = uniform_random_graph(40, 120, seed=0)
        for frag in GrapeEngine(3).make_fragmentation(g):
            assert frag.csr_cached and frag.csr_builds == 0
            snap, fresh = frag.csr(), CSRGraph.from_graph(frag.graph)
            assert snap.node_of == fresh.node_of
            for name in ("indptr", "indices", "weights"):
                assert np.array_equal(getattr(snap, name),
                                      getattr(fresh, name))
            assert frag.csr_builds == 0

    def test_lazy_build_and_reuse(self):
        frag = make_fragmentation()[0]
        assert frag.csr_builds == 0
        snap = frag.csr()
        assert isinstance(snap, CSRGraph)
        assert frag.csr() is snap  # cached
        assert frag.csr_builds == 1

    def test_snapshot_mirrors_local_graph(self):
        frag = make_fragmentation()[1]
        snap = frag.csr()
        assert snap.n == frag.graph.num_nodes
        assert set(snap.node_of) == set(frag.graph.nodes())

    def test_invalidate_drops_and_bumps_epoch(self):
        frag = make_fragmentation()[0]
        snap = frag.csr()
        epoch = frag.csr_epoch
        frag.invalidate_csr()
        assert frag.csr_invalidations == 1
        assert frag.csr_epoch == epoch + 1
        # Idempotent until the next build.
        frag.invalidate_csr()
        assert frag.csr_invalidations == 1
        assert frag.csr() is not snap
        assert frag.csr_builds == 2

    def test_invalidate_without_snapshot_still_moves_epoch(self):
        # No drop is counted, but the epoch must advance anyway: with the
        # process backend the snapshot (and arrays derived from it) may
        # live in a worker while the coordinator-side fragment has
        # nothing cached locally — consumers key on the epoch to notice
        # the mutation.
        frag = make_fragmentation()[2]
        frag.invalidate_csr()
        assert frag.csr_invalidations == 0
        assert frag.csr_epoch == 1


class TestOwnedOrder:
    def test_graph_order_whatever_the_set_order(self):
        import pickle
        fragmentation = make_fragmentation()
        for frag in fragmentation:
            order = frag.owned_slots()[0]
            assert order == [v for v in frag.graph.nodes()
                             if v in frag.owned]
            assert frag.owned_slots()[0] is order  # cached per epoch
            # the ids are the snapshot's, with or without one built
            assert not frag.csr_cached
            ids = frag.owned_slots()[1].tolist()
            assert ids == [frag.csr().id_of[v] for v in order]
            frag.release_snapshots()
            frag.csr()
            assert frag.owned_slots()[1].tolist() == ids
            # a pickle round trip may reorder the set, never this
            assert pickle.loads(pickle.dumps(frag)).owned_slots()[0] == order

    def test_follows_the_epoch(self):
        fragmentation = make_fragmentation()
        before = {frag.fid: frag.owned_slots()[0] for frag in fragmentation}
        touched = apply_insertions(fragmentation, [(0, 4242, 0.5)])
        home = fragmentation.gp.owner(4242)
        assert 4242 in touched[home].owned_added
        assert fragmentation[home].owned_slots()[0] == before[home] + [4242]


class TestSplice:
    """``csr_builds`` counts builds from the whole graph, ``csr_patches``
    splices from the retired snapshot and a dirty set."""

    def test_delta_retires_then_splices(self):
        fragmentation = make_fragmentation()
        snaps = [frag.csr() for frag in fragmentation]
        u, v, _w = next(iter(fragmentation.graph.edges()))
        touched = apply_delta(fragmentation,
                              GraphDelta().insert(0, 1, 0.5).delete(u, v))
        mutated = {fid for fid, d in touched.items() if d.mutates_graph}
        assert mutated
        for frag, old in zip(fragmentation, snaps):
            if frag.fid not in mutated:
                assert frag.csr() is old
                continue
            # maintenance must keep seeing "no snapshot" until a read
            assert not frag.csr_cached
            new = frag.csr()
            assert frag.csr_cached and new is not old
            assert (frag.csr_builds, frag.csr_patches) == (1, 1)
            fresh = CSRGraph.from_graph(frag.graph)
            assert np.array_equal(new.indptr, fresh.indptr)
            assert np.array_equal(new.indices, fresh.indices)
            assert np.array_equal(new.weights, fresh.weights)
            assert frag.csr() is new  # the retired snapshot was let go
            assert frag.csr_patches == 1
        assert fragmentation.csr_snapshots_built == len(fragmentation)
        assert fragmentation.csr_snapshots_patched == len(mutated)

    def test_dirty_sets_of_successive_batches_accumulate(self):
        fragmentation = make_fragmentation(num_fragments=2)
        for frag in fragmentation:
            frag.csr()
        mutated = set()
        for edge in ((0, 1, 0.5), (2, 3, 0.5), (4, 5, 0.5)):
            touched = apply_insertions(fragmentation, [edge])
            mutated |= {f for f, d in touched.items() if d.mutates_graph}
        assert mutated
        for frag in fragmentation:
            snap = frag.csr()
            # three batches, one retirement, one splice
            assert (frag.csr_builds, frag.csr_invalidations,
                    frag.csr_patches) == (1,) + 2 * (int(frag.fid in mutated),)
            assert np.array_equal(snap.indices,
                                  CSRGraph.from_graph(frag.graph).indices)

    def test_invalidate_without_a_dirty_set_still_drops(self):
        frag = make_fragmentation()[0]
        frag.csr()
        frag.invalidate_csr({next(iter(frag.owned))})
        frag.invalidate_csr()  # an unknown mutation: nothing to splice
        assert frag.csr_invalidations == 1
        frag.csr()
        assert (frag.csr_builds, frag.csr_patches) == (2, 0)

    def test_a_dirty_set_that_is_not_small_builds(self):
        frag = make_fragmentation()[0]
        frag.csr()
        frag.invalidate_csr(set(frag.graph.nodes()))
        frag.csr()
        assert (frag.csr_builds, frag.csr_patches) == (2, 0)

    def test_release_drops_every_array(self):
        fragmentation = make_fragmentation()
        for frag in fragmentation:
            frag.csr()
        apply_insertions(fragmentation, [(0, 1, 0.5)])
        fragmentation[1].outer_slots()
        fragmentation[1].owned_slots()
        fragmentation.border_index()
        fragmentation.release_snapshots()
        for frag in fragmentation:
            assert frag._csr is None and frag._csr_pending is None
            assert frag._border_table is None and frag._owned_slots is None
        assert fragmentation._border_index is None
        epochs = [frag.csr_epoch for frag in fragmentation]
        assert fragmentation[0].csr().n == fragmentation[0].graph.num_nodes
        assert [frag.csr_epoch for frag in fragmentation] == epochs

    def test_concurrent_readers_splice_once(self):
        frag = make_fragmentation(num_fragments=2)[0]
        frag.csr()
        frag.invalidate_csr({next(iter(frag.owned))})
        results, start = [], threading.Barrier(8)

        def read():
            start.wait(timeout=10)
            results.append(frag.csr())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(snap is results[0] for snap in results)
        assert (frag.csr_builds, frag.csr_patches) == (1, 1)


class TestDerivedTables:
    """The slot tables are built once per id table: a batch appends to
    ``owned_slots`` and patches the border table at the nodes its border
    edits name, and a splice leaves both alone — the same arrays a
    fresh build derives (tests/differential has the property)."""

    def fragmentation(self):
        from repro.partition.strategies import HashPartition
        g = uniform_random_graph(60, 200, directed=True, seed=3)
        return g, HashPartition().partition(g, 3)

    @staticmethod
    def touch(fragmentation):
        for frag in fragmentation:
            frag.outer_slots(), frag.border_slots(), frag.owned_slots()

    @staticmethod
    def cross_edge_onto_a_fresh_inner_node(g, fragmentation):
        owner = fragmentation.gp.owner
        return next((u, v) for u in g.nodes() for v in g.nodes()
                    if u != v and owner(u) != owner(v)
                    and not g.has_edge(u, v)
                    and v not in fragmentation[owner(v)].inner)

    def test_tables_are_built_once_and_patched_from_then_on(self):
        g, fragmentation = self.fragmentation()
        self.touch(fragmentation)
        assert [f.tables_rebuilt for f in fragmentation] == [2] * 3
        u, v = self.cross_edge_onto_a_fresh_inner_node(g, fragmentation)
        gp = fragmentation.gp
        there, here = fragmentation[gp.owner(u)], fragmentation[gp.owner(v)]
        assert v not in here.border_slots()[0]
        before = there.border_slots()
        touched = apply_delta(fragmentation, GraphDelta().insert(u, v, 1.0))
        # the tail's owner: a new mirror, a splice
        assert touched[there.fid].mutates_graph and not there.csr_cached
        # the head's owner: F_i.I moved, the local graph did not
        assert not touched[here.fid].mutates_graph and here.csr_cached
        assert (here.border_epoch, here.csr_epoch) == (1, 0)
        self.touch(fragmentation)
        assert v in here.border_slots()[0] and v not in here.outer_slots()[0]
        assert v in there.outer_slots()[0]
        # the mirror took the next id; every other slot kept its id
        labels, ids = there.border_slots()
        assert ids[labels == v].tolist() == [there.csr().n - 1]
        kept = np.isin(labels, before[0])
        assert labels[kept].tolist() == before[0].tolist()
        assert ids[kept].tolist() == before[1].tolist()
        assert [f.tables_rebuilt for f in fragmentation] == [2] * 3
        assert_derived_state_fresh(fragmentation)
        warm = [f.border_slots() for f in fragmentation]
        self.touch(fragmentation)
        assert all(f.border_slots()[0] is t[0]
                   for f, t in zip(fragmentation, warm))

    def test_tables_of_a_new_id_table_are_rebuilt(self):
        g, fragmentation = self.fragmentation()
        self.touch(fragmentation)
        for frag in fragmentation:
            frag.invalidate_csr()  # an unknown mutation: nothing to splice
        u, v = self.cross_edge_onto_a_fresh_inner_node(g, fragmentation)
        apply_delta(fragmentation, GraphDelta().insert(u, v, 1.0))
        self.touch(fragmentation)
        # one build: the first snapshot was the partitioner's, installed
        assert [(f.csr_builds, f.tables_rebuilt)
                for f in fragmentation] == [(1, 4)] * 3
        assert_derived_state_fresh(fragmentation)


class TestInsertionInvalidation:
    def test_apply_insertions_invalidates_touched_fragments(self):
        fragmentation = make_fragmentation()
        for frag in fragmentation:
            frag.csr()
        touched = apply_insertions(fragmentation, [(0, 1, 0.5)])
        # touched may include fragments with border-set-only deltas
        # (e.g. the owner of 1 gaining an inner node); only fragments
        # whose local *graph* changed drop their snapshot.
        mutated = {fid for fid, d in touched.items() if d.mutates_graph}
        assert mutated
        for frag in fragmentation:
            expected = 1 if frag.fid in mutated else 0
            assert frag.csr_invalidations == expected

    def test_rebuilt_snapshot_sees_inserted_edge(self):
        fragmentation = make_fragmentation()
        for frag in fragmentation:
            frag.csr()
        touched = apply_insertions(fragmentation, [(3, 999, 0.25)])
        for fid in touched:
            snap = fragmentation[fid].csr()
            assert 999 in snap.id_of

    def test_fragmentation_aggregates(self):
        fragmentation = make_fragmentation()
        assert fragmentation.csr_snapshots_built == 0
        for frag in fragmentation:
            frag.csr()
        assert fragmentation.csr_snapshots_built == len(fragmentation)
        apply_insertions(fragmentation, [(0, 1, 0.5)])
        assert fragmentation.csr_snapshot_invalidations >= 1


class TestChangedParamsProtocol:
    def test_dirty_sets_consumed_on_read(self):
        g = uniform_random_graph(40, 120, seed=4)
        engine = GrapeEngine(2)
        frag_n = engine.make_fragmentation(g)
        program = SSSPProgram()
        frag = frag_n.fragment_of(0)  # holds the source: finite dists
        state = program.init_state(0, frag)
        program.peval(0, frag, state)
        first = program.read_changed_params(0, frag, state)
        assert first and first == program.read_update_params(0, frag, state)
        # Nothing ran since: the dirty set was consumed.
        assert program.read_changed_params(0, frag, state) == {}
