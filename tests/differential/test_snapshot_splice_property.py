"""Property test over delta-patched, stable-id snapshots.

After an update batch a fragment keeps its retired CSR snapshot with the
batch's dirty rows, and the fragmentation keeps its border index with the
delta log; the next read *splices* the new ones.  Ids never move: a node
keeps its dense id while the fragment's id table lives, a retired mirror
is a degree-0 tombstone, a re-added one takes its old id back, and once
more than half the ids are tombstones the table is packed.  The splice is
checked, not trusted: for generated delta histories over small graphs x
{hash, metis} — several batches between reads, mirrors retired in one
batch and re-added in a later one, brand-new nodes, weight-only batches,
directed and undirected, and star histories that cross the packing
threshold —

* ``fragment.csr()`` equals ``CSRGraph.from_graph(fragment.graph)`` by
  label: live rows, labels, tombstones of degree 0 that ``id_of`` leaves
  out; a splice across several batches equals the full build under the
  same id table, id for id;
* every id handed out stays with its node until the table is packed;
* the tables read off the snapshot — the label index, ``outer_slots()``,
  ``owned_slots()``, ``border_slots()`` — equal a fresh fragment's by
  label, tombstones in none of them;
* a state's arrays, pickled and bound to another copy, read back under
  the same nodes (the binding is the id table's);
* ``fragmentation.border_index()`` equals ``BorderIndex.build``;

and a worker-side copy of every fragment brought current by
``FragmentDelta.replay``, and a shared (``shm``) one, equal the
coordinator's id for id.
"""

import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import event, given, settings

from repro.core.updates import apply_delta
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.graph.graph import Graph
from repro.partition.base import BorderIndex, build_edge_cut_fragments
from repro.partition.strategies import HashPartition, MetisLikePartition
from repro.pie_programs.sssp import SSSPState
from repro.runtime import shm

from .harness import (assert_derived_state_fresh, assert_derived_tables_fresh,
                      assert_live_rows_equal, assert_same_border_index,
                      assert_same_snapshot)

PARTITIONS = (HashPartition(), MetisLikePartition())
FRAGMENTS = 4
MAX_NODES = 12
weights = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
#: node ids an operation may name: existing ones and a few brand-new ones
nodes = st.integers(min_value=0, max_value=MAX_NODES + 2)

# ("+", u, v, w) insert / ("~", u, v, w) toggle: delete the edge if it is
# there, insert it otherwise (what retires a mirror and re-adds it later)
# / ("-", k) delete the k-th live edge / ("w", k, w) reweight it
operation = st.one_of(
    st.tuples(st.just("+"), nodes, nodes, weights),
    st.tuples(st.just("~"), nodes, nodes, weights),
    st.tuples(st.just("-"), st.integers(min_value=0)),
    st.tuples(st.just("w"), st.integers(min_value=0), weights))
#: (operations, whether a read follows the batch)
batches = st.lists(
    st.tuples(st.lists(operation, min_size=1, max_size=4), st.booleans()),
    min_size=1, max_size=7)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=3, max_value=MAX_NODES))
    g = Graph(directed=draw(st.booleans()))
    for v in range(n):
        g.add_node(v)
    for _ in range(draw(st.integers(min_value=1, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v, weight=draw(weights))
    return g


def resolve(graph, ops) -> GraphDelta:
    """The drawn operations as a delta against the live ``graph``."""
    delta = GraphDelta()
    live = sorted(graph.edges())
    for op in ops:
        if op[0] in "+~":
            _kind, u, v, w = op
            if u == v:
                continue
            if op[0] == "~" and graph.has_edge(u, v):
                delta.delete(u, v)
            else:
                delta.insert(u, v, w)
        elif live:
            u, v, _w = live[op[1] % len(live)]
            if op[0] == "-":
                delta.delete(u, v)
            else:
                delta.set_weight(u, v, op[2])
    return delta


def worker_copies(fragmentation):
    """What pooled workers hold: unpickled fragments with their own
    first snapshot and tables."""
    copies = pickle.loads(pickle.dumps(fragmentation.fragments))
    for copy in copies:
        assert_derived_tables_fresh(copy)
    return copies


def assert_state_rebinds(frag, copy) -> None:
    """A value array over ``frag``'s snapshot, pickled (which drops its
    binding) and bound to ``copy``, reads back under the same nodes:
    the binding is the id table's, whatever the graph's node order."""
    snap = frag.csr()
    state = SSSPState()
    state.adopt(frag, np.arange(snap.n, dtype=np.float64))
    want = {v: float(i) for v, i in snap.id_of.items()}
    assert state.view == want
    moved = pickle.loads(pickle.dumps(state))
    assert moved.current(copy)
    assert moved.view == want


def assert_copies_current(fragmentation, copies) -> None:
    for frag, copy in zip(fragmentation, copies):
        assert list(copy.graph.nodes()) == list(frag.graph.nodes())
        assert copy.graph == frag.graph
        assert_same_snapshot(copy.csr(), frag.csr())
        assert_derived_tables_fresh(copy)
        assert_state_rebinds(frag, copy)


class IdLedger:
    """Every id each fragment's table handed out: checked after every
    batch to still name its node, until a pack starts a new table."""

    def __init__(self, fragmentation):
        self.tables = [None] * len(fragmentation)
        self.seen = [{} for _frag in fragmentation]
        self.packs = 0
        self.check(fragmentation)

    def check(self, fragmentation) -> None:
        for frag in fragmentation:
            table, seen = frag.id_table(), self.seen[frag.fid]
            node_of, id_of, dead = table
            if table is not self.tables[frag.fid]:
                if self.tables[frag.fid] is not None:
                    self.packs += 1
                    assert not dead and 2 * len(seen) > len(node_of)
                self.tables[frag.fid], seen = table, {}
                self.seen[frag.fid] = seen
            assert all(id_of.get(v, dead.get(v)) == i
                       for v, i in seen.items())
            assert len(node_of) == len(id_of) + len(dead)
            assert dead.keys().isdisjoint(id_of)
            assert set(frag.graph.nodes()) == set(id_of)
            seen.update(id_of)
            seen.update(dead)


def check_history(g, fragmentation, history) -> IdLedger:
    """Apply ``history`` — ``(delta maker, read?)`` pairs, the maker
    called with the live graph — to ``fragmentation`` and to worker
    copies, checking the stable-id oracle after every batch and every
    read."""
    # The mechanism on its own, whatever share of the rows is dirty (a
    # fragment builds afresh once its dirty set stops being small): the
    # last snapshot / index of every table and what changed since.
    assert_derived_state_fresh(fragmentation)
    bases = [frag.csr() for frag in fragmentation]
    dirty_rows = [set() for _frag in fragmentation]
    index, dirty_border = fragmentation.border_index(), set()
    copies = worker_copies(fragmentation)
    ledger = IdLedger(fragmentation)
    for make, read in history + [(lambda graph: GraphDelta(), True)]:
        tables = [frag.id_table() for frag in fragmentation]
        touched = apply_delta(fragmentation, make(g))
        for fid, delta in touched.items():
            delta.replay(copies[fid])
            dirty_rows[fid] |= delta.dirty_nodes()
            dirty_border |= delta.border_nodes()
            if delta.mutates_graph:
                assert not fragmentation[fid].csr_cached
        ledger.check(fragmentation)
        for frag, table in zip(fragmentation, tables):
            if frag.id_table() is not table:  # packed: no base to splice
                bases[frag.fid] = None
        if read:
            assert_derived_state_fresh(fragmentation)
            assert_copies_current(fragmentation, copies)
            for frag in fragmentation:
                ids = frag.id_table()
                built = CSRGraph.from_graph(frag.graph, ids=ids)
                if bases[frag.fid] is not None:
                    bases[frag.fid] = CSRGraph.from_graph(
                        frag.graph, ids=ids, base=bases[frag.fid],
                        dirty=dirty_rows[frag.fid])
                    assert_same_snapshot(bases[frag.fid], built)
                assert_same_snapshot(frag.csr(), built)
                bases[frag.fid] = built
                dirty_rows[frag.fid] = set()
            index = index.patched(fragmentation, dirty_border)
            assert_same_border_index(index,
                                     BorderIndex.build(fragmentation))
            dirty_border = set()
    return ledger


@given(g=graphs(), history=batches,
       strategy=st.sampled_from(PARTITIONS))
@settings(max_examples=120, deadline=None)
def test_spliced_state_equals_a_fresh_build(g, history, strategy):
    fragmentation = strategy.partition(g, FRAGMENTS)
    ledger = check_history(g, fragmentation, [
        (lambda graph, ops=ops: resolve(graph, ops), read)
        for ops, read in history])
    if fragmentation.csr_snapshots_patched:
        event("a fragment spliced its snapshot")
    if any(f.csr().dead.size for f in fragmentation):
        event("a snapshot holds a tombstone")
    if ledger.packs:
        event("an id table was packed")
    if fragmentation.border_index_patches:
        event("the fragmentation spliced its border index")


@st.composite
def star_histories(draw):
    """A hub owned alone by fragment 0 with edges to leaves owned by
    fragments 1-3, and batches toggling sets of hub edges: deleting most
    of them retires most of fragment 0's mirrors at once, past the
    packing threshold; re-adding brings them back."""
    k = draw(st.integers(min_value=3, max_value=9))
    g = Graph(directed=draw(st.booleans()))
    for leaf in range(1, k + 1):
        g.add_edge(0, leaf, weight=draw(weights))
    toggles = st.lists(st.sets(st.integers(min_value=1, max_value=k),
                               min_size=1), min_size=1, max_size=6)
    history = []
    for leaves in draw(toggles):
        def make(graph, leaves=sorted(leaves), w=draw(weights)):
            delta = GraphDelta()
            for leaf in leaves:
                if graph.has_edge(0, leaf):
                    delta.delete(0, leaf)
                else:
                    delta.insert(0, leaf, w)
            return delta
        history.append((make, draw(st.booleans())))
    return g, history


@given(case=star_histories())
@settings(max_examples=60, deadline=None)
def test_histories_across_the_packing_threshold(case):
    g, history = case
    fragmentation = build_edge_cut_fragments(
        g, {v: 0 if v == 0 else 1 + v % 3 for v in g.nodes()}, 4)
    if check_history(g, fragmentation, history).packs:
        event("an id table was packed")


def two_fragment_path(half=8):
    """An undirected path of ``2 * half`` nodes cut in the middle: nodes
    below ``half`` are fragment 0's, the cut edge is (half-1, half)."""
    g = Graph(directed=False)
    for v in range(2 * half - 1):
        g.add_edge(v, v + 1, weight=1.0)
    return g, build_edge_cut_fragments(
        g, {v: int(v >= half) for v in g.nodes()}, 2)


def test_a_readded_mirror_takes_its_old_id_back():
    """A mirror copy retired by one batch and re-added by a later one
    comes back at the end of the adjacency dict, but under its old id:
    nothing after it moves, and every copy agrees."""
    g, fragmentation = two_fragment_path()
    left = fragmentation[0]
    before = left.csr()
    assert before.node_of == [0, 1, 2, 3, 4, 5, 6, 7, 8]
    copies = worker_copies(fragmentation)
    for delta in (GraphDelta().delete(7, 8),         # retires mirror 8
                  GraphDelta().insert(0, 77, 2.0),   # a new node first
                  GraphDelta().insert(7, 8, 3.0)):   # ... then 8 is back
        for fid, d in apply_delta(fragmentation, delta).items():
            d.replay(copies[fid])
    assert list(left.graph.nodes()) == [0, 1, 2, 3, 4, 5, 6, 7, 77, 8]
    assert not left.csr_cached
    after = left.csr()
    assert (left.csr_builds, left.csr_patches) == (0, 1)
    assert after.node_of == [0, 1, 2, 3, 4, 5, 6, 7, 8, 77]
    assert after.id_of[8] == before.id_of[8] == 8 and not after.dead.size
    assert after.id_of[77] == 9
    assert_derived_state_fresh(fragmentation)
    assert_copies_current(fragmentation, copies)


def test_a_packed_table_renumbers_every_copy_alike():
    """Past half tombstones the id table is packed at the batch that
    crossed, on the coordinator and on every replaying copy: the next
    snapshot is a build in the packed order, and a mirror that comes
    back after the pack takes the next id."""
    g = Graph(directed=True)
    for leaf in range(1, 7):
        g.add_edge(0, leaf, weight=1.0)
    fragmentation = build_edge_cut_fragments(
        g, {v: int(v > 0) for v in g.nodes()}, 2)
    hub = fragmentation[0]
    assert hub.csr().node_of == [0, 1, 2, 3, 4, 5, 6]
    copies = worker_copies(fragmentation)
    for delta, dead in ((GraphDelta().delete(0, 2).delete(0, 4), [2, 4]),
                        (GraphDelta().delete(0, 1).delete(0, 6), [])):
        for fid, d in apply_delta(fragmentation, delta).items():
            d.replay(copies[fid])
        assert hub.csr().dead.tolist() == dead
        assert_copies_current(fragmentation, copies)
    # 4 of 7 ids dead: packed, the live nodes renumbered in order
    assert hub.csr().node_of == [0, 3, 5] and hub.csr_builds == 1
    for fid, d in apply_delta(fragmentation,
                              GraphDelta().insert(0, 2, 1.0)).items():
        d.replay(copies[fid])
    assert hub.csr().node_of == [0, 3, 5, 2]  # (2 of 3 rows dirty: a build)
    assert_derived_state_fresh(fragmentation)
    assert_copies_current(fragmentation, copies)


def test_a_loaded_fragment_pickles_with_its_tombstones(tmp_path):
    """A snapshot file carries the tombstones, the deferred graph it
    installs under does not: a loaded fragment shipped by pickle (no
    shared memory) still sends its id table, so the worker copy agrees
    id for id before and after the next batch."""
    from repro.store.snapshot import load_snapshot, save_snapshot

    g, fragmentation = two_fragment_path()
    apply_delta(fragmentation, GraphDelta().delete(7, 8))  # retires 8 at 0
    assert fragmentation[0].csr().dead.tolist() == [8]
    save_snapshot(tmp_path / "g.snap", g, fragmentation=fragmentation)
    loaded = load_snapshot(tmp_path / "g.snap").fragmentation
    left = loaded[0]
    assert left.csr().dead.tolist() == [8] and 8 not in left.graph
    copies = pickle.loads(pickle.dumps(loaded.fragments))
    for frag, copy in zip(loaded, copies):
        assert copy.id_table()[0] == frag.id_table()[0]
        assert copy.id_table()[2] == frag.id_table()[2]
    assert_copies_current(loaded, copies)
    for fid, delta in apply_delta(loaded, GraphDelta().insert(7, 8, 2.0)
                                  .insert(0, 77, 1.0)).items():
        delta.replay(copies[fid])
    assert left.csr().id_of[8] == 8 and left.csr().id_of[77] == 9
    assert_copies_current(loaded, copies)


def test_border_index_follows_a_node_out_and_back_in():
    g, fragmentation = two_fragment_path()
    apply_delta(fragmentation, GraphDelta().insert(0, 15, 1.0)
                .insert(1, 14, 1.0).insert(2, 13, 1.0))
    assert fragmentation.border_index().nodes.tolist() \
        == [0, 1, 2, 7, 8, 13, 14, 15]
    for delta in (GraphDelta().delete(7, 8), GraphDelta().insert(7, 8, 1.5)):
        apply_delta(fragmentation, delta)
        assert (7 in fragmentation.border_index().nodes) \
            == g.has_edge(7, 8)
        assert_derived_state_fresh(fragmentation)
    assert (fragmentation.border_index_builds,
            fragmentation.border_index_patches) == (1, 2)


def test_weight_only_batches_keep_the_id_maps():
    g, fragmentation = two_fragment_path()
    snaps = [frag.csr() for frag in fragmentation]
    apply_delta(fragmentation, GraphDelta().set_weight(7, 8, 9.0)
                .set_weight(0, 1, 0.5))
    for frag, before in zip(fragmentation, snaps):
        after = frag.csr()
        assert after is not before and frag.csr_patches == 1
        assert after.node_of == before.node_of
        assert after.id_of == before.id_of
    assert_derived_state_fresh(fragmentation)


@pytest.mark.skipif(not shm.shm_available(),
                    reason="no shared-memory provider here")
@pytest.mark.parametrize("directed", [True, False])
def test_shared_snapshots_splice_after_a_delta(directed):
    """Coordinator side the retired snapshot's arrays are views over the
    published segment, worker side read-only mappings of it: both are
    spliced from — after a weight-only delta too — neither is written
    to."""
    g = uniform_random_graph(40, 130, directed=directed, seed=11)
    fragmentation = HashPartition().partition(g, 3)
    arena = shm.ShmArena()
    try:
        token_id, version = fragmentation.cache_token
        attached = {}
        for frag in fragmentation:
            desc = arena.descriptor_for(token_id, version, frag)
            assert desc is not None and frag.csr_shared
            attached[frag.fid] = shm.attach_fragment(desc)
        u, v, _w = next(iter(g.edges()))
        cross = next((a, b) for a, b, _w in g.edges()
                     if fragmentation.gp.owner(a) != fragmentation.gp.owner(b))
        spliced = dict.fromkeys(range(3), 0)
        for batch in (GraphDelta().insert(u, 4000, 0.5)        # a new node
                      .delete(*cross).set_weight(u, v, 7.25),
                      GraphDelta().set_weight(u, v, 0.75),     # weights only
                      GraphDelta().insert(*cross, 2.0)):       # back again
            touched = apply_delta(fragmentation, batch)
            for fid, delta in touched.items():
                delta.replay(attached[fid][0])
            for frag in fragmentation:
                delta = touched.get(frag.fid)
                retired = delta is not None and delta.mutates_graph
                spliced[frag.fid] += retired
                for side in (frag, attached[frag.fid][0]):
                    assert side.csr_cached == (not retired)
                    snap = side.csr()
                    assert side.csr_builds == 0  # installed, attached
                    assert side.csr_patches == spliced[frag.fid]
                    assert side.csr_shared == (not spliced[frag.fid])
                    assert_live_rows_equal(snap,
                                           CSRGraph.from_graph(side.graph))
                    assert_derived_tables_fresh(side)
                # the coordinator's and the attached copy, id for id
                assert_same_snapshot(frag.csr(), attached[frag.fid][0].csr())
        # the weight-only batch spliced too, and not everywhere
        assert spliced[fragmentation.gp.owner(u)] == 3 > min(spliced.values())
        assert_derived_state_fresh(fragmentation)
    finally:
        arena.close()
