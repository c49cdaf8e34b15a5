"""Property test over delta-patched snapshots.

After an update batch a fragment keeps its retired CSR snapshot with the
batch's dirty rows, and the fragmentation keeps its border index with the
delta log; the next read *splices* the new ones.  The splice is checked,
not trusted: for generated delta histories over small graphs x {hash,
metis} — several batches between reads, mirrors retired in one batch and
re-added in a later one (which moves the node to the end of the adjacency
dict), brand-new nodes, weight-only batches, directed and undirected —

* ``fragment.csr()`` equals ``CSRGraph.from_graph(fragment.graph)`` field
  by field (all six arrays with dtypes, ``node_of``, ``id_of``,
  ``labels``),
* the tables derived from the snapshot — ``int_labels`` and the sorted
  label index, ``outer_slots()``, ``owned_slots()``, ``border_slots()``
  — which cross the splice through its id remap, equal (values and
  dtypes) what a freshly built fragment over the same graph derives,
* ``fragmentation.border_index()`` equals ``BorderIndex.build``,

and the same holds for a worker-side copy of every fragment brought
current by ``FragmentDelta.replay`` and for shared (``shm``) snapshots
that received a delta.
"""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from repro.core.updates import apply_delta
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.graph.graph import Graph
from repro.partition.base import BorderIndex, build_edge_cut_fragments
from repro.partition.strategies import HashPartition, MetisLikePartition
from repro.runtime import shm

from .harness import (assert_derived_state_fresh, assert_derived_tables_fresh,
                      assert_same_border_index, assert_same_snapshot)

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


def assert_copies_current(fragmentation, copies) -> None:
    for frag, copy in zip(fragmentation, copies):
        assert list(copy.graph.nodes()) == list(frag.graph.nodes())
        assert copy.graph == frag.graph
        assert_derived_tables_fresh(copy)


@given(g=graphs(), history=batches,
       strategy=st.sampled_from(PARTITIONS))
@settings(max_examples=120, deadline=None)
def test_spliced_state_equals_a_fresh_build(g, history, strategy):
    fragmentation = strategy.partition(g, FRAGMENTS)
    # The mechanism on its own, whatever share of the rows is dirty (a
    # fragment builds afresh once its dirty set stops being small): the
    # last snapshot / index of every table and what changed since.
    assert_derived_state_fresh(fragmentation)  # (tables to carry)
    bases = [frag.csr() for frag in fragmentation]
    dirty_rows = [set() for _frag in fragmentation]
    index, dirty_border = fragmentation.border_index(), set()
    copies = worker_copies(fragmentation)
    for ops, read in history + [([], True)]:
        touched = apply_delta(fragmentation, resolve(g, ops))
        for fid, delta in touched.items():
            delta.replay(copies[fid])
            dirty_rows[fid] |= delta.dirty_nodes()
            dirty_border |= delta.border_nodes()
            if delta.mutates_graph:
                assert not fragmentation[fid].csr_cached
        if read:
            assert_derived_state_fresh(fragmentation)
            assert_copies_current(fragmentation, copies)
            for frag in fragmentation:
                bases[frag.fid] = CSRGraph.from_graph(
                    frag.graph, base=bases[frag.fid],
                    dirty=dirty_rows[frag.fid])
                assert_same_snapshot(bases[frag.fid],
                                     CSRGraph.from_graph(frag.graph))
                dirty_rows[frag.fid] = set()
            index = index.patched(fragmentation, dirty_border)
            assert_same_border_index(index,
                                     BorderIndex.build(fragmentation))
            dirty_border = set()
    if fragmentation.csr_snapshots_patched:
        event("a fragment spliced its snapshot")
    if fragmentation.derived_tables_carried:
        event("a fragment carried a derived table across")
    if any(f.csr().remap is not None for f in fragmentation):
        event("a splice remapped dense ids")
    if fragmentation.border_index_patches:
        event("the fragmentation spliced its border index")


def two_fragment_path(half=8):
    """An undirected path of ``2 * half`` nodes cut in the middle: nodes
    below ``half`` are fragment 0's, the cut edge is (half-1, half)."""
    g = Graph(directed=False)
    for v in range(2 * half - 1):
        g.add_edge(v, v + 1, weight=1.0)
    return g, build_edge_cut_fragments(
        g, {v: int(v >= half) for v in g.nodes()}, 2)


def test_mirror_retired_then_readded_moves_to_the_end():
    """The case that broke the first prototype: a mirror copy retired by
    one batch and re-added by a later one comes back at the *end* of the
    adjacency dict, so the dense ids from its old position on all move."""
    g, fragmentation = two_fragment_path()
    left = fragmentation[0]
    left.release_snapshots()        # the edits below bypass apply_delta
    left.graph.remove_node(3)       # put the mirror (8) mid-order ...
    left.graph.add_edge(2, 3, 1.0)  # ... by re-adding an owned node
    left.graph.add_edge(3, 4, 1.0)
    assert list(left.graph.nodes()) == [0, 1, 2, 4, 5, 6, 7, 8, 3]
    before = left.csr()
    copies = worker_copies(fragmentation)
    for delta in (GraphDelta().delete(7, 8),         # retires mirror 8
                  GraphDelta().insert(0, 77, 2.0),   # a new node first
                  GraphDelta().insert(7, 8, 3.0)):   # ... then 8 is back
        for fid, d in apply_delta(fragmentation, delta).items():
            d.replay(copies[fid])
    assert list(left.graph.nodes()) == [0, 1, 2, 4, 5, 6, 7, 3, 77, 8]
    assert not left.csr_cached
    after = left.csr()
    assert (left.csr_builds, left.csr_patches) == (1, 1)
    assert before.id_of[3] == 8 and after.id_of[3] == 7
    assert_derived_state_fresh(fragmentation)
    assert_copies_current(fragmentation, copies)


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
        assert after.node_of is before.node_of
        assert after.id_of is before.id_of
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
                      GraphDelta().set_weight(u, v, 0.75)):    # weights only
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
                    assert_same_snapshot(snap,
                                         CSRGraph.from_graph(side.graph))
                    assert_derived_tables_fresh(side)
        # the weight-only batch spliced too, and not everywhere
        assert spliced[fragmentation.gp.owner(u)] == 2 > min(spliced.values())
        assert_derived_state_fresh(fragmentation)
    finally:
        arena.close()
