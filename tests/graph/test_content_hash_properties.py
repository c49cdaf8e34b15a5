"""The contract of ``Graph.content_hash()`` as properties (hypothesis):
insertion order never matters, ``==`` implies equal hashes, and every
single field of the content changes it."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.graph.graph import Graph

ID_KINDS = (st.integers(-40, 40), st.text(max_size=4),
            st.tuples(st.integers(0, 5), st.text(max_size=2)))
NODE_LABELS = st.none() | st.sampled_from(["a", "b", 7])
EDGE_LABELS = st.none() | st.sampled_from(["r", "s"])
WEIGHTS = st.integers(0, 6) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def specs(draw, directed=None, min_nodes=1):
    """``(directed, [(node, label)], [(u, v, weight, label)])`` with no
    edge given twice (in either orientation when undirected)."""
    if directed is None:
        directed = draw(st.booleans())
    ids = draw(st.lists(draw(st.sampled_from(ID_KINDS)), min_size=min_nodes,
                        max_size=8, unique=True))
    nodes = [(v, draw(NODE_LABELS)) for v in ids]
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=16,
        unique_by=(lambda p: p) if directed else frozenset))
    edges = [(u, v, draw(WEIGHTS), draw(EDGE_LABELS)) for u, v in pairs]
    return directed, nodes, edges


def build(directed, nodes, edges, edges_first=False):
    g = Graph(directed=directed)
    if edges_first:  # nodes enter in edge order, labels arrive later
        for u, v, w, lbl in edges:
            g.add_edge(u, v, weight=w, label=lbl)
    for v, lbl in nodes:
        g.add_node(v, lbl)
    if not edges_first:
        for u, v, w, lbl in edges:
            g.add_edge(u, v, weight=w, label=lbl)
    return g


def differ(a, b):
    assert a != b
    assert a.content_hash() != b.content_hash()


# -- (a) insertion order ------------------------------------------------
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_insertion_order_never_matters(data):
    directed, nodes, edges = data.draw(specs())
    shuffled = data.draw(st.permutations(edges))
    if not directed:  # an undirected edge may be given from either end
        shuffled = [(v, u, w, lbl) if data.draw(st.booleans())
                    else (u, v, w, lbl) for u, v, w, lbl in shuffled]
    a = build(directed, nodes, edges)
    b = build(directed, data.draw(st.permutations(nodes)), shuffled,
              edges_first=data.draw(st.booleans()))
    assert a == b
    assert a.content_hash() == b.content_hash()


# -- (b) == implies equal hashes ----------------------------------------
@given(specs())
@settings(max_examples=100, deadline=None)
def test_equal_graphs_hash_equal_across_weight_types_and_copy(spec):
    directed, nodes, edges = spec
    a = build(directed, nodes, edges)
    as_float = build(directed, nodes,
                     [(u, v, float(w), lbl) for u, v, w, lbl in edges])
    for b in (as_float, a.copy(), as_float.copy()):
        assert a == b and b == a
        assert a.content_hash() == b.content_hash()


def test_negative_zero_weight_hashes_like_zero():
    a, b = Graph(), Graph()
    a.add_edge(1, 2, weight=0.0)
    b.add_edge(1, 2, weight=-0.0)
    assert a == b
    assert a.content_hash() == b.content_hash()


# -- (c) every single-field edit changes the hash -------------------------
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_one_weight_changes_it(data):
    directed, nodes, edges = data.draw(specs())
    assume(edges)
    k = data.draw(st.integers(0, len(edges) - 1))
    u, v, w, lbl = edges[k]
    edited = edges[:k] + [(u, v, w + 1.5, lbl)] + edges[k + 1:]
    assume(w + 1.5 != w)
    differ(build(directed, nodes, edges), build(directed, nodes, edited))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_one_node_label_changes_it(data):
    directed, nodes, edges = data.draw(specs())
    k = data.draw(st.integers(0, len(nodes) - 1))
    v, lbl = nodes[k]
    other = data.draw(NODE_LABELS.filter(lambda x: x != lbl))
    edited = nodes[:k] + [(v, other)] + nodes[k + 1:]
    differ(build(directed, nodes, edges), build(directed, edited, edges))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_one_edge_label_changes_it(data):
    directed, nodes, edges = data.draw(specs())
    assume(edges)
    k = data.draw(st.integers(0, len(edges) - 1))
    u, v, w, lbl = edges[k]
    other = data.draw(EDGE_LABELS.filter(lambda x: x != lbl))
    edited = edges[:k] + [(u, v, w, other)] + edges[k + 1:]
    differ(build(directed, nodes, edges), build(directed, nodes, edited))


@given(specs(directed=False))
@settings(max_examples=100, deadline=None)
def test_the_directed_flag_alone_changes_it(spec):
    """The same stored adjacency — both orientations of every edge, the
    same labels on both — under the other flag."""
    _, nodes, edges = spec
    both = edges + [(v, u, w, lbl) for u, v, w, lbl in edges if u != v]
    undirected = build(False, nodes, edges)
    directed = build(True, nodes, both)
    assert undirected._succ == directed._succ
    assert undirected._edge_labels == directed._edge_labels
    differ(undirected, directed)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_an_added_isolated_node_changes_it(data):
    directed, nodes, edges = data.draw(specs())
    g = build(directed, nodes, edges)
    kind = data.draw(st.sampled_from(ID_KINDS))
    extra = data.draw(kind.filter(lambda v: v not in g))
    differ(g, build(directed, nodes + [(extra, None)], edges))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_swapping_the_endpoints_of_a_directed_edge_changes_it(data):
    _, nodes, edges = data.draw(specs(directed=True, min_nodes=2))
    present = {(u, v) for u, v, _w, _lbl in edges}
    swappable = [k for k, (u, v, _w, _lbl) in enumerate(edges)
                 if u != v and (v, u) not in present]
    assume(swappable)
    k = data.draw(st.sampled_from(swappable))
    u, v, w, lbl = edges[k]
    edited = edges[:k] + [(v, u, w, lbl)] + edges[k + 1:]
    differ(build(True, nodes, edges), build(True, nodes, edited))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rewiring_with_the_same_endpoints_and_weights_changes_it(data):
    """``{a->b, c->d}`` against ``{a->d, c->b}``: the same sources, the
    same destinations, the same weights, in the same rows.  A record mix
    that is symmetric, or separable in ``u`` and ``v``, folds both to
    one value."""
    _, nodes, edges = data.draw(specs(directed=True, min_nodes=4))
    a, b, c, d = data.draw(st.permutations([v for v, _ in nodes]))[:4]
    taken = {(a, b), (c, d), (a, d), (c, b)}
    rest = [e for e in edges if (e[0], e[1]) not in taken]
    w1 = data.draw(WEIGHTS)
    w2 = data.draw(st.just(w1) | WEIGHTS)
    differ(build(True, nodes, rest + [(a, b, w1, None), (c, d, w2, None)]),
           build(True, nodes, rest + [(a, d, w1, None), (c, b, w2, None)]))
