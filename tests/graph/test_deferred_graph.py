"""``DeferredGraph``: a graph whose dicts are built on first use.

The fill runs once, under a lock a concurrent first reader waits on; a
fill that raises leaves the graph deferred for the next read to retry;
the object turns into a plain ``Graph`` afterwards; and pickling or
copying fills first, so a restored fragment ships as plain dicts.
"""

from __future__ import annotations

import copy
import pickle
import threading
import time

import pytest

from repro.graph.generators import labeled_graph
from repro.graph.graph import DeferredGraph, Graph
from repro.partition.strategies import HashPartition
from repro.store import load_snapshot, save_snapshot


def path_fill(g: Graph, n: int = 5) -> None:
    for v in range(1, n):
        g.add_edge(v - 1, v, weight=float(v), label="e" if v % 2 else None)
    g.set_node_label(0, "root")


def test_the_first_read_fills_once_and_leaves_a_plain_graph():
    calls = []

    def fill(g):
        calls.append(g)
        path_fill(g)

    graph = DeferredGraph(True, fill)
    before = DeferredGraph.materialised
    assert graph.directed and not calls  # ``directed`` needs no fill
    assert graph.num_edges == 4
    assert type(graph) is Graph and len(calls) == 1
    assert DeferredGraph.materialised == before + 1
    expected = Graph(directed=True)
    path_fill(expected)
    assert graph == expected
    assert graph.edge_label(0, 1) == "e" and graph.node_label(0) == "root"
    graph.add_edge(4, 0)  # a plain mutable graph from here on
    assert graph.num_edges == 5 and len(calls) == 1


def test_concurrent_first_reads_run_the_fill_once():
    calls, started = [], threading.Event()

    def fill(g):
        calls.append(threading.current_thread().name)
        g.add_edge(0, 1)
        started.set()
        time.sleep(0.05)  # the second reader arrives mid-fill
        for v in range(2, 200):
            g.add_edge(v - 1, v)

    graph = DeferredGraph(True, fill)
    seen = []

    def read():
        seen.append((graph.num_nodes, graph.num_edges,
                     graph.has_edge(198, 199)))

    first = threading.Thread(target=read, name="first")
    second = threading.Thread(target=read, name="second")
    first.start()
    assert started.wait(5)
    second.start()
    first.join(5)
    second.join(5)
    assert calls == ["first"]
    assert seen == [(200, 199, True)] * 2


def test_a_fill_that_raises_leaves_the_graph_deferred():
    attempts = []

    def fill(g):
        attempts.append(1)
        g.add_edge(0, 1)
        if len(attempts) == 1:
            raise OSError("arrays unreadable")

    graph = DeferredGraph(False, fill)
    with pytest.raises(OSError):
        graph.num_nodes
    assert type(graph) is DeferredGraph
    assert graph.has_edge(1, 0)  # the next read retries
    assert len(attempts) == 2 and graph.num_edges == 1


@pytest.mark.parametrize("clone", [
    lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_fill_first(clone):
    graph = DeferredGraph(True, path_fill)
    twin = clone(graph)
    assert type(twin) is Graph and type(graph) is Graph
    assert twin == graph


def test_a_restored_fragment_pickles_to_plain_equal_graphs(tmp_path):
    g = labeled_graph(30, 80, num_labels=3, seed=2, directed=False)
    fragmentation = HashPartition().partition(g, 3)
    save_snapshot(tmp_path / "g.snap", g, fragmentation=fragmentation)
    restored = load_snapshot(tmp_path / "g.snap").fragmentation
    for frag, live in zip(restored, fragmentation):
        assert type(frag.graph) is DeferredGraph
        back = pickle.loads(pickle.dumps(frag))
        assert type(back.graph) is Graph and type(frag.graph) is Graph
        assert back.graph == frag.graph == live.graph
        assert list(back.graph.nodes()) == list(live.graph.nodes())
        assert (back.owned, back.inner, back.outer) == (
            live.owned, live.inner, live.outer)
