"""Randomized update fuzzing for :class:`ContinuousQuerySession`.

Hypothesis-style property testing without the dependency: every scenario
is generated from an explicit seed (replaying a seed reproduces the run
exactly), and a failure is shrunk to a minimal failing batch by
delta-debugging over the applied operations before being reported.

Two properties, both the incremental-view discipline of Berkholz et al.:

* **monotone fuzz** — after any batch of monotone edge insertions
  (brand-new nodes, cross-fragment directed edges, weight decreases),
  the maintained answer of a standing query must equal a from-scratch
  recomputation on the mutated fragmentation, on every execution
  backend;
* **mixed fuzz** — the same with deletions and weight increases in the
  batches, exercising the bounded path's affected regions, border-set
  retirement under ``ΔG⁻`` and (under the process backend) worker-side
  delta replay, across every ``(backend × use_csr)`` combination.

Every session checks the monotonic condition (``check_monotonic=True``)
through its initial run and every maintenance round, a batch's first
round (the session's rebaseline) included.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Tuple

import pytest

from repro.core.engine import GrapeEngine
from repro.core.updates import ContinuousQuerySession
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.pie_programs import BFSProgram, CCProgram, SSSPProgram

from .harness import (BACKENDS, CSR_MODES, assert_derived_state_fresh,
                      normalize)

EdgeBatch = List[Tuple[Any, Any, float]]
OpBatch = List[Tuple]


def _random_batches(seed: int, reference, *, num_batches: int = 4,
                    batch_size: int = 5,
                    new_node: Callable[[int, int], Any] = None,
                    ) -> List[EdgeBatch]:
    """Seeded insertion batches: existing-node edges (directed across
    arbitrary fragments), brand-new nodes, and chains between new nodes.

    ``reference`` is a throwaway copy of the graph under test; generated
    weights are applied to it so that re-inserting an existing edge is
    always a monotone *decrease* — an increase would route the batch to
    the recompute fallback, and this generator exists to keep the
    incremental fast path under test (mixed batches exercise the
    fallback).  ``new_node(seed, i)`` mints fresh node ids; CC needs
    ids totally ordered against the existing ones (component ids are
    node values), SSSP happily takes strings (exercising stable-hash
    placement).
    """
    if new_node is None:
        new_node = lambda s, i: f"new-{s}-{i}"  # noqa: E731
    rng = random.Random(seed)
    batches: List[EdgeBatch] = []
    known = list(reference.nodes())
    fresh = 0
    for _b in range(num_batches):
        batch: EdgeBatch = []
        for _e in range(batch_size):
            kind = rng.random()
            if kind < 0.2:  # brand-new node -> existing node
                fresh += 1
                u = new_node(seed, fresh)
                v = rng.choice(known)
                known.append(u)
            elif kind < 0.35:  # existing node -> brand-new node
                fresh += 1
                u = rng.choice(known)
                v = new_node(seed, fresh)
                known.append(v)
            else:  # existing -> existing (cross-fragment at random)
                u, v = rng.sample(known, 2)
            if reference.has_node(u) and reference.has_node(v) \
                    and reference.has_edge(u, v):
                w = reference.edge_weight(u, v) * rng.uniform(0.3, 0.95)
            else:
                w = rng.uniform(0.05, 1.0)
            reference.add_node(u)
            reference.add_node(v)
            reference.add_edge(u, v, weight=w)
            batch.append((u, v, w))
        batches.append(batch)
    return batches


def _scenario_answers(make_program: Callable[[], Any], query: Any,
                      graph_factory: Callable[[], Any], backend: str,
                      edges: List[Tuple[Any, Any, float]]):
    """Apply ``edges`` as one session insertion stream; return
    (maintained answer, from-scratch answer on the mutated fragmentation).
    """
    engine = GrapeEngine(3, backend=backend, check_monotonic=True)
    session = ContinuousQuerySession(engine, make_program(), query,
                                     graph=graph_factory())
    if edges:
        session.insert_edges(edges)
    maintained = normalize(session.answer)
    scratch = GrapeEngine(3, backend=backend).run(
        make_program(), query, fragmentation=session.fragmentation)
    return maintained, normalize(scratch.answer)


def _fails(make_program, query, graph_factory, backend, edges) -> bool:
    maintained, scratch = _scenario_answers(make_program, query,
                                            graph_factory, backend, edges)
    return maintained != scratch


def _shrink(fails: Callable[[List], bool], edges: List) -> List:
    """Greedy delta-debugging: drop edges while the failure persists."""
    current = list(edges)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        i = 0
        while i < len(current):
            candidate = current[:i] + current[i + chunk:]
            if candidate and fails(candidate):
                current = candidate
            else:
                i += chunk
        if chunk == 1:
            break
        chunk //= 2
    return current


def _fuzz(make_program, query, graph_factory, backend, seed,
          new_node=None) -> None:
    batches = _random_batches(seed, graph_factory(), new_node=new_node)
    applied: List[Tuple[Any, Any, float]] = []
    engine = GrapeEngine(3, backend=backend, check_monotonic=True)
    session = ContinuousQuerySession(engine, make_program(), query,
                                     graph=graph_factory())
    for batch in batches:
        session.insert_edges(batch)
        applied.extend(batch)
        maintained = normalize(session.answer)
        scratch = normalize(GrapeEngine(3, backend=backend).run(
            make_program(), query,
            fragmentation=session.fragmentation).answer)
        assert_derived_state_fresh(session.fragmentation)
        if maintained != scratch:
            minimal = _shrink(
                lambda subset: _fails(make_program, query, graph_factory,
                                      backend, subset),
                applied)
            pytest.fail(
                f"maintenance diverged from recomputation "
                f"(backend={backend!r}, seed={seed}); minimal failing "
                f"batch ({len(minimal)} of {len(applied)} edges, replay "
                f"with this exact list): {minimal}")


# ---------------------------------------------------------------------------
# Mixed insert/delete/reweight fuzzing
# ---------------------------------------------------------------------------
def _random_op_batches(seed: int, reference, *, num_batches: int = 3,
                       batch_size: int = 6,
                       new_node: Callable[[int, int], Any] = None,
                       insert_rate: float = 0.35,
                       delete_rate: float = 0.25,
                       ) -> List[OpBatch]:
    """Seeded mixed batches of :class:`GraphDelta` operations.

    ``reference`` is a throwaway copy of the graph under test, mutated
    alongside generation so deletions and reweights always target live
    edges.  Default mix: 35% insertions (some attaching brand-new
    nodes), 25% deletions, 20% weight increases, 20% weight decreases;
    ``insert_rate`` / ``delete_rate`` skew the mix (the remainder is
    reweights, half increases half decreases).
    """
    if new_node is None:
        new_node = lambda s, i: f"mix-{s}-{i}"  # noqa: E731
    rng = random.Random(seed)
    batches: List[OpBatch] = []
    known = list(reference.nodes())
    fresh = 0
    for _b in range(num_batches):
        batch: OpBatch = []
        for _e in range(batch_size):
            kind = rng.random()
            live = list(reference.edges())
            if kind < insert_rate or not live:
                if kind < 0.34 * insert_rate:
                    fresh += 1
                    u, v = new_node(seed, fresh), rng.choice(known)
                    known.append(u)
                else:
                    u, v = rng.sample(known, 2)
                w = rng.uniform(0.05, 1.0)
                reference.add_node(u)
                reference.add_node(v)
                reference.add_edge(u, v, weight=w)
                batch.append(("+", u, v, w))
            elif kind < insert_rate + delete_rate:
                u, v, _w = rng.choice(live)
                reference.remove_edge(u, v)
                batch.append(("-", u, v))
            else:
                u, v, w = rng.choice(live)
                mid = insert_rate + delete_rate + (1 - insert_rate
                                                   - delete_rate) / 2
                factor = (rng.uniform(1.1, 3.0) if kind < mid
                          else rng.uniform(0.3, 0.9))
                reference.set_edge_weight(u, v, w * factor)
                batch.append(("w", u, v, w * factor))
        batches.append(batch)
    return batches


def _mixed_scenario_answers(make_program, query, graph_factory, backend,
                            use_csr, ops: OpBatch):
    engine = GrapeEngine(3, backend=backend, check_monotonic=True)
    session = ContinuousQuerySession(engine,
                                     make_program(use_csr=use_csr), query,
                                     graph=graph_factory())
    if ops:
        session.update(GraphDelta(ops))
    maintained = normalize(session.answer)
    scratch = GrapeEngine(3, backend=backend).run(
        make_program(use_csr=use_csr), query,
        fragmentation=session.fragmentation)
    return maintained, normalize(scratch.answer)


def _fails_mixed(make_program, query, graph_factory, backend, use_csr,
                 ops) -> bool:
    maintained, scratch = _mixed_scenario_answers(
        make_program, query, graph_factory, backend, use_csr, ops)
    return maintained != scratch


def _fuzz_mixed(make_program, query, graph_factory, backend, use_csr,
                seed, new_node=None, insert_rate=0.35,
                delete_rate=0.25) -> None:
    batches = _random_op_batches(seed, graph_factory(), new_node=new_node,
                                 insert_rate=insert_rate,
                                 delete_rate=delete_rate)
    applied: OpBatch = []
    engine = GrapeEngine(3, backend=backend, check_monotonic=True)
    session = ContinuousQuerySession(engine,
                                     make_program(use_csr=use_csr), query,
                                     graph=graph_factory())
    for batch in batches:
        session.update(GraphDelta(batch))
        applied.extend(batch)
        session.fragmentation.validate()
        maintained = normalize(session.answer)
        scratch = normalize(GrapeEngine(3, backend=backend).run(
            make_program(use_csr=use_csr), query,
            fragmentation=session.fragmentation).answer)
        assert_derived_state_fresh(session.fragmentation)
        if maintained != scratch:
            minimal = _shrink(
                lambda subset: _fails_mixed(make_program, query,
                                            graph_factory, backend,
                                            use_csr, subset),
                applied)
            pytest.fail(
                f"maintenance diverged from recomputation "
                f"(backend={backend!r}, use_csr={use_csr}, seed={seed}); "
                f"minimal failing op batch ({len(minimal)} of "
                f"{len(applied)} ops, replay with GraphDelta(this list)): "
                f"{minimal}")
    # At least one non-monotone batch should have exercised the fallback
    # (the generator's deletion/increase rates make this overwhelmingly
    # likely; assert the plumbing recorded the split).
    m = session.metrics
    assert m.deltas_applied == m.incremental_maintained + m.fallback_reruns


@pytest.mark.parametrize("use_csr", CSR_MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(2))
def test_sssp_mixed_fuzz(backend, use_csr, seed):
    _fuzz_mixed(SSSPProgram, 0,
                lambda: uniform_random_graph(60, 200, seed=3000 + seed),
                backend, use_csr, seed)


@pytest.mark.parametrize("use_csr", CSR_MODES)
@pytest.mark.parametrize("seed", range(2))
def test_sssp_mixed_fuzz_undirected(use_csr, seed):
    """Undirected SSSP churn: symmetric orientations must stay in step
    through insertions, deletions and reweights (regression: an
    intra-fragment undirected decrease once seeded only one direction
    of the relaxation)."""
    _fuzz_mixed(SSSPProgram, 0,
                lambda: uniform_random_graph(50, 120, directed=False,
                                             seed=5000 + seed),
                "serial", use_csr, seed)


@pytest.mark.parametrize("seed", range(3))
def test_sssp_deletion_heavy_fuzz_csr(seed):
    """Deletion-dominated batches under ``use_csr=True``: every bounded
    round resets distances on the dict side, so the dense CSR mirror
    (``state._arr``) must be invalidated and rebuilt before the next
    kernel call — a stale mirror diverges from recomputation here."""
    _fuzz_mixed(SSSPProgram, 0,
                lambda: uniform_random_graph(60, 200, seed=6000 + seed),
                "serial", True, seed,
                insert_rate=0.15, delete_rate=0.55)


@pytest.mark.parametrize("use_csr", CSR_MODES)
@pytest.mark.parametrize("seed", range(2))
def test_bfs_mixed_fuzz(use_csr, seed):
    """BFS under mixed churn: reweights must be no-ops for hop counts,
    deletions must route through the bounded path (integer analog of the
    SSSP affected-region machinery)."""
    _fuzz_mixed(BFSProgram, 0,
                lambda: uniform_random_graph(60, 200, seed=7000 + seed),
                "serial", use_csr, seed)


@pytest.mark.parametrize("use_csr", CSR_MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(2))
def test_cc_mixed_fuzz(backend, use_csr, seed):
    n = 50
    _fuzz_mixed(CCProgram, None,
                lambda: uniform_random_graph(n, 80, directed=False,
                                             seed=4000 + seed),
                backend, use_csr, seed,
                new_node=lambda s, i: n + 100 * s + i)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
def test_sssp_session_fuzz(backend, seed):
    _fuzz(SSSPProgram, 0,
          lambda: uniform_random_graph(70, 260, seed=1000 + seed),
          backend, seed)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
def test_cc_session_fuzz(backend, seed):
    n = 60
    # integer ids for new nodes: CC's component ids are node values and
    # must stay totally ordered under the min aggregator
    _fuzz(CCProgram, None,
          lambda: uniform_random_graph(n, 90, directed=False,
                                       seed=2000 + seed),
          backend, seed,
          new_node=lambda s, i: n + 100 * s + i)


def test_shrinker_minimizes_a_planted_failure():
    """The shrinker itself must work: plant a fake failure predicate and
    check it reduces to the single guilty edge."""
    guilty = ("new-9-1", 3, 0.5)
    edges = [(0, 1, 0.1), guilty, (2, 3, 0.2), (4, 5, 0.9), (5, 6, 0.4)]
    assert _shrink(lambda subset: guilty in subset, edges) == [guilty]
