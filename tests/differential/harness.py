"""The differential correctness harness.

Three result-equivalent execution paths now coexist: the dict-graph
sequential algorithms, the vectorized CSR kernels, and (orthogonally)
three execution backends including out-of-process workers — and beneath
them two border-parameter planes: CSR-capable programs on integer-
labelled graphs report and receive array blocks through the
``ArrayCoordinator``, everything else (``use_csr=False``, GRAPE-NI,
string labels) goes through the ``DictCoordinator``.  Following the
incremental-view discipline of Berkholz et al. ("Answering FO+MOD queries
under updates"), the cheapest way to keep them honest is to assert that
every path agrees with every other — automatically, on randomized inputs.

:func:`run_all_paths` executes one (program, query, graph) workload under
every ``(backend × use_csr × incremental)`` combination and asserts that

* **answers** are identical across *all* combinations, and
* **superstep counts and communication accounting** are identical across
  all combinations sharing the same ``incremental`` mode (GRAPE-NI
  legitimately reaches the same fixpoint along a different superstep
  schedule), and
* every combination ran on the **plane** it is meant to cover (so the
  ``use_csr`` sweep really is an array-plane vs. dict-plane sweep).

:func:`run_under_faults` is the same idea along the failure axis: one
``exec.step`` crash schedule acted out on every backend (a simulated
``WorkerFailure`` inline, a real worker death under ``process``) must
leave ``(answer, supersteps, comm_bytes, comm_messages)`` equal to the
uninterrupted run's — recovery is visible in ``recoveries`` only.

:func:`assert_derived_state_fresh` is the check the update harnesses (the
update fuzz, the service-update differential, the chaos runner) make after
every batch: snapshots, the tables derived from them (label index, slot
tables) and the border index are spliced from their predecessors and the
batch's dirty set.  Snapshots keep their ids across batches (a retired
node is a degree-0 tombstone), so they are compared with a from-scratch
build by label: live rows, slot tables and border index alike.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Tuple
from unittest import mock

import numpy as np

from repro.core import engine as engine_mod
from repro.core.engine import GrapeEngine
from repro.graph.csr import CSRGraph, int_array
from repro.partition.base import BorderIndex, Fragment
from repro.resilience.faults import FaultPlane

BACKENDS = ("serial", "thread", "process")
CSR_MODES = (True, False)
INCREMENTAL_MODES = (True, False)

#: every execution-path combination the harness sweeps
ALL_PATHS = tuple(itertools.product(BACKENDS, CSR_MODES, INCREMENTAL_MODES))

PathKey = Tuple[str, bool, bool]


def normalize(answer: Any) -> Any:
    """Make an answer hashable/comparable across runs.

    CC answers map component ids to mutable node sets; freeze them so
    dict equality is well-defined after the originals are garbage
    collected or mutated.
    """
    if isinstance(answer, dict):
        return {k: (frozenset(v) if isinstance(v, (set, frozenset)) else v)
                for k, v in answer.items()}
    return answer


def assert_same_snapshot(snap: CSRGraph, other: CSRGraph) -> None:
    """``snap`` equals ``other`` id for id: the structural arrays with
    their dtypes, the id table (tombstones included), the live id map
    and the labels — what two copies of one fragment must agree on."""
    assert (snap.n, snap.directed) == (other.n, other.directed)
    for name in CSRGraph.SHARED_FIELDS + ("dead",):
        got, want = getattr(snap, name), getattr(other, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert snap.node_of == other.node_of
    assert snap.id_of == other.id_of
    assert snap.labels == other.labels


def ids_after(base: CSRGraph, g) -> Tuple:
    """The id table a splice of bare graph ``g`` over ``base`` runs
    under (what a fragment's table would be): ``base``'s ids stay, the
    nodes ``g`` no longer has are tombstones, new ones append."""
    table = dict(zip(base.node_of, range(base.n)))
    table.update((v, len(table)) for v in g.nodes() if v not in table)
    dead = {v: i for v, i in table.items() if v not in g}
    return list(table), {v: i for v, i in table.items() if v in g}, dead


def rows_by_label(snap: CSRGraph) -> Dict[Any, Any]:
    """Each live node's row as ``[(neighbour, weight), ...]`` in row
    order, and its label: a snapshot read without its ids."""
    node_of, indptr = snap.node_of, snap.indptr.tolist()
    cols, weights = snap.indices.tolist(), snap.weights.tolist()
    return {v: (snap.labels[i], [(node_of[c], w) for c, w in zip(
        cols[indptr[i]:indptr[i + 1]], weights[indptr[i]:indptr[i + 1]])])
        for v, i in snap.id_of.items()}


def assert_live_rows_equal(snap: CSRGraph, fresh: CSRGraph) -> None:
    """The stable-id oracle of a snapshot against a from-scratch build
    of the same graph: live rows equal by label, tombstones are degree-0
    rows ``id_of`` leaves out, the id maps are each other's inverse."""
    assert snap.directed == fresh.directed
    for name in CSRGraph.SHARED_FIELDS + ("dead",):
        assert getattr(snap, name).dtype == getattr(fresh, name).dtype, name
    assert rows_by_label(snap) == rows_by_label(fresh)
    dead = snap.dead.tolist()
    assert dead == sorted(set(dead)) and len(snap.node_of) == snap.n
    assert (np.diff(snap.indptr)[snap.dead] == 0).all()
    assert set(dead).isdisjoint(snap.id_of.values())
    assert len(snap.id_of) + len(dead) == snap.n
    assert all(snap.node_of[i] == v for v, i in snap.id_of.items())
    assert set(map(snap.node_of.__getitem__, dead)).isdisjoint(snap.id_of)


def assert_same_border_index(index, fresh) -> None:
    assert (index is None) == (fresh is None)
    if index is not None:
        for name in BorderIndex.__slots__:
            got, want = getattr(index, name), getattr(fresh, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


def _assert_same_arrays(got, want, what) -> None:
    assert len(got) == len(want), what
    for i, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype \
                and np.array_equal(a, b), (what, i)
        else:
            assert type(a) is type(b) and a == b, (what, i)


def assert_derived_tables_fresh(frag) -> None:
    """The snapshot of ``frag`` and every table derived from it — the
    label index, ``outer_slots``, ``owned_slots``, ``border_slots`` —
    spliced, patched or appended to, equal what a freshly built fragment
    over the same graph and sets derives, compared by label; the ids
    are the fragment's id table's, tombstones in no slot table."""
    fresh = Fragment(frag.fid, frag.graph, frag.owned, frag.inner,
                     frag.outer)
    snap, want = frag.csr(), fresh.csr()
    assert_live_rows_equal(snap, want)
    node_of, id_of, dead = frag.id_table()
    assert snap.id_of is id_of  # one table: the snapshot shares its map
    assert snap.node_of == node_of
    assert snap.dead.tolist() == sorted(dead.values())
    assert all(node_of[i] == v for v, i in dead.items())
    assert set(snap.id_of) == set(frag.graph.nodes())
    labels = int_array(snap.node_of)
    if labels is None:
        assert snap.int_labels is None
    else:  # the label index covers the table, tombstones included
        order = np.argsort(labels, kind="stable")
        _assert_same_arrays(snap._label_index if snap.int_labels is not None
                            else None, (labels, labels[order], order),
                            "label index")
    nodes, ids = frag.owned_slots()
    assert nodes == sorted(frag.owned, key=id_of.__getitem__)
    _assert_same_arrays((ids,), (np.array([snap.id_of[v] for v in nodes],
                                          dtype=np.int64),), "owned_slots")
    if want.int_labels is not None:  # the array plane's maps
        for name in ("outer_slots", "border_slots"):
            (got, vids), (labels, _ids) = getattr(frag, name)(), \
                getattr(fresh, name)()
            _assert_same_arrays((got,), (labels,), name)
            assert vids.dtype == np.int64, name
            assert [snap.node_of[i] for i in vids.tolist()] == labels.tolist()
            assert not np.isin(vids, snap.dead).any(), name
        assert frag.outer_slots()[0].tolist() == sorted(frag.outer)


def assert_derived_state_fresh(fragmentation) -> None:
    """Every snapshot-shaped cache of ``fragmentation`` — spliced or not
    — equals what a build from the whole (mutated) graph gives."""
    index = fragmentation.border_index()
    assert_same_border_index(index, BorderIndex.build(fragmentation))
    for frag in fragmentation:
        assert_derived_tables_fresh(frag)


def run_all_paths(make_program: Callable[..., Any], query: Any,
                  graph_factory: Callable[[], Any], *,
                  workers: int = 3,
                  num_fragments: int = None,
                  backends=BACKENDS,
                  csr_modes=CSR_MODES,
                  incremental_modes=INCREMENTAL_MODES,
                  ) -> Dict[PathKey, Any]:
    """Run every (backend × use_csr × incremental) combination, assert
    pairwise agreement, and return the per-path results.  Every run
    checks the monotonic condition (``check_monotonic=True``), which
    moves neither the plane nor the counts compared here.

    ``make_program`` is called as ``make_program(use_csr=...)`` per run
    (a fresh program per run — programs may carry per-run state);
    ``graph_factory`` likewise rebuilds the graph so no run observes
    another's mutations.
    """
    results: Dict[PathKey, Any] = {}
    reference_answer = None
    reference_key = None
    by_mode: Dict[bool, Tuple[PathKey, Any]] = {}
    planes = []
    real_make = engine_mod.make_coordinator

    def recording_make(*args, **kwargs):
        coordinator = real_make(*args, **kwargs)
        planes.append(coordinator.blocks)
        return coordinator

    for backend in backends:
        for use_csr in csr_modes:
            for incremental in incremental_modes:
                engine = GrapeEngine(workers,
                                     num_fragments=num_fragments,
                                     backend=backend,
                                     incremental=incremental,
                                     check_monotonic=True)
                program = make_program(use_csr=use_csr)
                del planes[:]
                with mock.patch.object(engine_mod, "make_coordinator",
                                       recording_make):
                    result = engine.run(program, query,
                                        graph=graph_factory())
                key = (backend, use_csr, incremental)
                results[key] = result
                answer = normalize(result.answer)
                array_leg = (use_csr and incremental
                             and program.block_spec is not None
                             and result.fragmentation.border_index()
                             is not None)
                assert planes == [array_leg], (
                    f"{key} ran on the wrong border-parameter plane")

                if reference_answer is None:
                    reference_answer, reference_key = answer, key
                else:
                    assert answer == reference_answer, (
                        f"answer diverged: {key} vs {reference_key}")

                costs = (result.supersteps, result.metrics.comm_bytes,
                         result.metrics.comm_messages)
                if incremental not in by_mode:
                    by_mode[incremental] = (key, costs)
                else:
                    ref_key, ref_costs = by_mode[incremental]
                    assert costs == ref_costs, (
                        f"(supersteps, comm_bytes, comm_messages) diverged "
                        f"within incremental={incremental}: "
                        f"{key}={costs} vs {ref_key}={ref_costs}")
    return results


def run_under_faults(make_program: Callable[..., Any], query: Any,
                     graph_factory: Callable[[], Any], crashes, *,
                     workers: int = 3, backends=BACKENDS) -> None:
    """Act the ``crashes`` schedule — ``(fragment, at)`` pairs for the
    ``exec.step`` site — out on every backend and assert the recovered
    runs' logical account equals the uninterrupted serial run's."""
    clean = GrapeEngine(workers, backend="serial").run(
        make_program(), query, graph=graph_factory())
    want = (normalize(clean.answer), clean.supersteps,
            clean.metrics.comm_bytes, clean.metrics.comm_messages)
    for backend in backends:
        plane = FaultPlane()
        for fid, at in crashes:
            plane.plan("exec.step", "crash", key=fid, at=at)
        result = GrapeEngine(workers, backend=backend,
                             fault_plane=plane).run(
            make_program(), query, graph=graph_factory())
        assert len(plane.fired) == len(crashes), backend
        assert result.recoveries >= 1, backend
        got = (normalize(result.answer), result.supersteps,
               result.metrics.comm_bytes, result.metrics.comm_messages)
        assert got == want, (
            f"(answer, supersteps, comm_bytes, comm_messages) under "
            f"{crashes} diverged on {backend} from the uninterrupted run")
