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
batch's dirty set, and must equal a from-scratch build field for field.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Tuple
from unittest import mock

import numpy as np

from repro.core import engine as engine_mod
from repro.core.engine import GrapeEngine
from repro.graph.csr import CSRGraph
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


def assert_same_snapshot(snap: CSRGraph, fresh: CSRGraph) -> None:
    """``snap`` equals ``fresh`` field by field: the six structural
    arrays with their dtypes, the id maps and the labels."""
    assert (snap.n, snap.directed) == (fresh.n, fresh.directed)
    for name in CSRGraph.SHARED_FIELDS:
        got, want = getattr(snap, name), getattr(fresh, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert snap.node_of == fresh.node_of
    assert snap.id_of == fresh.id_of
    assert list(snap.id_of) == list(fresh.id_of)
    assert snap.labels == fresh.labels


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
    carried across splices or not, equal (values and dtypes) what a
    freshly built fragment over the same graph and sets derives."""
    fresh = Fragment(frag.fid, frag.graph, frag.owned, frag.inner,
                     frag.outer)
    snap, want = frag.csr(), fresh.csr()
    assert_same_snapshot(snap, want)
    snap.int_labels, want.int_labels  # (learn them where nobody asked)
    _assert_same_arrays(snap._label_index, want._label_index, "label index")
    _assert_same_arrays(frag.owned_slots(), fresh.owned_slots(),
                        "owned_slots")
    if want.int_labels is not None:  # the array plane's maps
        _assert_same_arrays((snap.int_labels,), (want.int_labels,),
                            "int_labels")
        for name in ("outer_slots", "border_slots"):
            _assert_same_arrays(getattr(frag, name)(),
                                getattr(fresh, name)(), name)
        labels, vids = frag.outer_slots()
        assert labels.tolist() == sorted(frag.outer)
        assert [snap.node_of[i] for i in vids.tolist()] == labels.tolist()


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
