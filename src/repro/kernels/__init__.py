"""Vectorized CSR fragment kernels (paper Sections 3 and 6).

GRAPE's core claim is that fragment-local computation may use *any*
representation effective for the sequential algorithm.  The dict-of-dicts
:class:`~repro.graph.graph.Graph` is convenient for the textbook
algorithms in :mod:`repro.sequential`, but its per-edge cost is
interpreter speed, not machine speed.  This package provides numpy
kernels over the frozen :class:`~repro.graph.csr.CSRGraph` snapshot for
the four traversal-shaped query classes:

* :func:`csr_sssp` — frontier Bellman–Ford relaxation (the delta-stepping
  degenerate case with a single bucket per round);
* :func:`csr_bfs` — level-synchronous BFS hop counts;
* :func:`csr_components` — min-label hooking of vertices and their
  representatives (FastSV-style) with pointer jumping;
* :func:`csr_pagerank_push` — one power-iteration push of rank mass.

**Capability-flag dispatch.**  A PIE program advertises CSR support with
the class attribute ``supports_csr = True`` and an instance switch
``use_csr`` (constructor argument, default on).  Inside ``PEval`` /
``IncEval`` the program asks its fragment for a snapshot via
:meth:`~repro.partition.base.Fragment.csr` and runs the kernel on the
arrays that are its per-fragment state
(:mod:`repro.pie_programs._blocks`); when ``use_csr`` is off the original
dict-graph sequential algorithm runs instead.  Both paths compute
*bitwise-identical* results: every kernel reaches the same fixpoint as
its sequential oracle and performs float additions in the same left-fold
order (``np.minimum.at`` / ``np.add.at`` apply element-by-element in
array order) — so answers, superstep counts and shipped parameter values
are unchanged, only the time to compute them.

**Snapshot invalidation.**  ``Fragment.csr()`` builds the snapshot
lazily on first use and caches it.  Any mutation of the fragment through
:func:`repro.core.updates.apply_delta` calls
``Fragment.invalidate_csr(dirty)`` with the nodes whose adjacency row
changed, which retires the cached snapshot (``Fragment.csr_cached`` turns
false) and bumps ``Fragment.csr_epoch`` so that arrays addressed by the
old snapshot's dense ids stop being read.  The next kernel call gets the
new snapshot by *row splice*
(``CSRGraph.from_graph(graph, base=retired, dirty=...)``): the same
arrays a build from the whole graph gives, for a few slice copies plus
the dirty rows.  A mutation that cannot name its rows
(``invalidate_csr()``) still drops the snapshot and the next call builds
it from the dict graph.

**When the dict algorithms run.**  With ``use_csr=False``, for programs
that do not set ``supports_csr`` (Sim, SubIso, CF), and in the
maintenance rounds of a standing query on a fragment whose snapshot a
batch has just retired (``csr_cached`` false): they work on the dict
*view* of the state, which is materialised on first use and then kept.
"""

from repro.kernels.bfs import (UNREACHED_HOPS, csr_bfs, csr_bfs_affected,
                               csr_bfs_reseed)
from repro.kernels.cc import csr_components, csr_region_components
from repro.kernels.pagerank import csr_pagerank_push
from repro.kernels.sssp import csr_sssp, csr_sssp_affected, csr_sssp_reseed

__all__ = [
    "csr_sssp",
    "csr_sssp_affected",
    "csr_sssp_reseed",
    "csr_bfs",
    "csr_bfs_affected",
    "csr_bfs_reseed",
    "csr_components",
    "csr_region_components",
    "csr_pagerank_push",
    "UNREACHED_HOPS",
]
