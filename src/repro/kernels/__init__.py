"""Vectorized CSR fragment kernels (paper Sections 3 and 6).

GRAPE's core claim is that fragment-local computation may use *any*
representation effective for the sequential algorithm.  The dict-of-dicts
:class:`~repro.graph.graph.Graph` is convenient for the textbook
algorithms in :mod:`repro.sequential`, but its per-edge cost is
interpreter speed, not machine speed.  This package provides numpy
kernels over the frozen :class:`~repro.graph.csr.CSRGraph` snapshot for
the four traversal-shaped query classes:

* :func:`csr_sssp` / :func:`csr_bfs` — one decrease-only frontier
  relaxation (:mod:`repro.kernels.relax`): with the edge weight as the
  cost it is frontier Bellman–Ford (the delta-stepping degenerate case
  with a single bucket per round), with unit cost level-synchronous BFS;
* :func:`csr_components` — min-label hooking of vertices and their
  representatives (FastSV-style) with pointer jumping;
* :func:`csr_pagerank_push` — one power-iteration push of rank mass.

**Dispatch.**  A program that runs on the kernels takes a ``use_csr``
constructor argument (default on) and, while it is on, declares a
:attr:`~repro.core.pie.PIEProgram.block_spec` — the engine then
exchanges its border parameters as arrays wherever the fragmentation has
a border index.  Inside ``PEval`` / ``IncEval`` the program asks its
fragment for a snapshot via
:meth:`~repro.partition.base.Fragment.csr` and runs the kernel on the
arrays that are its per-fragment state
(:mod:`repro.pie_programs._blocks`); with ``use_csr`` off the original
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

**When the dict algorithms run.**  A served query runs on arrays; a
standing query's maintenance runs the bounded dict algorithms of
:mod:`repro.sequential` on the state's dict *view* (materialised on first
use, then kept), and no maintenance hook asks whether a snapshot happens
to be cached: closure, reset-and-re-seed and CC's region rebuild do
constant work per affected vertex, where a numpy round costs a fixed
~45 µs however small its frontier.  Dict-plane ``IncEval``, shared by
queries and maintenance rounds, calls the kernel while the state's
arrays *are* the state on a live snapshot (a run on string-labelled
nodes, a standing query's untouched fragments) and the dict algorithm
once one wrote last.  They also serve ``use_csr=False`` and the programs
without kernels (Sim, SubIso, CF).
"""

from repro.kernels.cc import csr_components
from repro.kernels.pagerank import csr_pagerank_push
from repro.kernels.relax import UNREACHED_HOPS, csr_bfs, csr_sssp

__all__ = [
    "csr_sssp",
    "csr_bfs",
    "csr_components",
    "csr_pagerank_push",
    "UNREACHED_HOPS",
]
