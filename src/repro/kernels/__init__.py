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
lazily and caches it.  A mutation through
:func:`repro.core.updates.apply_delta` retires it
(``Fragment.invalidate_csr(dirty)``: ``csr_cached`` turns false,
``csr_epoch`` moves, arrays addressed by the old dense ids stop being
read) and the next kernel call gets the new one by *row splice*
(``CSRGraph.from_graph(graph, ids=..., base=retired, dirty=...)``) — one
gather plus the dirty rows, and no id moves: a retired node is a degree-0
tombstone (see :class:`~repro.partition.base.Fragment`).  A mutation that cannot name
its rows still drops the snapshot and the next call builds it.

**When the dict algorithms run.**  A served query runs on arrays; a
standing query's maintenance runs the bounded dict algorithms of
:mod:`repro.sequential` on the state's dict *view*, whether or not a
snapshot happens to be cached (constant work per affected vertex, where
a numpy round costs a fixed ~45 µs).  Dict-plane ``IncEval`` calls the
kernel while the state's arrays *are* the state on a live snapshot and
the dict algorithm once one wrote last (:mod:`repro.pie_programs._blocks`
has the rule).  The dict algorithms also serve ``use_csr=False`` and
the programs without kernels (Sim, SubIso, CF).
"""

from repro.kernels.cc import csr_components
from repro.kernels.pagerank import csr_pagerank_push
from repro.kernels.relax import UNREACHED_HOPS, csr_bfs, csr_sssp

__all__ = ["csr_sssp", "csr_bfs", "csr_components", "csr_pagerank_push",
           "UNREACHED_HOPS"]
