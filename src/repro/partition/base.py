"""Fragments, fragmentations and the partition-strategy interface.

Paper, Section 2: a strategy ``P`` partitions ``G`` into fragments
``F = (F_1, ..., F_m)``; each ``F_i`` is a subgraph of ``G`` residing at
worker ``P_i``; the union of fragments covers every node and edge.

For an **edge-cut** partition each node has a unique *owner* fragment.  A
fragment stores its owned nodes plus read-only *copies* of the out-border
nodes it has edges into:

* ``F_i.I`` — owned nodes with an incoming edge from another fragment
  (paper: "nodes v in V_i such that there is an edge (v', v) incoming from a
  node v' in F_j, i != j");
* ``F_i.O`` — non-owned nodes that some owned node has an edge to.

For a **vertex-cut** partition edges are assigned to fragments and nodes are
replicated wherever they have incident edges; every replicated node is a
border node (entry/exit vertices in the paper's terminology).

The :class:`FragmentationGraph` (``G_P``) indexes, for every border node,
which fragments hold it — GRAPE uses it to deduce message destinations.
"""

from __future__ import annotations

import abc
import itertools
import threading
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.graph.csr import (CSRGraph, found_in_sorted, id_table, int_array,
                             positions_in_sorted, splice_rows)
from repro.graph.graph import DeferredGraph, Graph, Node

__all__ = ["TOMBSTONE", "BorderIndex", "Fragment", "FragmentationGraph",
           "Fragmentation", "PartitionStrategy", "build_edge_cut_fragments",
           "build_vertex_cut_fragments", "cut_edges", "replication_factor"]


#: a tombstone's place in :meth:`Fragment.keys` (never a node)
TOMBSTONE = object()


class Fragment:
    """One fragment ``F_i`` of a partitioned graph.

    Attributes
    ----------
    fid:
        Fragment index ``i`` in ``[0, m)``.
    graph:
        The local subgraph: owned nodes, their out-edges, and copies of
        out-border endpoint nodes (edge-cut); or the assigned edges with
        replicated endpoints (vertex-cut).
    owned:
        Nodes this fragment is the primary owner of.
    inner:
        ``F_i.I`` — owned border nodes reachable from other fragments.
    outer:
        ``F_i.O`` — copied nodes owned elsewhere.

    **Stable ids.**  A node's dense id is fixed in the fragment's id
    table (:meth:`id_table`) when it first joins the local graph; a
    retired mirror is a tombstone (a degree-0 row no answer, report or
    slot table sees) and takes its old id back.  :meth:`absorb` keeps
    the table in ``O(batch)`` on every copy alike, so the snapshot
    (:meth:`csr`) and the slot tables change only at appended ids and at
    the nodes a batch names; past half tombstones the table is packed.
    """

    __slots__ = ("fid", "graph", "owned", "inner", "outer", "_ids", "_keys",
                 "_csr", "_csr_pending", "_csr_lock", "_csr_shared",
                 "_remote_csr_live", "_border_table", "_owned_slots",
                 "_border_dirty", "csr_epoch", "border_epoch",
                 "csr_builds", "csr_patches", "csr_invalidations",
                 "tables_rebuilt")

    def __init__(self, fid: int, graph: Graph, owned: Set[Node],
                 inner: Set[Node], outer: Set[Node]):
        self.fid = fid
        self.graph = graph
        self.owned = owned
        self.inner = inner
        self.outer = outer
        self._ids = self._keys = None  # see id_table, keys
        self._csr = None
        # (last snapshot, nodes whose adjacency row changed since): what
        # the next csr() splices from
        self._csr_pending = None
        # GrapeService runs concurrent queries over one shared cached
        # fragmentation (they hold only the graph's read lock): lazy
        # builds are guarded against duplicate construction.
        self._csr_lock = threading.Lock()
        #: the installed snapshot's arrays map a shared-memory segment
        self._csr_shared = False
        #: a worker-side copy of this fragment holds a live snapshot
        #: (process backend); used only for invalidation accounting
        self._remote_csr_live = False
        # the slot tables (see _border, owned_slots) and the nodes
        # that joined or left F_i.I / F_i.O since they were current
        self._border_table = self._owned_slots = None
        self._border_dirty: Set[Node] = set()
        #: bumped on every invalidation so consumers holding arrays keyed
        #: by the old snapshot's dense ids know to rebuild them
        self.csr_epoch = 0
        #: bumped whenever ``inner`` / ``outer`` are edited — which can
        #: happen without the local graph, and so ``csr_epoch``, moving
        self.border_epoch = 0
        #: snapshots built / spliced from the last one and a dirty set /
        #: retired; slot tables derived from the sets
        self.csr_builds = self.csr_patches = self.csr_invalidations = 0
        self.tables_rebuilt = 0

    def __getstate__(self):
        """Pickle contract (the process backend ships fragments once):
        snapshots, tables and the lock stay, the id table crosses unless
        the graph's node order spells it.  The receiving side starts at
        epoch 0 and derives its own; consumers key on *its* epoch."""
        state = {slot: getattr(self, slot) for slot in
                 ("fid", "graph", "owned", "inner", "outer")}
        # (a loaded snapshot has tombstones its deferred graph has not)
        ids = self._ids if self._csr is None else self.id_table()
        if ids is not None and (ids[2] or ids[0] != list(self.graph._succ)):
            state["ids"] = (ids[0], sorted(ids[2].values()))
        return state

    def __setstate__(self, state):
        self.__init__(state["fid"], state["graph"], state["owned"],
                      state["inner"], state["outer"])
        if "ids" in state:
            self._ids = id_table(*state["ids"])

    def id_table(self) -> Tuple:
        """``(node_of, id_of, dead)`` (:func:`~repro.graph.csr.id_table`):
        taken from the installed snapshot (sharing its ``id_of``), else
        node order — so mutators ask before they mutate."""
        if self._ids is None:
            snap = self._csr
            self._ids = id_table(self.graph.nodes()) if snap is None else (
                list(snap.node_of), snap.id_of,
                {snap.node_of[i]: i for i in snap.dead.tolist()})
        return self._ids

    def keys(self) -> List[Node]:
        """The id table's nodes by dense id, each tombstone as
        :data:`TOMBSTONE`: what a state's per-vertex arrays are keyed by
        (one list per id table change, shared, never written)."""
        ids, cached = self.id_table(), self._keys
        if cached is None or cached[0] is not ids:
            keys = list(ids[0])
            for i in ids[2].values():
                keys[i] = TOMBSTONE
            cached = self._keys = (ids, keys)
        return cached[1]

    def absorb(self, delta) -> None:
        """Take ``delta`` (a :class:`~repro.graph.delta.FragmentDelta`
        the graph and the sets already took) into the id table, the
        border table's due patch and the dirty rows: a node joins under
        its old id or the next, a retired one is a tombstone, and past
        half tombstones the table is packed (the next csr builds)."""
        node_of, id_of, dead = self.id_table()
        for v, _label in delta.new_nodes:  # (joins precede retirements)
            i = id_of[v] = dead.pop(v, len(node_of))
            if i == len(node_of):
                node_of.append(v)
        for v in delta.retired_nodes:
            dead[v] = id_of.pop(v)
        if delta.new_nodes or delta.retired_nodes:
            self._keys = None
        if any(delta.border_edits):
            self.border_epoch += 1
            self._border_dirty.update(*delta.border_edits)
        if delta.mutates_graph:
            self.invalidate_csr(delta.dirty_nodes())
        if 2 * len(dead) > len(node_of):
            self._ids = id_table([v for v in node_of if v in id_of])
            self._csr_pending = None

    def csr(self):
        """Frozen CSR snapshot of the local graph; the partitioner and the
        snapshot loader install the first one, else it is built lazily.

        The snapshot is cached until :meth:`invalidate_csr` retires it
        (mutation through :func:`repro.core.updates.apply_delta`);
        CSR-capable PIE programs call this every round and almost always
        hit the cache.  After a mutation that named its dirty rows the
        next snapshot is spliced from the retired one (``csr_patches``),
        otherwise it is built from the whole graph (``csr_builds``), in
        id table order.  Thread-safe: readers build or splice once.
        """
        snap = self._csr
        if snap is None:
            with self._csr_lock:
                snap = self._csr
                if snap is None:
                    base, dirty = self._csr_pending or (None, ())
                    self._csr_pending = None
                    snap = self._csr = CSRGraph.from_graph(
                        self.graph, ids=self.id_table(), base=base,
                        dirty=dirty)
                    self.csr_builds += base is None
                    self.csr_patches += base is not None
        return snap

    def _border(self) -> Tuple:
        """The border table ``(id table, border epoch, sorted F_i.I |
        F_i.O labels, their dense ids, which are F_i.O's, the F_i.O
        labels, their ids)``: patched at the nodes the border edits
        named, derived from the sets for a new id table."""
        table = self._border_table
        if table is not None and table[0] is self._ids \
                and table[1] == self.border_epoch:
            return table
        snap = self.csr()
        with self._csr_lock:
            table, ids = self._border_table, self.id_table()
            if table is not None and table[0] is ids:
                table = self._border_table = (ids, self.border_epoch) \
                    + _patch_border(table[2:], self._border_dirty,
                                    self.inner, self.outer, ids[1])
            else:
                labels = np.fromiter(
                    itertools.chain(self.inner, self.outer), dtype=np.int64,
                    count=len(self.inner) + len(self.outer))
                order = np.argsort(labels, kind="stable")
                labels, is_outer = labels[order], order >= len(self.inner)
                vids = snap.ids_of(labels)
                table = self._border_table = (
                    ids, self.border_epoch, labels, vids, is_outer,
                    labels[is_outer], vids[is_outer])
                self.tables_rebuilt += 1
            self._border_dirty = set()
        return table

    def outer_slots(self) -> Tuple[np.ndarray, np.ndarray]:
        """``F_i.O`` as arrays: the copies' labels (sorted int64) and
        their dense ids in the current CSR snapshot — the per-fragment
        map through which array-plane programs read their reports
        straight out of kernel arrays (``values[ids]`` lines up with
        ``labels``).  Requires integer node labels.  A view of the
        border table."""
        return self._border()[5:]

    def border_slots(self) -> Tuple[np.ndarray, np.ndarray]:
        """``F_i.I ∪ F_i.O`` as arrays, like :meth:`outer_slots`: where
        CC, whose candidate set is every border node, reads and reports
        component ids."""
        return self._border()[2:4]

    def owned_slots(self) -> Tuple[List[Node], np.ndarray]:
        """The owned nodes in id order and their (ascending) dense ids —
        what Assemble gathers a value array at, and a deterministic order
        where iterating the ``owned`` set is not (a pickle round trip
        reorders it, and float accumulations that follow it would differ
        in the last digit between backends).  Owned nodes never retire, so
        a batch only appends: the ids past the last read are scanned."""
        ids = self.id_table()
        node_of, cached = ids[0], self._owned_slots
        if cached is None or cached[0] is not ids:
            cached = self._owned_slots = (ids, 0, [], np.empty(0, np.int64))
            self.tables_rebuilt += 1
        if cached[1] != len(node_of):
            added = [i for i in range(cached[1], len(node_of))
                     if node_of[i] in self.owned]
            cached = self._owned_slots = (ids, len(node_of), cached[2] + [
                node_of[i] for i in added], np.concatenate(
                    (cached[3], np.array(added, dtype=np.int64))))
        return cached[2], cached[3]

    def install_csr(self, snap, *, shared: bool = False) -> None:
        """Adopt a prebuilt CSR snapshot without counting a build: warm
        start (the snapshot loader rebuilds the arrays while decoding)
        and the shared-memory fragment plane (``shared=True`` — the
        arrays are views over a mapped segment)."""
        with self._csr_lock:
            self._csr = snap
            self._csr_pending = None
            self._csr_shared = shared

    @property
    def csr_shared(self) -> bool:
        """Whether the cached snapshot maps a shared-memory segment."""
        return self._csr_shared and self._csr is not None

    @property
    def csr_cached(self) -> bool:
        """Whether a current CSR snapshot is already built (one retired
        by a mutation and waiting to be spliced does not count).
        Dict-plane ``IncEval`` asks before it calls a kernel: producing
        the next snapshot — even by splice, ``O(|E_i|)`` of array
        copying — to relax a few border values would charge that to an
        ``O(|AFF|)`` operation.  The bounded maintenance hooks do not
        ask: they run the dict algorithms either way."""
        return self._csr is not None

    def invalidate_csr(self, dirty: Optional[Iterable[Node]] = None) -> None:
        """Retire the cached snapshot after a mutation of ``graph``.

        ``dirty`` names every node whose adjacency row the mutation
        changed (:meth:`~repro.graph.delta.FragmentDelta.dirty_nodes`):
        the retired snapshot is then kept, with the dirty set, for the
        next :meth:`csr` to splice from — dirty sets of successive
        mutations accumulate, until they stop being small against the
        snapshot.  Without ``dirty`` the mutation is unknown: the
        snapshots and the id table are dropped.

        ``csr_epoch`` advances on *every* call: it marks graph mutations,
        not cache drops (consumers' epoch-keyed arrays can come from a
        snapshot built in a worker process).  ``csr_invalidations``
        counts retirements of a live snapshot, worker-side ones included.
        """
        with self._csr_lock:
            live = self._csr
            pending = (live, set()) if live is not None \
                else self._csr_pending
            self.csr_epoch += 1
            if dirty is None:
                pending = self._ids = None
            elif pending is not None:
                pending[1].update(dirty)
                if 2 * len(pending[1]) > pending[0].n:
                    pending = None  # no longer a small patch: build
            self._csr_pending = pending
            if live is not None or self._remote_csr_live:
                self._csr = None
                self._csr_shared = False
                self._remote_csr_live = False
                self.csr_invalidations += 1

    def release_snapshots(self) -> None:
        """Let go of every array this fragment holds — the live and the
        kept snapshot and the slot tables — without recording a mutation
        (the owner is done with it; a later :meth:`csr` builds again)."""
        with self._csr_lock:
            self._csr = self._csr_pending = None
            self._border_table = self._owned_slots = None
            self._csr_shared = False

    def count_remote_csr_work(self, builds: int, patches: int,
                              rebuilt: int = 0) -> None:
        """Fold snapshot and table derivations done on a worker-side
        copy of this fragment (process backend) into the local lifetime
        counters, so service-level metrics see them."""
        with self._csr_lock:
            self.tables_rebuilt += rebuilt
            if builds or patches:
                self.csr_builds += builds
                self.csr_patches += patches
                self._remote_csr_live = True

    @property
    def border_nodes(self) -> Set[Node]:
        """``F_i.I ∪ F_i.O`` (paper Section 2)."""
        return self.inner | self.outer

    @property
    def num_nodes(self) -> int:
        snap = self._csr
        if snap is not None and type(self.graph) is DeferredGraph:
            return snap.n - snap.dead.size  # (must not fill the dict graph)
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        snap = self._csr
        if snap is not None and type(self.graph) is DeferredGraph:
            return snap.num_edges
        return self.graph.num_edges

    def __repr__(self) -> str:
        return (f"Fragment(fid={self.fid}, owned={len(self.owned)}, "
                f"inner={len(self.inner)}, outer={len(self.outer)})")


def _patch_border(prev: Tuple, named: Set[Node], inner: Set[Node],
                  outer: Set[Node], id_of: Dict[Node, int]) -> Tuple:
    """The border table's arrays after edits of ``F_i.I`` / ``F_i.O``
    at the ``named`` nodes: their slots re-read, every id kept.  Equal
    to deriving from the sets."""
    keep = ~found_in_sorted(prev[0], int_array(list(named)))
    now = sorted(named & inner | named & outer)
    at = np.searchsorted(prev[0][keep], now)
    labels, ids, is_outer = (np.insert(col[keep], at, new) for col, new in zip(
        prev[:3], (now, [id_of[v] for v in now], [v in outer for v in now])))
    return labels, ids, is_outer, labels[is_outer], ids[is_outer]


class FragmentationGraph:
    """The index ``G_P``: which fragments hold each border node.

    For a border node ``v``, ``G_P(v)`` retrieves the pairs ``i -> j`` with
    ``v ∈ F_i.O`` and ``v ∈ F_j.I``.  We store the equivalent primitive
    facts and derive the pairs:

    * ``owner[v]`` — the owning fragment (edge-cut) or master (vertex-cut);
    * ``holders[v]`` — every fragment whose local graph contains ``v``,
      given as a bit mask over fragment ids.
    """

    def __init__(self, owner: Mapping[Node, int], held: Mapping[Node, int]):
        self._owner = dict(owner)
        # one frozenset per holder set, not per node: fewer GC-tracked objects
        sets = {m: frozenset(i for i in range(m.bit_length()) if m >> i & 1)
                for m in set(held.values())}
        self._holders = {v: sets[m] for v, m in held.items()}

    def owner(self, v: Node) -> int:
        return self._owner[v]

    def holders(self, v: Node) -> FrozenSet[int]:
        """All fragments whose local graph contains ``v``."""
        return self._holders.get(v, frozenset((self._owner[v],)))

    def border_nodes(self) -> Iterable[Node]:
        """Nodes present in more than one fragment."""
        for v, fs in self._holders.items():
            if len(fs) > 1:
                yield v

    def pairs(self, v: Node) -> List[Tuple[int, int]]:
        """The paper's ``G_P(v)``: pairs ``(i, j)`` with ``v ∈ F_i.O`` and
        ``v ∈ F_j.I`` (i.e. copy at ``i``, owned at ``j``)."""
        own = self._owner[v]
        return [(i, own) for i in self.holders(v) if i != own]

    def destinations(self, v: Node, from_fragment: int) -> FrozenSet[int]:
        """Fragments (other than the sender) that must learn about a
        change to a status variable of ``v``."""
        return frozenset(f for f in self.holders(v) if f != from_fragment)

    def __contains__(self, v: Node) -> bool:
        return v in self._owner

    def __len__(self) -> int:  # |V|: every node has an owner
        return len(self._owner)


class BorderIndex:
    """Dense integer index over a fragmentation's border nodes.

    The array-native coordinator (:mod:`repro.core.coordinator`) keeps
    one table row per border node instead of one dict entry per
    ``(node, name)`` key; this is the index space those rows live in:

    * ``nodes`` — the border nodes' labels, sorted (int64); a node's
      *border id* is its position, found by :meth:`ids_of`;
    * ``owner`` — border id -> owning fragment (int32);
    * ``holder_ptr`` / ``holder_fid`` — ``G_P``'s holder sets as a CSR
      table: the fragments holding border id ``b`` are
      ``holder_fid[holder_ptr[b]:holder_ptr[b + 1]]``, ascending.

    A border node is any member of some fragment's ``F_i.I`` or
    ``F_i.O``.  Blocks on the wire carry node labels, not border ids
    (see :mod:`repro.runtime.wire`), so the mapping from a block entry to
    a fragment-local vertex id is the receiving snapshot's own
    (:meth:`repro.graph.csr.CSRGraph.ids_of`) and never needs shipping.

    The index only exists for graphs whose every node label is a plain
    ``int`` (labels double as array values: a CC component id *is* a
    node label); :meth:`build` returns ``None`` otherwise and callers
    stay on the dict plane.  An index is immutable; after update batches
    :meth:`Fragmentation.border_index` derives the next one from it by
    :meth:`patched` — a row splice over the nodes the logged deltas name
    — and builds afresh only when it cannot.
    """

    __slots__ = ("nodes", "owner", "holder_ptr", "holder_fid")

    def __init__(self, nodes: np.ndarray, owner: np.ndarray,
                 holder_ptr: np.ndarray, holder_fid: np.ndarray):
        self.nodes = nodes
        self.owner = owner
        self.holder_ptr = holder_ptr
        self.holder_fid = holder_fid

    @classmethod
    def build(cls, fragmentation: "Fragmentation") -> Optional["BorderIndex"]:
        """From the border sets: a border node is held by the fragments
        whose ``F_i.I`` or ``F_i.O`` has it (``G_P``'s holders)."""
        if int_array(list(fragmentation.gp._owner)) is None:
            return None
        sizes = [len(f.inner) + len(f.outer) for f in fragmentation]
        labels = np.fromiter(itertools.chain.from_iterable(
            itertools.chain(f.inner, f.outer) for f in fragmentation),
            dtype=np.int64, count=sum(sizes))
        fids = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        order = np.lexsort((fids, labels))
        nodes, starts = np.unique(labels[order], return_index=True)
        owner = np.fromiter(map(fragmentation.gp.owner, nodes.tolist()),
                            dtype=np.int32, count=nodes.shape[0])
        return cls(nodes, owner, np.append(starts, order.shape[0]),
                   fids[order])

    def patched(self, fragmentation: "Fragmentation",
                dirty: Set[Node]) -> Optional["BorderIndex"]:
        """The index of ``fragmentation`` as it is now, given that since
        this index was current only the nodes in ``dirty`` changed border
        membership or holders: their rows are dropped and re-read, every
        other row is spliced over.  Equal to :meth:`build`, which is
        what ``None`` — ``dirty`` names a label no index can hold — sends
        the caller to."""
        changed = int_array(list(dirty))
        if changed is None:
            return None
        changed.sort()
        fragments = fragmentation.fragments
        fresh = [v for v in changed.tolist()
                 if any(v in f.inner or v in f.outer for f in fragments)]
        stay = np.flatnonzero(~found_in_sorted(self.nodes, changed))
        kept_nodes = self.nodes[stay]
        at = np.searchsorted(kept_nodes, fresh)
        gp = fragmentation.gp
        holders = [sorted(gp.holders(v)) for v in fresh]
        owner = np.array(list(map(gp.owner, fresh)), dtype=np.int32)
        counts = np.array(list(map(len, holders)), dtype=np.int64)
        fids = np.array(list(itertools.chain(*holders)), dtype=np.int32)
        holder_ptr, (holder_fid,) = splice_rows(
            self.holder_ptr, (self.holder_fid,), np.insert(stay, at, -1),
            counts, (fids,))
        return BorderIndex(np.insert(kept_nodes, at, fresh),
                           np.insert(self.owner[stay], at, owner),
                           holder_ptr, holder_fid)

    def __len__(self) -> int:
        return int(self.nodes.shape[0])

    def ids_of(self, labels: np.ndarray) -> np.ndarray:
        """Border ids of the given node labels (vectorized); a label
        that is not a border node raises :exc:`KeyError`."""
        return positions_in_sorted(self.nodes, labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BorderIndex):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.__slots__)

    def __repr__(self) -> str:
        return (f"BorderIndex(border={len(self)}, "
                f"held={int(self.holder_fid.shape[0])})")


#: process-wide ids distinguishing fragmentation objects across pickling
_fragmentation_ids = itertools.count(1)

#: delta-log versions retained for worker-side replay; a worker whose
#: cached copy lags further behind is refreshed by full re-ship
_DELTA_LOG_LIMIT = 64


def _summed(counter: str, what: str) -> property:
    return property(
        lambda self: sum(getattr(f, counter) for f in self.fragments),
        doc=f"Total {what} across fragments (lifetime count).")


class Fragmentation:
    """A complete partition of ``G``: fragments plus the ``G_P`` index."""

    def __init__(self, graph: Graph, fragments: Sequence[Fragment],
                 strategy_name: str = "unknown"):
        self.graph = graph
        self.fragments = list(fragments)
        self.strategy_name = strategy_name
        # Identity + mutation counter: the process backend caches shipped
        # fragments worker-side keyed by (identity, version); mutations
        # bump the version so stale copies are refreshed on the next lease
        # — by replaying the logged deltas, or by full re-ship.
        self._token_id = next(_fragmentation_ids)
        self.version = 0
        # version -> {fid: FragmentDelta} for the last few applied
        # batches (insertion-ordered; oldest evicted first)
        self._delta_log: Dict[int, Dict[int, "FragmentDelta"]] = {}
        owner: Dict[Node, int] = {}
        held: Dict[Node, int] = {}
        for frag in self.fragments:
            owner.update(dict.fromkeys(frag.owned, frag.fid))
            snap = frag._csr  # installed: names nodes, builds no dicts
            for v in (frag.graph.nodes() if snap is None else snap.id_of):
                held[v] = held.get(v, 0) | 1 << frag.fid
        self.gp = FragmentationGraph(owner, held)
        # (version, index or None), brought current on first use per version
        self._border_index: Optional[Tuple[int, Optional[BorderIndex]]] = None
        self._border_lock = threading.Lock()
        #: border indexes built from the fragments / spliced from the
        #: previous index and the delta log
        self.border_index_builds = 0
        self.border_index_patches = 0

    def __getstate__(self):
        # The lock is unpicklable and the index is derived state.
        state = self.__dict__.copy()
        del state["_border_lock"]
        state["_border_index"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._border_lock = threading.Lock()

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)

    @property
    def cache_token(self) -> Tuple[int, int]:
        """Key under which process-backend workers cache shipped
        fragments; changes whenever the fragmentation is mutated."""
        return (self._token_id, self.version)

    def border_index(self) -> Optional[BorderIndex]:
        """The dense border index of the current version, or ``None``
        when the graph's labels do not admit one.

        Brought current lazily and cached per :attr:`version`: an update
        batch only moves the version.  The first array-plane query
        afterwards splices the cached index with the nodes the delta log
        names for the versions in between (:meth:`BorderIndex.patched`),
        or — no cached index, a version the log does not cover, too many
        nodes — builds it from the border sets and ``G_P``; either way
        equal to the index of a freshly partitioned copy.  Thread-safe.
        """
        cached = self._border_index
        if cached is None or cached[0] != self.version:
            with self._border_lock:
                cached = self._border_index
                if cached is None or cached[0] != self.version:
                    index = None
                    if cached is not None and cached[1] is not None:
                        dirty = self._border_dirty_since(cached[0])
                        # worth splicing while small against the index
                        if dirty is not None \
                                and 2 * len(dirty) <= len(cached[1]):
                            index = cached[1].patched(self, dirty)
                    if index is not None:
                        self.border_index_patches += 1
                    else:
                        index = BorderIndex.build(self)
                        self.border_index_builds += 1
                    cached = self._border_index = (self.version, index)
        return cached[1]

    def _border_dirty_since(self, version: int) -> Optional[Set[Node]]:
        """Every node whose border membership or holders the batches
        after ``version`` may have changed; ``None`` when the delta log
        does not cover them all."""
        chain = self.replay_chain(version, self.version, range(len(self)))
        return None if chain is None else set().union(*(
            delta.border_nodes() for deltas in chain.values()
            for delta in deltas))

    def release_snapshots(self) -> None:
        """Drop every derived array — the fragments' snapshots and the
        border index — of a fragmentation its owner has retired."""
        for frag in self.fragments:
            frag.release_snapshots()
        with self._border_lock:
            self._border_index = None

    def bump_version(self) -> None:
        """Invalidate worker-side fragment caches after a mutation that
        bypassed :func:`repro.core.updates.apply_delta`: the version
        advances *without* a delta-log entry, so workers fall back to a
        full re-ship and published shared-memory segments go stale."""
        self.version += 1
        from repro.runtime import shm
        shm.invalidate_token(self._token_id)

    def record_delta(self, touched: Dict[int, "FragmentDelta"]) -> None:
        """Log one applied update batch and bump the cache token
        (:func:`repro.core.updates.apply_delta`, after mutating the
        fragments in place).  Each fragment delta is stamped with the
        new version; pooled workers whose copies lag by at most
        ``_DELTA_LOG_LIMIT`` versions replay these instead of receiving
        whole fragments.  Published segments of the touched fragments go
        stale.
        """
        self.version += 1
        from repro.runtime import shm
        shm.notify_delta(self._token_id, self.version, touched)
        for delta in touched.values():
            delta.seq = self.version
        self._delta_log[self.version] = dict(touched)
        while len(self._delta_log) > _DELTA_LOG_LIMIT:
            del self._delta_log[next(iter(self._delta_log))]

    def replay_chain(self, from_version: int, to_version: int,
                     fids: Iterable[int]
                     ) -> Optional[Dict[int, List["FragmentDelta"]]]:
        """Per-fragment deltas turning ``from_version`` copies of the
        given fragments into ``to_version`` ones.

        Returns ``None`` when the log cannot prove the chain is complete
        (a version was evicted, or advanced via :meth:`bump_version`
        without a logged delta) — the caller must then fall back to a
        full re-ship.  Fragments untouched across the whole range map to
        no entry at all.
        """
        if from_version > to_version:
            return None
        chain: Dict[int, List["FragmentDelta"]] = {fid: [] for fid in fids}
        for version in range(from_version + 1, to_version + 1):
            step = self._delta_log.get(version)
            if step is None:
                return None
            for fid in chain:
                delta = step.get(fid)
                if delta is not None:
                    chain[fid].append(delta)
        return {fid: deltas for fid, deltas in chain.items() if deltas}

    csr_snapshots_built = _summed("csr_builds", "CSR snapshot builds")
    csr_snapshots_patched = _summed("csr_patches", "CSR snapshot splices")
    csr_snapshot_invalidations = _summed("csr_invalidations",
                                         "CSR snapshot drops")
    derived_tables_rebuilt = _summed(
        "tables_rebuilt", "derived tables built from the sets")

    def fragment_of(self, v: Node) -> Fragment:
        """The fragment owning ``v``."""
        return self.fragments[self.gp.owner(v)]

    def __iter__(self):
        return iter(self.fragments)

    def __len__(self) -> int:
        return len(self.fragments)

    def __getitem__(self, fid: int) -> Fragment:
        return self.fragments[fid]

    def validate(self) -> None:
        """Check the partition invariants of paper Section 2.

        Raises ``AssertionError`` when the fragmentation does not cover the
        graph or the border sets are inconsistent with ``G_P``.
        """
        seen_nodes: Set[Node] = set()
        for frag in self.fragments:
            seen_nodes.update(frag.owned)
        assert seen_nodes == set(self.graph.nodes()), "owned sets must cover V"

        covered_edges: Set[Tuple[Node, Node]] = set()
        for frag in self.fragments:
            for u, v, _w in frag.graph.edges():
                covered_edges.add((u, v))
                if not self.graph.directed:
                    covered_edges.add((v, u))
        for u, v, _w in self.graph.edges():
            assert (u, v) in covered_edges, f"edge {(u, v)} not covered"

        for frag in self.fragments:
            for v in frag.inner:
                assert v in frag.owned, "F_i.I must be owned nodes"
            for v in frag.outer:
                assert v not in frag.owned, "F_i.O must be foreign nodes"
                assert self.gp.owner(v) != frag.fid


class PartitionStrategy(abc.ABC):
    """A graph partition strategy ``P`` (paper Table 2).

    Concrete strategies implement :meth:`assign` returning a node-to-
    fragment map; :meth:`partition` materializes edge-cut fragments from it.
    Vertex-cut strategies override :meth:`partition` directly.
    """

    name = "abstract"

    @abc.abstractmethod
    def assign(self, graph: Graph, num_fragments: int) -> Dict[Node, int]:
        """Map every node of ``graph`` to a fragment id in ``[0, m)``."""

    def partition(self, graph: Graph, num_fragments: int) -> Fragmentation:
        if num_fragments < 1:
            raise ValueError("need at least one fragment")
        assignment = self.assign(graph, num_fragments)
        return build_edge_cut_fragments(graph, assignment, num_fragments,
                                        strategy_name=self.name)


def build_edge_cut_fragments(graph: Graph, assignment: Mapping[Node, int],
                             num_fragments: int,
                             strategy_name: str = "custom") -> Fragmentation:
    """Materialize edge-cut fragments from a node assignment.

    Every edge ``(u, v)`` is stored at the fragment owning ``u``; if ``v``
    is owned elsewhere, a copy of ``v`` joins ``F_i.O`` and ``v`` joins the
    owner's ``F_j.I`` (undirected: both ways round).

    Built from the graph's CSR snapshot and the assignment as an array;
    each snapshot is installed (not a build) under a deferred dict graph,
    filled on the first write.  Node and row order are an edge-by-edge
    build's: owned nodes in ``owned``'s (assignment) order, then copies
    by first cut edge, rows in ``graph.edges()`` order.
    """
    base = CSRGraph.from_graph(graph)
    n, m, node_of = base.n, num_fragments, base.node_of
    missing = n - sum(map(assignment.__contains__, node_of))
    if missing:
        raise ValueError(f"assignment missing {missing} nodes")
    keys = list(assignment)
    fids = np.fromiter(assignment.values(), dtype=np.int64, count=len(keys))
    bad = (fids < 0) | (fids >= m)
    if bad.any():
        raise ValueError(f"fragment id {fids[bad][0]} out of range")
    part = np.fromiter(map(assignment.__getitem__, node_of), dtype=np.int64,
                       count=n)
    rows = np.repeat(np.arange(n), np.diff(base.indptr))
    cols = base.indices
    # when graph.edges() yields an entry: an undirected edge once, from
    # the earlier of its two rows (a later row's entry: its mirror's turn)
    when = np.arange(cols.shape[0])
    if not graph.directed:
        key, back = rows * n + cols, rows > cols
        by_key = np.argsort(key)
        when[back] = by_key[np.searchsorted(key, cols[back] * n + rows[back],
                                            sorter=by_key)]
    tails, heads = part[rows], part[cols]
    cut = np.flatnonzero(tails != heads)
    cut = cut[np.argsort(when[cut], kind="stable")]
    head, tail_fid = cols[cut], tails[cut]

    def first_seen(ids: np.ndarray) -> List[int]:
        return ids[np.sort(np.unique(ids, return_index=True)[1])].tolist()

    fragments = []
    for fid in range(m):
        owned = set(itertools.compress(keys, (fids == fid).tolist()))
        ids = list(map(base.id_of.__getitem__, owned))
        ids += first_seen(head[tail_fid == fid])
        local = np.empty(n, dtype=np.int64)
        local[ids] = np.arange(len(ids))
        sel = np.flatnonzero((tails == fid) | (not graph.directed)
                             & (heads == fid))
        at = local[rows[sel]]
        order = np.argsort(at * cols.shape[0] + when[sel])  # keys unique
        sel, nodes = sel[order], [node_of[i] for i in ids]
        snap = CSRGraph.from_arrays(
            directed=graph.directed, node_of=nodes,
            indptr=np.searchsorted(at[order], np.arange(len(ids) + 1)),
            indices=local[cols[sel]], weights=base.weights[sel],
            labels=[base.labels[i] for i in ids])
        labels = {e: lbl for e, lbl in graph._edge_labels.items()
                  if assignment[e[0]] == fid or not graph.directed
                  and assignment[e[1]] == fid}
        frag = Fragment(fid, snap.to_graph(labels), owned, {
            node_of[i] for i in first_seen(head[part[head] == fid])},
            set(nodes[len(owned):]))
        frag.install_csr(snap)
        fragments.append(frag)
    return Fragmentation(graph, fragments, strategy_name=strategy_name)


def build_vertex_cut_fragments(graph: Graph,
                               edge_assignment: Mapping[Tuple[Node, Node], int],
                               num_fragments: int,
                               strategy_name: str = "vertex-cut") -> Fragmentation:
    """Materialize vertex-cut fragments from an edge assignment.

    Each node is replicated in every fragment holding one of its edges; its
    *master* (owner) is the lowest such fragment id.  Replicated nodes are
    both entry and exit vertices, so they populate ``inner`` on the master
    and ``outer`` on the replicas.
    """
    locals_: List[Graph] = [Graph(directed=graph.directed)
                            for _ in range(num_fragments)]
    present: Dict[Node, Set[int]] = {}

    for u, v, w in graph.edges():
        fid = edge_assignment[(u, v)]
        if not 0 <= fid < num_fragments:
            raise ValueError(f"fragment id {fid} out of range")
        locals_[fid].add_node(u, graph.node_label(u))
        locals_[fid].add_node(v, graph.node_label(v))
        locals_[fid].add_edge(u, v, weight=w, label=graph.edge_label(u, v))
        present.setdefault(u, set()).add(fid)
        present.setdefault(v, set()).add(fid)

    # Isolated nodes go to fragment 0.
    for v in graph.nodes():
        if v not in present:
            locals_[0].add_node(v, graph.node_label(v))
            present[v] = {0}

    owned: List[Set[Node]] = [set() for _ in range(num_fragments)]
    inner: List[Set[Node]] = [set() for _ in range(num_fragments)]
    outer: List[Set[Node]] = [set() for _ in range(num_fragments)]
    for v, fids in present.items():
        master = min(fids)
        owned[master].add(v)
        if len(fids) > 1:
            inner[master].add(v)
            for fid in fids:
                if fid != master:
                    outer[fid].add(v)

    fragments = [Fragment(fid, locals_[fid], owned[fid], inner[fid],
                          outer[fid]) for fid in range(num_fragments)]
    return Fragmentation(graph, fragments, strategy_name=strategy_name)


def cut_edges(graph: Graph, assignment: Mapping[Node, int]) -> int:
    """Number of edges crossing fragments under a node assignment."""
    return sum(1 for u, v, _w in graph.edges()
               if assignment[u] != assignment[v])


def replication_factor(fragmentation: Fragmentation) -> float:
    """Average number of fragments holding each node (1.0 = no copies)."""
    total = sum(frag.num_nodes for frag in fragmentation)
    n = fragmentation.graph.num_nodes
    return total / n if n else 1.0
