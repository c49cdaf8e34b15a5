"""The coordinator's share of a superstep: fold, compose, price.

Paper Sections 3.2(3) and 6: between supersteps the coordinator folds the
update parameters the workers reported into one value per parameter with
the program's ``aggregateMsg``, deduces from ``G_P`` which fragments must
hear about each changed value, groups those into one message per
destination ("dynamic grouping"), and accounts the traffic both ways.
That is meant to be negligible next to PEval / IncEval, so it lives here
as one small object with two representations of the same protocol:

* :class:`DictCoordinator` — the generic plane.  Parameters are
  ``{(node, name): value}`` dicts, folded key by key through
  :meth:`~repro.core.aggregators.Aggregator.combine`.  Serves every
  program (Sim, SubIso, CF, the simulation compilers, ``use_csr=False``),
  non-integer node labels, GRAPE-NI and the maintenance rounds of
  :class:`~repro.core.updates.ContinuousQuerySession` (whose bounded
  rebaseline edits the per-key tables).
* :class:`ArrayCoordinator` — the array plane, for programs that declare
  a :class:`~repro.core.pie.BlockSpec` on fragmentations that have a
  :class:`~repro.partition.base.BorderIndex`.  Reports and messages are
  :class:`~repro.runtime.wire.ParamBlock` arrays; the table is one row
  per border node, folded with the aggregator's ufunc, diffed by array
  compare and routed by gathers against the holder table.

Both produce the same messages entry for entry, hence the same
supersteps, message counts and — through the closed-form wire model of
:mod:`repro.runtime.wire` — the same ``comm_bytes``.
:func:`make_coordinator` picks the plane from what the program and the
fragmentation support; no flag selects it.

A coordinator is driven by :class:`~repro.core.fixpoint.Fixpoint` — the
one superstep every caller shares — and nobody else folds or composes.
Every coordinator accumulates always-on phase timers (``fold_s``,
``compose_s``, ``accounting_s``); :meth:`Coordinator.drain_timers` moves
them into a :class:`~repro.runtime.metrics.RunMetrics`.

``reported`` (what each fragment last reported) is the history of the
monotonic condition (Section 4.1): with ``check`` on, a report moving a
parameter back against the aggregator's order raises
:exc:`MonotonicityViolation` before it overwrites the entry.
"""

from __future__ import annotations

import abc
import time
from typing import Any, Dict, Optional, Set, Tuple

import numpy as np

from repro.core.pie import ParamKey, ParamUpdates, PIEProgram
from repro.graph.csr import edge_positions
from repro.partition.base import BorderIndex, Fragmentation
from repro.runtime.metrics import RunMetrics
from repro.runtime.wire import ParamBlock, params_bytes

__all__ = ["ArrayCoordinator", "Coordinator", "DictCoordinator",
           "MonotonicityViolation", "make_coordinator"]

#: one fragment's post-step report: ``("changed" | "full", dict)`` on the
#: dict plane, ``("block", ParamBlock or None)`` on the array plane
Report = Tuple[str, Any]


class MonotonicityViolation(RuntimeError):
    """A fragment reported an update parameter that moved against the
    aggregator's partial order (paper Section 4.1)."""


class Coordinator(abc.ABC):
    """Fold reports, compose messages, price traffic — for one run."""

    #: whether workers report and receive array blocks (sets
    #: :attr:`~repro.runtime.executors.StepCommand.blocks`)
    blocks: bool = False

    def __init__(self, program: PIEProgram, fragmentation: Fragmentation,
                 check: bool = False):
        self.program = program
        self.fragmentation = fragmentation
        self.check = check
        self._width = program.param_width
        self.fold_s = 0.0
        self.compose_s = 0.0
        self.accounting_s = 0.0

    def price(self, payload: Any) -> int:
        """Charged bytes of one report or message (dict or block)."""
        start = time.perf_counter()
        size = params_bytes(payload, self._width)
        self.accounting_s += time.perf_counter() - start
        return size

    def price_tombstones(self, keys: Any) -> int:
        """Charged bytes of key-only retractions."""
        return self.price(keys) if self._width is None \
            else params_bytes(keys, 0)

    def fold(self, reports: Dict[int, Report], *,
             first_round: bool = False) -> Tuple[int, int, Any]:
        """Fold one report per fragment into the table.

        Returns ``(bytes, messages, dirty)``: the charged upstream
        traffic and the parameters whose aggregated value moved, in the
        form :meth:`compose` takes.
        """
        start = time.perf_counter()
        priced = self.accounting_s
        result = self._fold(reports, first_round)
        self.fold_s += (time.perf_counter() - start
                        - (self.accounting_s - priced))
        return result

    def compose(self, dirty: Any) -> Dict[int, Any]:
        """One message per destination fragment holding a ``dirty``
        parameter, destinations deduced from ``G_P`` (paper 3.2(3));
        a fragment that itself reported the aggregated value is not
        told again."""
        start = time.perf_counter()
        messages = self._compose(dirty)
        self.compose_s += time.perf_counter() - start
        return messages

    @abc.abstractmethod
    def _fold(self, reports: Dict[int, Report],
              first_round: bool) -> Tuple[int, int, Any]:
        ...

    @abc.abstractmethod
    def _compose(self, dirty: Any) -> Dict[int, Any]:
        ...

    def snapshot(self) -> Dict[str, Any]:
        """The tables (``reported`` and ``table``, dicts or arrays by
        plane), for a checkpoint; the arbitrator copies them."""
        return {"reported": self.reported, "table": self.table}

    def restore(self, snap: Dict[str, Any]) -> None:
        """Adopt tables a checkpoint handed back."""
        self.reported = snap["reported"]
        self.table = snap["table"]

    def drain_timers(self, metrics: RunMetrics) -> None:
        """Move the accumulated phase times into ``metrics``."""
        metrics.fold_s += self.fold_s
        metrics.compose_s += self.compose_s
        metrics.accounting_s += self.accounting_s
        self.fold_s = self.compose_s = self.accounting_s = 0.0


class DictCoordinator(Coordinator):
    """The generic plane: ``{(node, name): value}`` dicts, key by key.

    ``reported[fid]`` holds the values fragment ``fid`` last reported,
    ``table`` the aggregate per key.  Both are plain attributes:
    :class:`~repro.core.updates.ContinuousQuerySession` re-baselines
    them after a bounded reset.
    """

    def __init__(self, program: PIEProgram, fragmentation: Fragmentation,
                 check: bool = False):
        super().__init__(program, fragmentation, check)
        self.reported: Dict[int, ParamUpdates] = {
            f.fid: {} for f in fragmentation.fragments}
        self.table: Dict[ParamKey, Any] = {}

    def _fold(self, reports, first_round):
        """A ``("changed", params)`` report (the incremental protocol of
        :meth:`~repro.core.pie.PIEProgram.read_changed_params`) is folded
        directly; a ``("full", params)`` report is diffed against the
        fragment's last report first."""
        agg = self.program.aggregator
        table, reported = self.table, self.reported
        dirty: Set[ParamKey] = set()
        up_bytes = 0
        up_msgs = 0
        for fid in sorted(reports):
            kind, params = reports[fid]
            prev = reported[fid]
            changed = params if kind == "changed" else {
                k: v for k, v in params.items()
                if k not in prev or prev[k] != v}
            if self.check:
                self.check_report(fid, prev, changed)
            if kind == "full":
                reported[fid] = params
            elif changed:
                prev.update(changed)
            if not changed:
                continue
            up_bytes += self.price(changed)
            up_msgs += 1
            for key, value in changed.items():
                if key in table:
                    old = table[key]
                    merged = agg.combine(old, value)
                    if agg.is_progress(old, merged) or (
                            first_round and merged != old):
                        table[key] = merged
                        dirty.add(key)
                else:
                    table[key] = value
                    dirty.add(key)
        return up_bytes, up_msgs, dirty

    def check_report(self, fid: int, prev: ParamUpdates,
                     changed: ParamUpdates) -> None:
        """Every key ``fid`` reported before must not fall behind."""
        behind = self.program.aggregator.is_progress
        for key, value in changed.items():
            if key in prev and behind(value, prev[key]):
                raise MonotonicityViolation(
                    f"fragment {fid} moved {key[1]!r} of node {key[0]!r} "
                    f"from {prev[key]!r} → {value!r}, against the order")

    def _compose(self, dirty):
        gp = self.fragmentation.gp
        table, reported = self.table, self.reported
        to_owner = self.program.route_to == "owner"
        messages: Dict[int, ParamUpdates] = {}
        for key in dirty:
            node, _name = key
            value = table[key]
            if node not in gp:
                continue
            dests = (gp.owner(node),) if to_owner else gp.holders(node)
            for dest in dests:
                # Skip fragments already holding this exact value.
                if reported[dest].get(key) == value:
                    continue
                messages.setdefault(dest, {})[key] = value
        return messages


class ArrayCoordinator(Coordinator):
    """The array plane: one table row per border node.

    ``table[b]`` is the aggregate of border id ``b`` and
    ``reported[fid, b]`` what fragment ``fid`` last reported for it, both
    initialised to the spec's neutral value (an unreported parameter).
    Per-source programs (PageRank) keep no tables at all: every entry
    has one writer and always advances, so a round's reports *are* its
    dirty set and composing is a routing of each block by owner; the
    monotonic check skips them (the round orders each entry).
    """

    blocks = True

    def __init__(self, program: PIEProgram, fragmentation: Fragmentation,
                 index: BorderIndex, check: bool = False):
        super().__init__(program, fragmentation, check)
        spec = program.block_spec
        self._index = index
        self._per_source = spec.per_source
        self._ufunc = program.aggregator.ufunc
        self._to_owner = program.route_to == "owner"
        self.table: Optional[np.ndarray] = None
        self.reported: Optional[np.ndarray] = None
        if not spec.per_source:
            self.table = np.full(len(index), spec.neutral, dtype=spec.dtype)
            self.reported = np.full(
                (len(fragmentation.fragments), len(index)), spec.neutral,
                dtype=spec.dtype)

    def _fold(self, reports, first_round):
        blocks = [(fid, reports[fid][1]) for fid in sorted(reports)
                  if reports[fid][1] is not None]
        up_bytes = sum(self.price(block) for _fid, block in blocks)
        if self._per_source:
            return up_bytes, len(blocks), blocks
        index, table, reported = self._index, self.table, self.reported
        before = table.copy()
        for fid, block in blocks:
            ids = index.ids_of(block.ids)
            if self.check:
                self.check_report(fid, reported[fid, ids], block)
            reported[fid, ids] = block.vals
            self._ufunc.at(table, ids, block.vals)
        return up_bytes, len(blocks), np.flatnonzero(table != before)

    def check_report(self, fid: int, old: np.ndarray,
                     block: ParamBlock) -> None:
        """Every value of ``block`` must advance or keep ``old``."""
        behind = self._ufunc(old, block.vals) != block.vals
        if behind.any():
            i = int(np.argmax(behind))
            raise MonotonicityViolation(
                f"fragment {fid} moved node {block.ids[i]} from {old[i]} → "
                f"{block.vals[i]}, against the order")

    def _compose(self, dirty):
        if self._per_source:
            return self._route_by_owner(dirty)
        if not dirty.size:
            return {}
        index = self._index
        if self._to_owner:
            ids, dest = dirty, index.owner[dirty]
        else:
            starts = index.holder_ptr[dirty]
            counts = index.holder_ptr[dirty + 1] - starts
            ids = np.repeat(dirty, counts)
            dest = index.holder_fid[edge_positions(starts, counts)]
        vals = self.table[ids]
        # Skip fragments already holding this exact value.
        news = self.reported[dest, ids] != vals
        ids, dest, vals = ids[news], dest[news], vals[news]
        messages: Dict[int, ParamBlock] = {}
        for fid in np.unique(dest).tolist():
            mine = dest == fid
            messages[fid] = ParamBlock(index.nodes[ids[mine]], vals[mine])
        return messages

    def _route_by_owner(self, blocks) -> Dict[int, ParamBlock]:
        """The round's blocks, in source order, split by the owner of
        each entry with one stable sort: a message lists its entries by
        source, then in block order."""
        if not blocks:
            return {}
        ids, vals = (np.concatenate([getattr(block, name) for _src, block
                                     in blocks]) for name in ("ids", "vals"))
        src = np.repeat(np.array([src for src, _block in blocks]),
                        [len(block) for _src, block in blocks])
        dest = self._index.owner[self._index.ids_of(ids)]
        order = np.argsort(dest, kind="stable")
        return {fid: ParamBlock(ids[mine], vals[mine], src[mine])
                for fid, mine in enumerate(np.split(order, np.cumsum(
                    np.bincount(dest))[:-1])) if mine.size}


#: each block hook and the dict hooks it stands in for
_BLOCK_HOOKS = (("inceval_block", ("inceval",)),
                ("read_changed_block", ("read_changed_params",
                                        "read_update_params")))


def _block_hooks_current(program: PIEProgram) -> bool:
    """Whether the program's block hooks are at least as derived as the
    dict hooks they replace.  A subclass that overrides only ``inceval``
    (to instrument it, say) expects that override to run; it stays on
    the dict plane until it overrides ``inceval_block`` too."""
    mro = type(program).__mro__

    def depth(name: str) -> int:
        return next(i for i, cls in enumerate(mro) if name in vars(cls))

    return all(depth(block) <= depth(plain)
               for block, plains in _BLOCK_HOOKS for plain in plains)


def make_coordinator(program: PIEProgram, fragmentation: Fragmentation, *,
                     check: bool = False,
                     arrays: bool = True) -> Coordinator:
    """The coordinator for one run: the array plane whenever the program
    declares a block layout (and no subclass has customised the dict
    hooks underneath it) and the fragmentation has a border index, the
    dict plane otherwise (``arrays=False``: GRAPE-NI's dict-only
    ``apply_message``).  ``check`` turns the monotonic check on."""
    if (arrays and program.block_spec is not None
            and _block_hooks_current(program)):
        index = fragmentation.border_index()
        if index is not None:
            return ArrayCoordinator(program, fragmentation, index, check)
    return DictCoordinator(program, fragmentation, check)
