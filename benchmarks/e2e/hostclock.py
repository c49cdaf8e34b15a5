"""Host-normalised timing for the end-to-end benchmark.

The dev box this repo is measured on is a 2-core shared VM whose speed
switches between modes for seconds at a time: a fixed pure-Python loop
that takes 8.8 ms in one five-second window takes 12.6 ms in the next.
Raw wall-clock medians of identical runs therefore drift 20-50%.  The
slowdown is uniform (Python bytecode and numpy kernels scale by the same
factor), so every timed operation here is bracketed by a small
benchmark-owned calibration kernel and reported as

    wall * CALIB_REF_MS / mean(calibration wall before, after)

i.e. in "ms at reference host speed": the time the operation would have
taken on a host where :func:`calib` takes exactly ``CALIB_REF_MS``.  The
raw wall time of every sample is kept too and reported as a diagnostic.

Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import gc
import os
import pickle
import platform
import statistics
import time
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

#: reference duration of one :func:`calib` call.  Fixed forever: changing
#: it rescales every committed number.
CALIB_REF_MS = 5.0

#: calibration calls on each side of a timed operation; the fastest call
#: of a side is that side's reading (spikes only ever add time)
CALIB_CALLS_PER_SIDE = 2

#: a run whose calibration readings spread wider than this (IQR as a
#: percentage of the median) is labelled ``host_noisy``
HOST_NOISY_IQR_PCT = 60.0

_CALIB_PY_ITEMS = 8200
_CALIB_NP_ITEMS = 186_000
_calib_rng = np.random.default_rng(12345)
_CALIB_IDX = _calib_rng.integers(0, 20_000, _CALIB_NP_ITEMS)
_CALIB_VAL = _calib_rng.random(_CALIB_NP_ITEMS)


def calib() -> float:
    """Run the calibration kernel once; returns its wall time in seconds.

    The mix mirrors what the measured program spends its time on: tuple
    keyed dict stores and per-entry ``pickle.dumps`` (the coordinator's
    fold and byte accounting), then a ``np.minimum.at`` scatter and a
    gather (the CSR kernels).  About 5 ms on the reference host.
    """
    start = time.perf_counter()
    table: Dict[Tuple[int, str], float] = {}
    for i in range(_CALIB_PY_ITEMS):
        table[(i, "d")] = float(i)
        pickle.dumps((i, "d"))
    out = np.full(20_000, np.inf)
    np.minimum.at(out, _CALIB_IDX, _CALIB_VAL)
    float(out[_CALIB_IDX].sum())
    return time.perf_counter() - start


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values: Sequence[float]) -> float:
    """The highest sample that still has a tenth of the samples beyond it
    — at least one, at most ten: with a hundred samples or more this is
    the highest percentile with ten samples beyond it, with fewer it is an
    honest lower one (the second highest of sixteen)."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0] if ordered else 0.0
    beyond = min(10, max(1, len(ordered) // 10))
    return ordered[len(ordered) - 1 - beyond]


class Span:
    """One benchmark-side span: a call into a layer of the program."""

    __slots__ = ("name", "op_id", "parent", "start_s", "end_s", "norm_ms")

    def __init__(self, name: str, op_id: int, parent: Optional[int],
                 start_s: float, end_s: float, norm_ms: float):
        self.name = name
        self.op_id = op_id
        self.parent = parent
        self.start_s = start_s
        self.end_s = end_s
        self.norm_ms = norm_ms

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "op": self.op_id, "parent": self.parent,
                "start_s": self.start_s, "end_s": self.end_s,
                "norm_ms": self.norm_ms}


class Bracket:
    """The operations timed between two calibration readings."""

    __slots__ = ("before", "done")

    def __init__(self, before: float):
        self.before = before
        self.done: List[Tuple[str, Any, float, float]] = []

    def run(self, metric: str, fn: Callable[[], Any], slot: Any = 0) -> Any:
        start = time.perf_counter()
        result = fn()
        self.done.append((metric, slot, start, time.perf_counter()))
        return result


class HostClock:
    """Times operations in reference-host milliseconds.

    Every bracket garbage-collects (outside the timed region; the
    collector stays enabled inside it), reads the calibration kernel,
    runs its operations, reads the kernel again and files one sample per
    operation under ``(metric, slot)``: the raw wall time and the
    normalised time.  Each operation is also kept as a :class:`Span`
    (start, end, parent, op id) in memory for the trace file.
    """

    def __init__(self, calls_per_side: int = CALIB_CALLS_PER_SIDE) -> None:
        self.calls_per_side = calls_per_side
        self.epoch = time.perf_counter()
        self.norm: Dict[str, Dict[Any, List[float]]] = {}
        self.raw: Dict[str, List[float]] = {}
        self.calib_ms: List[float] = []
        self.spans: List[Span] = []
        self._op_ids = 0
        #: op id of the open phase span; timed operations hang under it
        self.parent: Optional[int] = None
        #: normalised / raw of the latest sample: scales a duration the
        #: program measured itself inside that operation
        self.last_factor = 1.0

    def open_phase(self, name: str) -> Span:
        """Start a span that groups the operations timed until
        :meth:`close_phase`; phases do not nest."""
        self._op_ids += 1
        span = Span(name, self._op_ids, None,
                    time.perf_counter() - self.epoch, 0.0, 0.0)
        self.spans.append(span)
        self.parent = span.op_id
        return span

    def close_phase(self, span: Span) -> None:
        span.end_s = time.perf_counter() - self.epoch
        self.parent = None

    @contextmanager
    def bracket(self) -> Iterator["Bracket"]:
        """One calibration bracket: collect garbage, read the kernel, let
        the caller run operations through :meth:`Bracket.run`, read the
        kernel again, then file every operation's sample with the
        bracket's factor.  Operations that each take a few milliseconds
        share a bracket so the bracket does not cost more than they do."""
        gc.collect()
        bracket = Bracket(self._reading())
        try:
            yield bracket
        finally:
            self._file(bracket, self._reading())

    def _reading(self) -> float:
        return min(calib() for _ in range(self.calls_per_side))

    def timed(self, metric: str, fn: Callable[[], Any], *, slot: Any = 0
              ) -> Any:
        """Run ``fn`` once in a bracket of its own, file its sample under
        ``metric``/``slot`` and return its result.  An exception
        propagates and files nothing."""
        with self.bracket() as bracket:
            return bracket.run(metric, fn, slot)

    def _file(self, bracket: "Bracket", after: float) -> None:
        calib_s = (bracket.before + after) / 2.0
        self.last_factor = (CALIB_REF_MS / 1e3) / calib_s
        self.calib_ms.extend((bracket.before * 1e3, after * 1e3))
        for metric, slot, start, end in bracket.done:
            wall_ms = (end - start) * 1e3
            norm_ms = wall_ms * self.last_factor
            self.norm.setdefault(metric, {}).setdefault(slot, []).append(
                norm_ms)
            self.raw.setdefault(metric, []).append(wall_ms)
            self._op_ids += 1
            self.spans.append(Span(metric, self._op_ids, self.parent,
                                   start - self.epoch, end - self.epoch,
                                   norm_ms))

    # -- estimators ----------------------------------------------------
    def count(self, metric: str) -> int:
        return len(self.raw.get(metric, ()))

    def slot_median_mean(self, metric: str) -> float:
        """Mean over slots of the per-slot median normalised sample: each
        slot is one fixed input, so its median is that input's latency and
        the mean weighs every input equally however often it ran."""
        slots = self.norm.get(metric)
        if not slots:
            return 0.0
        return statistics.fmean(statistics.median(v) for v in slots.values())

    def median(self, metric: str) -> float:
        """Median normalised sample over all slots (for metrics whose
        every operation is a distinct input, e.g. update batches)."""
        slots = self.norm.get(metric)
        if not slots:
            return 0.0
        return statistics.median([x for v in slots.values() for x in v])

    def raw_summary(self, metric: str) -> Tuple[float, float, int]:
        """``(raw p50 ms, raw tail ms, sample count)`` — un-normalised."""
        values = self.raw.get(metric, [])
        if not values:
            return 0.0, 0.0, 0
        return statistics.median(values), tail(values), len(values)

    def calib_stats(self) -> Dict[str, float]:
        values = self.calib_ms or [calib() * 1e3 for _ in range(5)]
        return {"calib_p50_ms": statistics.median(values),
                "calib_iqr_pct": 100.0 * iqr_share(values),
                "calib_samples": len(values)}


def host_fingerprint() -> Dict[str, Any]:
    """What a reader needs to judge whether two result files compare."""
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "calib_ref_ms": CALIB_REF_MS,
    }
