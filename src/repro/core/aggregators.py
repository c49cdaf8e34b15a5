"""Conflict resolution for update parameters (``aggregateMsg``).

Paper Section 3.2: when multiple workers assign different values to the
same update parameter, the user-specified ``aggregateMsg`` resolves the
conflict — ``min`` for SSSP and CC, ``min`` over ``false ≺ true`` for Sim,
``max`` on timestamps for CF.  When none is given, GRAPE uses a default
exception handler (here: raise on genuine conflicts).

Aggregators also expose the *partial order* of the monotonic condition
(Section 4.1): :meth:`Aggregator.is_progress` says whether a new value
strictly advances the order, which the coordinator's fold and its
monotonic check rely on.
"""

from __future__ import annotations

import abc
from typing import Any, Iterable

import numpy as np

__all__ = [
    "Aggregator",
    "MinAggregator",
    "MaxAggregator",
    "LatestTimestampAggregator",
    "DefaultExceptionAggregator",
    "ConflictError",
]


class ConflictError(RuntimeError):
    """Raised by the default handler when workers disagree on a value."""


class Aggregator(abc.ABC):
    """Resolves conflicting values and defines the progress order."""

    #: the aggregator as a numpy ufunc over fixed-width scalar values, for
    #: the array-native coordinator (``ufunc.at`` folds a whole parameter
    #: block); ``None`` when :meth:`combine` has no elementwise equivalent
    ufunc = None

    @abc.abstractmethod
    def combine(self, a: Any, b: Any) -> Any:
        """Resolve two conflicting values into one."""

    @abc.abstractmethod
    def is_progress(self, old: Any, new: Any) -> bool:
        """True when ``new`` strictly advances the partial order from
        ``old`` (i.e. the update is monotonic and non-trivial)."""

    def fold(self, values: Iterable[Any]) -> Any:
        it = iter(values)
        try:
            acc = next(it)
        except StopIteration:
            raise ValueError("fold of no values") from None
        for v in it:
            acc = self.combine(acc, v)
        return acc


class MinAggregator(Aggregator):
    """Keep the smallest value (SSSP distances, CC component ids, and Sim
    status booleans with ``false ≺ true``)."""

    ufunc = np.minimum

    def combine(self, a: Any, b: Any) -> Any:
        return a if a <= b else b

    def is_progress(self, old: Any, new: Any) -> bool:
        return new < old


class MaxAggregator(Aggregator):
    """Keep the largest value."""

    ufunc = np.maximum

    def combine(self, a: Any, b: Any) -> Any:
        return a if a >= b else b

    def is_progress(self, old: Any, new: Any) -> bool:
        return new > old


class LatestTimestampAggregator(Aggregator):
    """Values are ``(timestamp, payload)``; keep the newest (CF factors).

    Ties keep the first operand, matching the paper's "upon receiving
    updated values (v.f', t') with t' > t, change v.f to v.f'".
    """

    def combine(self, a: Any, b: Any) -> Any:
        return b if b[0] > a[0] else a

    def is_progress(self, old: Any, new: Any) -> bool:
        return new[0] > old[0]


class DefaultExceptionAggregator(Aggregator):
    """The paper's default handler: identical values pass, conflicts raise."""

    def combine(self, a: Any, b: Any) -> Any:
        if a != b:
            raise ConflictError(
                f"conflicting values {a!r} and {b!r} with no aggregateMsg")
        return a

    def is_progress(self, old: Any, new: Any) -> bool:
        return new != old
