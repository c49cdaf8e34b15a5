"""Reflection regression: absorb must carry EVERY counter.

Historic bug class: a new RunMetrics field gets added, a hand-written
field list is not updated, and batch/watch accounting silently drops
the counter.  The combination of ``_classify_fields`` (every field must
be special, gauge, histogram, or additive) and this test (every numeric
field gets a distinct value and must survive absorb, on a copy and in
place) makes that failure impossible to reintroduce quietly.
"""

import copy
import dataclasses

import pytest

from repro.obs.registry import Histogram
from repro.runtime.metrics import (RunMetrics, _GAUGE_FIELDS,
                                   _RUN_ADDITIVE_FIELDS,
                                   _RUN_HISTOGRAM_FIELDS, _SPECIAL_FIELDS)


def _populated(offset):
    """A RunMetrics with a distinct nonzero value in every field."""
    m = RunMetrics(backend="thread")
    for i, f in enumerate(dataclasses.fields(m)):
        value = getattr(m, f.name)
        if f.name in _SPECIAL_FIELDS:
            continue
        if isinstance(value, Histogram):
            value.observe(0.001 * (offset + i + 1))
        elif isinstance(value, float):
            setattr(m, f.name, float(offset + i) + 0.25)
        elif isinstance(value, int):
            setattr(m, f.name, offset + i + 1)
    m.per_superstep.append({"max_worker_s": float(offset)})
    return m


def test_every_field_is_classified():
    """No RunMetrics field may fall through the classification."""
    classified = (set(_SPECIAL_FIELDS) | set(_GAUGE_FIELDS)
                  | set(_RUN_ADDITIVE_FIELDS) | set(_RUN_HISTOGRAM_FIELDS))
    for f in dataclasses.fields(RunMetrics):
        assert f.name in classified, f.name


def test_absorb_on_a_copy_carries_every_counter():
    a, b = _populated(0), _populated(100)
    out = copy.deepcopy(a)
    out.absorb(b)
    for name in _RUN_ADDITIVE_FIELDS:
        assert getattr(out, name) == pytest.approx(
            getattr(a, name) + getattr(b, name)), name
    for name in _GAUGE_FIELDS:
        assert getattr(out, name) == max(getattr(a, name),
                                         getattr(b, name)), name
    for name in _RUN_HISTOGRAM_FIELDS:
        assert getattr(out, name).count == (getattr(a, name).count
                                            + getattr(b, name).count), name
        # the inputs keep their own histograms
        assert getattr(a, name).count == 1, name
    assert out.per_superstep == a.per_superstep + b.per_superstep
    assert out.backend == "thread"


def test_absorb_mixed_backend():
    a = _populated(0)
    b = _populated(0)
    b.backend = "process"
    a.absorb(b)
    assert a.backend == "mixed"


def test_absorb_mutates_in_place():
    a, b = _populated(0), _populated(100)
    before = {name: getattr(a, name)
              for name in _RUN_ADDITIVE_FIELDS + _GAUGE_FIELDS}
    hist_ref = a.worker_time_hist
    a.absorb(b)
    for name in _RUN_ADDITIVE_FIELDS:
        assert getattr(a, name) == pytest.approx(
            before[name] + getattr(b, name)), name
    for name in _GAUGE_FIELDS:
        assert getattr(a, name) == max(before[name],
                                       getattr(b, name)), name
    # in place: session metrics holders keep their reference
    assert a.worker_time_hist is hist_ref
    assert a.worker_time_hist.count == 2


def test_new_field_is_auto_carried():
    """Simulate next year's counter: a dynamically added int field is
    classified additive and survives absorb with no absorb() change."""
    fresh = dataclasses.make_dataclass(
        "FreshMetrics", [("new_counter", int, dataclasses.field(default=0))],
        bases=(RunMetrics,))
    from repro.runtime.metrics import _classify_fields
    additive, _hists = _classify_fields(fresh)
    assert "new_counter" in additive
