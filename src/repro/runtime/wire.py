"""The border-parameter wire format: array blocks and their byte model.

Update parameters of programs whose value is one fixed-width scalar per
border node travel as a :class:`ParamBlock` — parallel ``(ids, vals)``
arrays — instead of a ``{(node, name): value}`` dict.  ``ids`` are the
border nodes' integer labels: global and version-independent, so a block
means the same thing at the coordinator (which maps labels to dense
border ids through :class:`~repro.partition.base.BorderIndex`), inside a
pooled worker process (which maps them to its own snapshot's vertex ids
through :meth:`~repro.graph.csr.CSRGraph.ids_of`), and after a
checkpoint restore onto a fresh worker.

**Wire model.**  Communication volume is charged by one closed form,

    ``WIRE_HEADER + n * (ID_BYTES + width)``

for a message of ``n`` entries whose values are ``width`` bytes wide, the
width declared by the program (:attr:`~repro.core.pie.PIEProgram.param_width`).
The figure depends on nothing but ``n``, so it is ``O(1)`` per message,
identical for a block and for the dict carrying the same entries, and
identical across backends.  Payloads of programs that declare no width
(Sim's per-query-node booleans, CF's factor vectors, the simulation
compilers) are priced by one serialization of the whole message, grouped
by variable name with the pickle memo off — a function of the entries
alone, whatever order or process they arrived from (see
:func:`params_bytes`).
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

import numpy as np

from repro.runtime.metrics import message_bytes

__all__ = ["ID_BYTES", "WIRE_HEADER", "ParamBlock", "params_bytes",
           "vertex_message_bytes", "wire_bytes"]

#: bytes charged per message envelope (kind, source, destination, count)
WIRE_HEADER = 16
#: bytes charged per entry for the border node's id
ID_BYTES = 8


def wire_bytes(n: int, width: int) -> int:
    """Charged size of a message of ``n`` entries, ``width`` bytes of
    value each (``width=0``: key-only tombstones)."""
    return WIRE_HEADER + n * (ID_BYTES + width)


def vertex_message_bytes(payload: Any, width: Optional[int],
                         count: int = 1) -> int:
    """Charged size of ``count`` vertex-addressed messages of the
    baseline engines (:mod:`repro.baselines`), ``payload`` being what
    they would put on the wire.

    With a declared value ``width`` this is the same model GRAPE's
    parameters pay, applied to what those systems send: every message is
    its own envelope around one ``(vertex id, value)`` entry —
    ``wire_bytes(1, width)`` each — where GRAPE groups all entries for
    one destination behind a single envelope (the paper's dynamic
    grouping, Section 6).  Without a width the payload is pickled, one
    pickle per message, which charges a comparable envelope.
    """
    if width is not None:
        return count * wire_bytes(1, width)
    return message_bytes(payload)


class _ByteCounter:
    """A write-only file object that keeps the count, not the bytes."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def write(self, data) -> None:
        self.n += len(data)


def params_bytes(payload: Any, width: Optional[int]) -> int:
    """Charged size of one update-parameter message (dict or block).

    With a declared ``width`` this is :func:`wire_bytes` of the entry
    count.  Otherwise the message is serialized once, as the paper's
    grouped envelope: ``{name: [(node, value), ...]}``, each variable
    name written once per message.  Protocol 3 (no framing) with the
    memo off makes the size a sum over names and entries — independent
    of the order a set iteration produced them in, and of whether equal
    names are one object (in-process reports) or several (reports
    unpickled from different workers), which a memoizing pickle of the
    dict is not.
    """
    if width is not None:
        return wire_bytes(len(payload), width)
    grouped: Any = {}
    try:
        for (node, name), value in payload.items():
            grouped.setdefault(name, []).append((node, value))
    except (TypeError, ValueError):  # keys are not (node, name) pairs
        grouped = payload
    counter = _ByteCounter()
    pickler = pickle.Pickler(counter, protocol=3)
    pickler.fast = True
    pickler.dump(grouped)
    return counter.n


_INT32 = np.iinfo(np.int32)


def _pack(column: Optional[np.ndarray]):
    """``(dtype, raw bytes)`` of one column; int64 columns whose values
    fit travel as int32 (node labels and hop counts almost always do)."""
    if column is None:
        return None
    if column.dtype == np.int64 and (
            not column.size or (column.min() >= _INT32.min
                                and column.max() <= _INT32.max)):
        column = column.astype(np.int32)
    return column.dtype.str, column.tobytes()


def _unpack(*columns) -> "ParamBlock":
    arrays = []
    for packed in columns:
        if packed is None:
            arrays.append(None)
            continue
        array = np.frombuffer(packed[1], dtype=packed[0])
        arrays.append(array.astype(np.int64) if array.dtype == np.int32
                      else array)
    return ParamBlock(*arrays)


class ParamBlock:
    """Changed update parameters of one message, as parallel arrays.

    ``ids`` holds each entry's border node label (int64, unique within a
    block unless ``src`` tells entries apart), ``vals`` the values.  For
    programs whose parameters are written per source fragment
    (PageRank's cut-edge contributions) a composed message carries the
    writing fragment of every entry in ``src`` (int64).
    """

    __slots__ = ("ids", "vals", "src")

    def __init__(self, ids: np.ndarray, vals: np.ndarray,
                 src: Optional[np.ndarray] = None):
        self.ids = ids
        self.vals = vals
        self.src = src

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def __reduce__(self):
        # Raw buffers instead of ndarray pickles: a small block costs a
        # few dozen bytes of envelope on the pipe, where pickled arrays
        # cost a few hundred — no more than the dict it replaces.
        # Unpickled float columns are read-only views over the received
        # bytes; receivers only gather from them.
        return (_unpack, (_pack(self.ids), _pack(self.vals),
                          _pack(self.src)))

    def __repr__(self) -> str:
        return f"ParamBlock(n={len(self)}, dtype={self.vals.dtype})"
