"""Array-plane plumbing shared by the decrease-only programs (SSSP, BFS).

Both keep one value per vertex in a dense array beside a dict mirror,
report the values of their ``F_i.O`` copies and only ever lower them, so
reading a report and folding a relaxation's changes back into the mirror
are the same few lines for a float64 distance and an int64 hop count.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.partition.base import Fragment
from repro.runtime.wire import ParamBlock

__all__ = ["changed_outer_block", "mirror_changes"]


def changed_outer_block(fragment: Fragment, state: Any, values: np.ndarray,
                        neutral: Any) -> Optional[ParamBlock]:
    """The ``F_i.O`` entries of ``values`` that moved since the last
    report — a gather at the fragment's outer slots compared with
    ``state._sent`` — or ``None``.  Values only ever decrease and the
    ``neutral`` ("unreached") value is never shipped, so ``<`` finds
    exactly the entries the dict protocol's dirty set would name; that
    set is cleared, the array diff subsumes it."""
    state.dirty.clear()
    labels, vids = fragment.outer_slots()
    vals = values[vids]
    sent = state._sent
    changed = vals < (neutral if sent is None else sent)
    if not changed.any():
        return None
    state._sent = vals
    return ParamBlock(labels[changed], vals[changed])


def mirror_changes(mirror: Dict, csr, values: np.ndarray,
                   changed_ids: np.ndarray) -> None:
    """Copy the changed vertices' values into the dict mirror, which
    Assemble, a checkpoint restore onto another snapshot epoch and the
    session's maintenance rounds all read."""
    node_of = csr.node_of
    mirror.update(zip([node_of[i] for i in changed_ids.tolist()],
                      values[changed_ids].tolist()))
