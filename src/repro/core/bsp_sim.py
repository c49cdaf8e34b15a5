"""BSP-on-GRAPE compiler (Simulation Theorem 2(1), paper Section 4.2).

Any BSP algorithm with ``n`` workers and ``t`` supersteps runs on GRAPE
with ``n`` workers in ``t`` supersteps and identical messages: ``PEval``
performs the first BSP superstep, ``IncEval`` the later ones, and message
routing uses GRAPE's designated-message channel with the coordinator as
synchronization router.

Users supply a :class:`BSPProgram`; :func:`run_bsp_on_grape` compiles and
executes it.  A worker is stepped only while messages are in flight —
i.e. workers implicitly vote to halt by sending nothing, and are woken by
incoming messages (Pregel's halting convention).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.engine import GrapeEngine, GrapeResult
from repro.core.pie import ParamUpdates, PIEProgram
from repro.graph.graph import Graph
from repro.partition.base import Fragment, Fragmentation, \
    build_edge_cut_fragments

__all__ = ["BSPProgram", "BSPOnGrape", "run_bsp_on_grape"]


class BSPProgram(abc.ABC):
    """A user BSP algorithm: local compute + outgoing messages per step."""

    @abc.abstractmethod
    def init(self, worker_id: int, num_workers: int, data: Any) -> Any:
        """Create the worker-local state from its input slice."""

    @abc.abstractmethod
    def superstep(self, worker_id: int, step: int, state: Any,
                  incoming: List[Any]) -> Dict[int, List[Any]]:
        """One BSP superstep; returns outgoing messages per destination."""

    @abc.abstractmethod
    def output(self, worker_id: int, state: Any) -> Any:
        """The worker's final output."""


@dataclass
class _BSPState:
    user: Any = None
    step: int = 0
    inbox: List[Any] = field(default_factory=list)
    outbox: Dict[int, List[Any]] = field(default_factory=dict)


class BSPOnGrape(PIEProgram):
    """The compiled PIE program wrapping a :class:`BSPProgram`.

    Query: ``(bsp_program, data_slices)`` with one input slice per worker.
    """

    name = "BSP-on-GRAPE"

    def __init__(self, num_workers: int):
        self.num_workers = num_workers

    def init_state(self, query, fragment: Fragment) -> _BSPState:
        bsp, data = query
        state = _BSPState()
        state.user = bsp.init(fragment.fid, self.num_workers,
                              data[fragment.fid])
        return state

    def peval(self, query, fragment: Fragment, state: _BSPState) -> None:
        bsp, _data = query
        state.outbox = bsp.superstep(fragment.fid, 0, state.user, [])
        state.step = 1

    def inceval(self, query, fragment: Fragment, state: _BSPState,
                message: ParamUpdates) -> None:
        bsp, _data = query
        incoming, state.inbox = state.inbox, []
        state.outbox = bsp.superstep(fragment.fid, state.step, state.user,
                                     incoming)
        state.step += 1

    def drain_messages(self, query, fragment: Fragment,
                       state: _BSPState) -> Tuple[Dict[int, list], list]:
        out, state.outbox = state.outbox, {}
        return {dest: msgs for dest, msgs in out.items() if msgs}, []

    def deliver_designated(self, query, fragment: Fragment,
                           state: _BSPState, payloads: list) -> None:
        state.inbox.extend(payloads)

    def read_update_params(self, query, fragment: Fragment,
                           state: _BSPState) -> ParamUpdates:
        return {}

    def assemble(self, query, fragmentation: Fragmentation,
                 states: Dict[int, _BSPState]) -> List[Any]:
        bsp, _data = query
        return [bsp.output(frag.fid, states[frag.fid].user)
                for frag in fragmentation]


def _dummy_fragmentation(num_workers: int) -> Fragmentation:
    """One isolated node per worker — BSP needs no graph structure."""
    g = Graph(directed=True)
    for w in range(num_workers):
        g.add_node(w)
    assignment = {w: w for w in range(num_workers)}
    return build_edge_cut_fragments(g, assignment, num_workers,
                                    strategy_name="bsp-workers")


def run_bsp_on_grape(bsp: BSPProgram, data_slices: Sequence[Any], *,
                     max_supersteps: int = 100_000) -> GrapeResult:
    """Compile and run a BSP program on GRAPE.

    ``data_slices[i]`` is worker ``i``'s input.  The result's ``answer`` is
    the list of per-worker outputs; ``metrics.supersteps`` matches the BSP
    superstep count (Theorem 2(1): no extra cost per superstep).
    """
    num_workers = len(data_slices)
    engine = GrapeEngine(num_workers, max_supersteps=max_supersteps)
    fragmentation = _dummy_fragmentation(num_workers)
    return engine.run(BSPOnGrape(num_workers), (bsp, list(data_slices)),
                      fragmentation=fragmentation)
