"""CREW PRAM-on-GRAPE simulation (Simulation Theorem 2(3), paper §4.2).

A CREW PRAM runs ``P`` processors against a shared memory; per unit step
each processor reads cells (concurrent reads allowed), computes, and
writes cells (exclusive writes — two writers to one cell in one step raise
:exc:`CREWViolation`).  Following the Karloff–Suri–Vassilvitskii
construction cited by the paper, the shared memory is sharded across GRAPE
workers and every PRAM step costs two supersteps:

* *serve* — memory shards apply the previous step's writes and answer the
  read requests delivered alongside them;
* *compute* — processors receive read replies, run one step of their
  program, and emit the next writes and read requests.

Workers host both a memory shard and a processor group; the incoming
message content (write/read vs. value records) tells each worker which
role to play, so no global phase variable is needed.  A ``t``-step PRAM
program therefore runs in ``O(t)`` GRAPE supersteps with ``O(P)`` total
memory — the theorem's bound.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.engine import GrapeEngine, GrapeResult
from repro.core.pie import ParamUpdates, PIEProgram
from repro.graph.graph import Graph
from repro.partition.base import Fragment, Fragmentation, \
    build_edge_cut_fragments

__all__ = ["PRAMProgram", "CREWViolation", "run_pram_on_grape"]


class CREWViolation(RuntimeError):
    """Two processors wrote the same cell in the same step (EW violation)."""


class PRAMProgram(abc.ABC):
    """A CREW PRAM program.

    Per step ``t`` of each live processor ``pid``: the simulator fetches
    the cells named by :meth:`plan_reads`, :meth:`step` computes with the
    fetched values and returns cells to write, and :meth:`done` decides
    halting.  ``local`` is processor-private scratch persisted across
    steps.
    """

    #: number of processors P
    num_processors: int

    #: upper bound on PRAM steps t (processors may halt earlier via done())
    num_steps: int

    @abc.abstractmethod
    def initial_memory(self) -> Dict[int, Any]:
        """Initial contents of the shared memory (address -> value)."""

    @abc.abstractmethod
    def plan_reads(self, pid: int, t: int) -> List[int]:
        """Addresses processor ``pid`` reads at step ``t``."""

    @abc.abstractmethod
    def step(self, pid: int, t: int, values: Dict[int, Any],
             local: dict) -> Dict[int, Any]:
        """Compute with the read ``values``; return address -> value writes."""

    def done(self, pid: int, t: int, local: dict) -> bool:
        """Whether processor ``pid`` has halted before executing step ``t``."""
        return t >= self.num_steps


# Message records: ("write", addr, pid, value), ("read", addr, pid) and
# ("value", addr, pid, value).  A step with no reads issues a dummy read of
# address None so every processor keeps the same two-superstep cadence.


@dataclass
class _PRAMState:
    memory: Dict[int, Any] = field(default_factory=dict)
    locals: Dict[int, dict] = field(default_factory=dict)   # pid -> scratch
    t: Dict[int, int] = field(default_factory=dict)         # pid -> step
    pending: List[tuple] = field(default_factory=list)
    outbox: Dict[int, list] = field(default_factory=dict)


class _PRAMOnGrape(PIEProgram):
    """Internal PIE program: each worker hosts a memory shard and the
    processors assigned to it."""

    name = "PRAM-on-GRAPE"

    def __init__(self, num_workers: int):
        self.num_workers = num_workers

    # -- sharding -------------------------------------------------------
    def _mem_owner(self, addr: int) -> int:
        return addr % self.num_workers

    def _proc_owner(self, pid: int) -> int:
        return pid % self.num_workers

    def _local_pids(self, fid: int, program: PRAMProgram) -> List[int]:
        return [pid for pid in range(program.num_processors)
                if self._proc_owner(pid) == fid]

    def _send(self, state: _PRAMState, dest: int, record: tuple) -> None:
        state.outbox.setdefault(dest, []).append(record)

    def _issue_reads(self, query: PRAMProgram, fid: int,
                     state: _PRAMState, pid: int, t: int) -> None:
        reads = query.plan_reads(pid, t)
        if not reads:
            # Dummy read: keeps the processor on the common cadence.
            reads = [None]
        for addr in reads:
            owner = self._mem_owner(addr) if addr is not None else fid
            self._send(state, owner, ("read", addr, pid))

    # -- PIE hooks --------------------------------------------------------
    def init_state(self, query: PRAMProgram,
                   fragment: Fragment) -> _PRAMState:
        state = _PRAMState()
        for addr, value in query.initial_memory().items():
            if self._mem_owner(addr) == fragment.fid:
                state.memory[addr] = value
        for pid in self._local_pids(fragment.fid, query):
            state.locals[pid] = {}
            state.t[pid] = 0
        return state

    def peval(self, query: PRAMProgram, fragment: Fragment,
              state: _PRAMState) -> None:
        for pid in self._local_pids(fragment.fid, query):
            if not query.done(pid, 0, state.locals[pid]):
                self._issue_reads(query, fragment.fid, state, pid, 0)

    def inceval(self, query: PRAMProgram, fragment: Fragment,
                state: _PRAMState, message: ParamUpdates) -> None:
        pending, state.pending = state.pending, []
        writes = [r for r in pending if r[0] == "write"]
        reads = [r for r in pending if r[0] == "read"]
        values = [r for r in pending if r[0] == "value"]
        if writes or reads:
            self._serve_memory(state, writes, reads)
        if values:
            self._run_processors(query, fragment, state, values)

    def _serve_memory(self, state: _PRAMState, writes: List[tuple],
                      reads: List[tuple]) -> None:
        """Writes of step t land before the reads of step t+1 are served."""
        writers: Dict[int, int] = {}
        for _kind, addr, pid, value in writes:
            if addr in writers and writers[addr] != pid:
                raise CREWViolation(
                    f"processors {writers[addr]} and {pid} both wrote "
                    f"cell {addr} in one step")
            writers[addr] = pid
            state.memory[addr] = value
        for _kind, addr, pid in reads:
            value = state.memory.get(addr) if addr is not None else None
            self._send(state, self._proc_owner(pid),
                       ("value", addr, pid, value))

    def _run_processors(self, query: PRAMProgram, fragment: Fragment,
                        state: _PRAMState, values: List[tuple]) -> None:
        by_pid: Dict[int, Dict[int, Any]] = {}
        woken: set = set()
        for _kind, addr, pid, value in values:
            woken.add(pid)
            if addr is not None:
                by_pid.setdefault(pid, {})[addr] = value
        for pid in sorted(woken):
            t = state.t[pid]
            if query.done(pid, t, state.locals[pid]):
                continue
            writes = query.step(pid, t, by_pid.get(pid, {}),
                                state.locals[pid])
            state.t[pid] = t + 1
            for addr, value in writes.items():
                self._send(state, self._mem_owner(addr),
                           ("write", addr, pid, value))
            if not query.done(pid, t + 1, state.locals[pid]):
                self._issue_reads(query, fragment.fid, state, pid, t + 1)

    # -- message plumbing -------------------------------------------------
    def drain_messages(self, query, fragment: Fragment,
                       state: _PRAMState) -> Tuple[Dict[int, list], list]:
        out, state.outbox = state.outbox, {}
        return out, []

    def deliver_designated(self, query, fragment: Fragment,
                           state: _PRAMState, payloads: list) -> None:
        state.pending.extend(payloads)

    def read_update_params(self, query, fragment: Fragment,
                           state: _PRAMState) -> ParamUpdates:
        return {}

    def assemble(self, query: PRAMProgram, fragmentation: Fragmentation,
                 states: Dict[int, _PRAMState]) -> Dict[int, Any]:
        """The final shared-memory contents."""
        memory: Dict[int, Any] = {}
        for frag in fragmentation:
            memory.update(states[frag.fid].memory)
        return memory


def run_pram_on_grape(program: PRAMProgram,
                      num_workers: int) -> GrapeResult:
    """Simulate a CREW PRAM program on GRAPE.

    Returns the final shared memory as the answer; superstep count is
    ``O(program.num_steps)`` per Theorem 2(3).
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    g = Graph(directed=True)
    for w in range(num_workers):
        g.add_node(w)
    fragmentation = build_edge_cut_fragments(
        g, {w: w for w in range(num_workers)}, num_workers,
        strategy_name="pram-workers")
    engine = GrapeEngine(num_workers)
    return engine.run(_PRAMOnGrape(num_workers), program,
                      fragmentation=fragmentation)
