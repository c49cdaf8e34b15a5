"""MapReduce-on-GRAPE compiler (Simulation Theorem 2(2), paper Section 4.2
and Appendix A).

A MapReduce job with ``R`` map-shuffle-reduce rounds runs on GRAPE in
``2R`` supersteps via the key-value message channel:

* round 1's map phase is ``PEval``;
* ``IncEval`` alternates — odd supersteps run the reducer over the shuffled
  key groups, even supersteps run the next round's mapper over the local
  reduce outputs (the coordinator's shuffle already placed each key group
  where the corresponding next-round mapper lives);
* ``Assemble`` takes the union of the final reduce outputs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.core.engine import GrapeEngine, GrapeResult
from repro.core.pie import ParamUpdates, PIEProgram
from repro.graph.graph import Graph
from repro.partition.base import Fragment, Fragmentation, \
    build_edge_cut_fragments

__all__ = ["MapReduceJob", "MapReduceOnGrape", "run_mapreduce_on_grape"]

KV = Tuple[Hashable, Any]


class MapReduceJob(abc.ABC):
    """A user MapReduce job: ``map_fn``/``reduce_fn`` plus a round count."""

    #: number of map-shuffle-reduce rounds
    num_rounds: int = 1

    @abc.abstractmethod
    def map_fn(self, round_index: int, key: Hashable,
               value: Any) -> Iterable[KV]:
        """The mapper for ``round_index`` (1-based)."""

    @abc.abstractmethod
    def reduce_fn(self, round_index: int, key: Hashable,
                  values: List[Any]) -> Iterable[KV]:
        """The reducer for ``round_index`` (1-based)."""


@dataclass
class _MRState:
    """Worker-local state.

    Key-value pairs are tagged with their round — ``((round, key), value)``
    — so a reducer always knows which round's reduce function to apply, no
    matter how the shuffle interleaves worker activations.
    """

    round: int = 1
    pending_input: List[KV] = field(default_factory=list)
    delivered: Dict[Hashable, List[Any]] = field(default_factory=dict)
    out_kv: List[KV] = field(default_factory=list)
    wake: Dict[int, list] = field(default_factory=dict)
    final: List[KV] = field(default_factory=list)


class MapReduceOnGrape(PIEProgram):
    """The compiled PIE program wrapping a :class:`MapReduceJob`.

    Query: ``(job, input_slices)`` — one list of ``(key, value)`` records
    per worker, mirroring the job's input distribution over mappers.
    """

    name = "MapReduce-on-GRAPE"

    def init_state(self, query, fragment: Fragment) -> _MRState:
        _job, slices = query
        state = _MRState()
        state.pending_input = list(slices[fragment.fid])
        return state

    def peval(self, query, fragment: Fragment, state: _MRState) -> None:
        job, _slices = query
        self._run_map(job, state)

    def inceval(self, query, fragment: Fragment, state: _MRState,
                message: ParamUpdates) -> None:
        job, _slices = query
        groups, state.delivered = state.delivered, {}
        if groups:
            # Reduce each delivered group with the round recorded in its
            # tag (robust to interleaved worker activations).
            by_round: Dict[int, Dict[Hashable, List[Any]]] = {}
            for (round_index, key), values in groups.items():
                by_round.setdefault(round_index, {})[key] = values
            for round_index in sorted(by_round):
                outputs: List[KV] = []
                round_groups = by_round[round_index]
                for key in sorted(round_groups, key=repr):
                    outputs.extend(job.reduce_fn(round_index, key,
                                                 round_groups[key]))
                if round_index < job.num_rounds:
                    state.round = round_index + 1
                    state.pending_input.extend(outputs)
                    if outputs:
                        # Wake ourselves to run the next round's mapper.
                        state.wake = {fragment.fid: ["map-wake"]}
                else:
                    state.final.extend(outputs)
        elif state.pending_input:
            self._run_map(job, state)

    def _run_map(self, job: MapReduceJob, state: _MRState) -> None:
        emitted: List[KV] = []
        for key, value in state.pending_input:
            emitted.extend(job.map_fn(state.round, key, value))
        state.pending_input = []
        state.out_kv = [((state.round, key), value)
                        for key, value in emitted]

    # -- message plumbing ------------------------------------------------
    def drain_messages(self, query, fragment: Fragment,
                       state: _MRState) -> Tuple[Dict[int, list], list]:
        wake, state.wake = state.wake, {}
        out, state.out_kv = state.out_kv, []
        return wake, out

    def deliver_designated(self, query, fragment: Fragment, state: _MRState,
                           payloads: list) -> None:
        """Only the self-addressed map-phase wake tokens arrive here; the
        pending input they announce is already in local state."""

    def deliver_keyvalue(self, query, fragment: Fragment, state: _MRState,
                         groups: Dict[Hashable, list]) -> None:
        for key, values in groups.items():
            state.delivered.setdefault(key, []).extend(values)

    def read_update_params(self, query, fragment: Fragment,
                           state: _MRState) -> ParamUpdates:
        return {}

    def assemble(self, query, fragmentation: Fragmentation,
                 states: Dict[int, _MRState]) -> List[KV]:
        result: List[KV] = []
        for frag in fragmentation:
            result.extend(states[frag.fid].final)
        return result


def _worker_fragmentation(num_workers: int) -> Fragmentation:
    g = Graph(directed=True)
    for w in range(num_workers):
        g.add_node(w)
    assignment = {w: w for w in range(num_workers)}
    return build_edge_cut_fragments(g, assignment, num_workers,
                                    strategy_name="mr-workers")


def run_mapreduce_on_grape(job: MapReduceJob,
                           input_slices: Sequence[Sequence[KV]]
                           ) -> GrapeResult:
    """Compile and run a MapReduce job on GRAPE.

    ``input_slices[i]`` holds worker ``i``'s input records.  The result's
    ``answer`` is the union of final reduce outputs; ``metrics.supersteps``
    is at most ``2 * job.num_rounds`` (Theorem 2(2) optimality).
    """
    num_workers = len(input_slices)
    engine = GrapeEngine(num_workers)
    fragmentation = _worker_fragmentation(num_workers)
    return engine.run(MapReduceOnGrape(), (job, list(input_slices)),
                      fragmentation=fragmentation)
