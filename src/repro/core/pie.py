"""The PIE programming model: ``PEval``, ``IncEval``, ``Assemble``.

Paper Section 3: to parallelize a query class ``Q`` with GRAPE, a user
provides three *sequential* functions plus a small message preamble.  This
module defines that contract as an abstract base class; the concrete PIE
programs in :mod:`repro.pie_programs` wrap the untouched sequential
algorithms of :mod:`repro.sequential`.

The message machinery mirrors the paper:

* every program declares status variables over a *candidate set* ``C_i``
  of border nodes (``F_i.I`` or ``F_i.O``, optionally ``d``-hop extended);
* after each round the engine reads the variables back
  (:meth:`PIEProgram.read_update_params`), diffs them against the previous
  round, and ships only changed values — "GRAPE minimizes communication
  costs by passing only updated variable values";
* incoming values are resolved by the program's
  :attr:`~PIEProgram.aggregator` and handed to ``IncEval`` as the message
  ``M_i``.

Update-parameter keys are ``(node, name)`` pairs: ``node`` is the border
node the value is attached to (used for routing through ``G_P``), ``name``
distinguishes multiple variables on one node (e.g. Sim's per-query-node
booleans).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Hashable, NamedTuple, Optional, Set, Tuple

from repro.core.aggregators import Aggregator, DefaultExceptionAggregator
from repro.graph.graph import Graph, Node
from repro.partition.base import Fragment, Fragmentation
from repro.runtime.wire import ParamBlock

__all__ = ["BlockSpec", "Maintenance", "PIEProgram", "ParamKey",
           "ParamUpdates"]

# (border node, variable name) -> value
ParamKey = Tuple[Node, Hashable]
ParamUpdates = Dict[ParamKey, Any]


class BlockSpec(NamedTuple):
    """How a program's update parameters look as arrays (the array
    plane of :mod:`repro.core.coordinator`).

    ``dtype`` is the numpy dtype of one value and ``neutral`` the value
    an unreported parameter stands for (the aggregator's identity —
    ``inf`` for a min over distances).  ``per_source`` marks programs
    that attach one parameter per *(border node, writing fragment)*
    rather than one per border node (PageRank's cut-edge contributions):
    every entry has a single writer, so there is nothing to fold and the
    coordinator only routes.
    """

    dtype: Any
    neutral: Any
    per_source: bool = False


class PIEProgram(abc.ABC):
    """A PIE program for one query class ``Q``.

    Subclasses implement the three sequential functions and the message
    preamble.  All per-fragment mutable data lives in an opaque *state*
    object created by :meth:`init_state`; the engine never inspects it
    beyond deep-copying for checkpoints, (under the process backend)
    pickling it back for Assemble, and totalling an optional
    ``views_materialised`` count into ``RunMetrics``.

    **Pickle contract.**  Under ``backend="process"`` the program, the
    query and every fragment are shipped to pooled worker processes, and
    states are pulled back once for Assemble.  A program must therefore
    be defined at module level (not nested in a function) and keep its
    configuration and state free of unpicklable members — no locks, open
    handles, generators or lambdas; plain data, dataclasses and numpy
    arrays are all fine.  Every bundled program satisfies this (audited
    by ``tests/differential/test_pickle_contract.py``); an unpicklable
    program fails fast with
    :class:`~repro.runtime.executors.UnpicklableProgramError` when the
    process backend is selected.
    """

    #: human-readable query-class name ("SSSP", "Sim", ...)
    name: str = "abstract"

    #: conflict resolution for update parameters (the message segment's
    #: ``aggregateMsg``); paper default is the exception handler.
    aggregator: Aggregator = DefaultExceptionAggregator()

    #: wire model (:mod:`repro.runtime.wire`): bytes of one update-
    #: parameter value when every parameter is a fixed-width scalar —
    #: messages are then charged ``header + n * (8 + param_width)`` with
    #: no serialization at all.  ``None`` prices each message by one
    #: serialization of its payload.
    param_width: Optional[int] = None

    @property
    def block_spec(self) -> Optional[BlockSpec]:
        """The array layout of this program's update parameters, or
        ``None`` when it only speaks the dict protocol.

        A program returning a spec also implements
        :meth:`read_changed_block` and :meth:`inceval_block`; the engine
        then runs it on the array plane whenever the fragmentation has a
        :class:`~repro.partition.base.BorderIndex` — no flag selects it.
        """
        return None

    # ------------------------------------------------------------------
    # Message preamble
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def init_state(self, query: Any, fragment: Fragment) -> Any:
        """Declare and initialize status variables for a fragment.

        Runs once per fragment before ``PEval`` (the paper's variable
        declaration in the message preamble).
        """

    @abc.abstractmethod
    def read_update_params(self, query: Any, fragment: Fragment,
                           state: Any) -> ParamUpdates:
        """Current values of the update parameters ``C_i.x̄``.

        The engine diffs successive reads to find changed values; only
        those are shipped.
        """

    # ------------------------------------------------------------------
    # The three sequential functions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def peval(self, query: Any, fragment: Fragment, state: Any) -> None:
        """Partial evaluation: compute ``Q(F_i)`` on the local fragment."""

    @abc.abstractmethod
    def inceval(self, query: Any, fragment: Fragment, state: Any,
                message: ParamUpdates) -> None:
        """Incremental evaluation: compute ``Q(F_i ⊕ M_i)``.

        ``message`` maps update-parameter keys to their aggregated new
        values; the implementation applies them and propagates changes
        (reusing the previous round's partial result in ``state``).
        """

    @abc.abstractmethod
    def assemble(self, query: Any, fragmentation: Fragmentation,
                 states: Dict[int, Any]) -> Any:
        """Combine partial results into ``Q(G)``."""

    def read_changed_params(self, query: Any, fragment: Fragment,
                            state: Any) -> Optional[ParamUpdates]:
        """Update parameters that changed since the previous read.

        The incremental coordinator protocol: a program that tracks its
        own dirty keys (the sequential algorithms usually know exactly
        which status variables they touched) returns just those entries,
        and the engine folds them in directly instead of reading and
        diffing the full parameter dict every superstep.  Each call
        *consumes* the dirty set; the first read after ``init_state``
        must return every live parameter (the engine's ``reported``
        baseline starts empty).

        The returned dict must equal what the engine's own diff of
        successive :meth:`read_update_params` reads would produce, with
        one documented relaxation: keys may never be retired (an entry
        absent from a later full read keeps its last value in the
        coordinator's per-fragment table).  All bundled protocols have
        append/update-only parameters, so this changes nothing.

        Returning ``None`` (the default) selects the engine's full-diff
        path for this round.
        """
        return None

    def read_changed_block(self, query: Any, fragment: Fragment,
                           state: Any) -> Optional[ParamBlock]:
        """:meth:`read_changed_params` as an array block: the labels and
        new values of the update parameters that changed since the
        previous read, or ``None`` when none did.  Entry for entry the
        same report the dict protocol would make.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares no block_spec")

    def inceval_block(self, query: Any, fragment: Fragment, state: Any,
                      block: ParamBlock) -> None:
        """:meth:`inceval` on an array message: ``block.ids`` are the
        labels of the border nodes whose aggregated value changed,
        ``block.vals`` the new values."""
        raise NotImplementedError(
            f"{type(self).__name__} declares no block_spec")

    # ------------------------------------------------------------------
    # Optional hooks
    # ------------------------------------------------------------------
    def apply_message(self, query: Any, fragment: Fragment, state: Any,
                      message: ParamUpdates) -> None:
        """Write message values into the state *without* propagating.

        Used by the non-incremental ablation mode (the paper's GRAPE-NI,
        Exp-2), which applies the message then re-runs ``PEval`` from
        scratch instead of calling ``IncEval``.  Default: delegate to
        ``inceval`` (programs for which re-running PEval makes no sense).
        """
        self.inceval(query, fragment, state, message)

    def preprocess(self, query: Any,
                   fragmentation: Fragmentation) -> Optional[Dict[int, Any]]:
        """Optional data shipping before ``PEval``.

        SubIso uses this to send each fragment the ``d_Q``-neighborhood of
        its in-border nodes (paper Section 5.1).  Returns a per-fragment
        payload dict, or ``None`` when nothing is shipped; payload bytes
        are charged as communication.
        """
        return None

    def apply_preprocess(self, query: Any, fragment: Fragment, state: Any,
                         payload: Any) -> None:
        """Incorporate a :meth:`preprocess` payload into fragment state."""
        raise NotImplementedError(
            f"{type(self).__name__} shipped a preprocess payload but does "
            "not implement apply_preprocess")

    #: How changed update parameters are routed through ``G_P``:
    #: ``"holders"`` sends to every fragment containing the border node
    #: (Sim, CC, CF); ``"owner"`` sends to the owning fragment only (SSSP,
    #: whose ``F_i.O`` copies have no local out-edges).
    route_to: str = "holders"

    def drain_messages(self, query: Any, fragment: Fragment,
                       state: Any) -> Tuple[Dict[int, list], list]:
        """Drain explicitly addressed messages (paper Section 3.5).

        GRAPE supports, besides update parameters, (a) *designated*
        messages from one worker to another and (b) *key-value* pairs
        grouped by key at the coordinator (the MapReduce channel used by
        the Simulation Theorem compilers).

        Returns ``(designated, keyvalue)`` where ``designated`` maps a
        destination fragment id to a list of payloads and ``keyvalue`` is
        a list of ``(key, value)`` pairs.  Default: nothing.
        """
        return {}, []

    def deliver_designated(self, query: Any, fragment: Fragment, state: Any,
                           payloads: list) -> None:
        """Receive designated messages addressed to this worker."""
        raise NotImplementedError(
            f"{type(self).__name__} received designated messages but does "
            "not implement deliver_designated")

    def deliver_keyvalue(self, query: Any, fragment: Fragment, state: Any,
                         groups: Dict[Hashable, list]) -> None:
        """Receive key-value groups assigned to this worker by the
        coordinator's shuffle (keys hashed across workers)."""
        raise NotImplementedError(
            f"{type(self).__name__} received key-value messages but does "
            "not implement deliver_keyvalue")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class Maintenance(PIEProgram):
    """A PIE program that maintains its converged per-fragment state under
    update batches (:class:`~repro.core.updates.ContinuousQuerySession`
    tests for it with one ``isinstance``; any other program is
    recomputed).  The hooks come together: the bounded path
    (delete-aware IncEval, which a monotone batch takes with an empty
    region) and the per-node report probe it collects its changes
    with."""

    def affected_seeds_global(self, query: Any, fragments, states,
                              touched) -> Dict[int, Set[Node]]:
        """The direct hits of a batch, per touched fragment: vertices
        whose converged value was supported by a deleted or raised edge
        (old weights ride on ``delta.deletions`` / ``.weight_changes``).
        Asked of non-monotone batches only: a monotone one seeds nothing.
        The default asks ``affected_seeds(query, fragment, state, delta)``
        of each fragment; maintenance runs on the driver, so a program
        whose test is inherently global (CC's does-this-deletion-split
        check) overrides this and answers exactly, with a view of *all*
        fragments, instead of condemning on local evidence."""
        return {fid: self.affected_seeds(query, fragments[fid], states[fid],
                                         delta)
                for fid, delta in touched.items()}

    @abc.abstractmethod
    def expand_affected(self, query: Any, fragment: Fragment, state: Any,
                        nodes: Set[Node]) -> Set[Node]:
        """Grow the region locally: given vertices invalidated anywhere,
        return the locally-known ones plus every vertex whose current
        value is supported by one of them (closure over the fragment's
        value-dependency chains; over-approximation is safe)."""

    @abc.abstractmethod
    def apply_nonmonotone(self, query: Any, fragment: Fragment, state: Any,
                          delta, affected: Set[Node]) -> None:
        """Reset the affected vertices to neutral, re-seed them from
        unaffected in-neighbors on the mutated graph, fold the monotone
        part of ``delta`` (``None`` for fragments affected only
        transitively) and re-converge locally, keeping the dirty tracking
        behind :meth:`read_changed_params` alive.  With ``affected``
        empty this is the plain fold of a monotone batch, e.g. relax
        ``delta.as_insertions`` as shortcut candidates (SSSP) or union
        the endpoints of ``delta.insertions`` (CC)."""

    @abc.abstractmethod
    def report_entries(self, query: Any, fragment: Fragment, state: Any,
                       nodes: Set[Node]) -> ParamUpdates:
        """The per-node restriction of :meth:`read_update_params`.  A
        batch is collected as the dirty values plus a probe of the
        vertices it could have touched (affected, retired, or moved
        between border sets): ``O(|batch| + |AFF|)``, not ``O(border)``."""
