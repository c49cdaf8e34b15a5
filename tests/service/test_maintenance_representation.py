"""Queries on arrays, maintenance on dict views — as an invariant.

Which representation serves which path is fixed: the bounded maintenance
hooks of a standing query run the dict algorithms of ``repro.sequential``
on the state's dict view and never look at the fragment's snapshot —
live, retired, or re-cached by an inline compaction between
``apply_delta`` and the refresh.  The only kernel calls an ``update()``
makes come from dict-plane ``inceval`` on a state whose arrays are still
the state on a live snapshot (a fragment no batch has touched yet).

Checked over generated insert and mixed batches with SSSP, BFS and CC
watches by recording every kernel call and every ``Fragment.csr()`` call
together with the program hook it happened under.
"""

import random

import pytest

from repro.core.engine import EngineConfig
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.partition.base import Fragment
from repro.pie_programs import BFSProgram, CCProgram, SSSPProgram
from repro.pie_programs import cc as cc_module
from repro.pie_programs._blocks import DecreaseOnlyProgram
from repro.sequential import connected_components, sssp_distances
from repro.service import GrapeService

#: everything a maintained batch calls before the message rounds
MAINTENANCE_HOOKS = ("affected_seeds", "affected_seeds_global",
                     "expand_affected", "apply_nonmonotone",
                     "read_changed_params", "report_entries")
FRAGMENTS = 4


class Recorder:
    """``events``: ``(what, hook it ran under or None, whether that
    hook's state held live arrays on a live snapshot)``."""

    def __init__(self, monkeypatch):
        self.events = []
        self._stack = []
        for cls in (DecreaseOnlyProgram, CCProgram):
            for name in MAINTENANCE_HOOKS + ("inceval",):
                if name in vars(cls):
                    monkeypatch.setattr(cls, name,
                                        self._hook(name, vars(cls)[name]))
        for cls in (SSSPProgram, BFSProgram):
            monkeypatch.setattr(cls, "_kernel", staticmethod(
                self._call("kernel", cls._kernel)))
        monkeypatch.setattr(cc_module, "csr_components",
                            self._call("kernel", cc_module.csr_components))
        monkeypatch.setattr(Fragment, "csr",
                            self._call("csr", Fragment.csr))

    def _hook(self, name, real):
        def hook(program, query, fragment, state, *rest):
            live = (name == "inceval" and fragment.csr_cached
                    and state.current(fragment))
            self._stack.append((name, live))
            try:
                return real(program, query, fragment, state, *rest)
            finally:
                self._stack.pop()
        return hook

    def _call(self, what, real):
        def call(*args, **kwargs):
            self.events.append((what,) + (self._stack[-1] if self._stack
                                          else (None, False)))
            return real(*args, **kwargs)
        return call

    def under(self, *hooks):
        return [event for event in self.events if event[1] in hooks]


def generated_batches(g, seed, count, mixed):
    """Seeded batches against the live graph.  The first is one op — the
    shortcut from the source that improves the most distances — so most
    fragments stay untouched and learn of it by message; the rest are
    two to four random ops."""
    rng = random.Random(seed)
    dist = sssp_distances(g, 0)

    def improved_through(v):
        beyond = sssp_distances(g, v)
        return sum(0.001 + beyond[x] < dist[x] for x in dist)

    yield GraphDelta().insert(0, max(sorted(set(dist) - {0}),
                                     key=improved_through), 0.001)
    for _ in range(count - 1):
        delta = GraphDelta()
        nodes = sorted(g.nodes())
        edges = sorted((u, v, w) for u, v, w in g.edges())
        for _ in range(rng.randint(2, 4)):
            kind = rng.random() if mixed else 0.0
            if kind < 0.5:
                u, v = rng.sample(nodes, 2)
                delta.insert(u, v, rng.uniform(0.05, 1.0))
            elif kind < 0.8:
                u, v, _w = rng.choice(edges)
                delta.delete(u, v)
            else:
                u, v, w = rng.choice(edges)
                delta.set_weight(u, v, w * rng.choice((0.5, 3.0)))
        yield delta


def check_answers(g, sssp, bfs, cc):
    assert sssp.answer == sssp_distances(g, 0)
    reached = {v for v, d in sssp.answer.items() if d < float("inf")}
    assert {v for v, h in bfs.answer.items() if h >= 0} == reached
    want = {}
    for v, c in connected_components(g).items():
        want.setdefault(c, set()).add(v)
    assert cc.answer == want


@pytest.mark.parametrize("retire_first", (False, True),
                         ids=("live", "retired"))
@pytest.mark.parametrize("mixed", (False, True), ids=("insert", "mixed"))
@pytest.mark.parametrize("directed", (True, False),
                         ids=("directed", "undirected"))
def test_update_never_builds_and_hooks_never_touch_snapshots(
        monkeypatch, directed, mixed, retire_first):
    g = uniform_random_graph(120, 360, directed=directed, seed=21)
    with GrapeService(engine=EngineConfig(num_workers=FRAGMENTS,
                                          backend="serial")) as svc:
        svc.load_graph("g", g)
        watches = [svc.watch("sssp", 0, graph="g"),
                   svc.watch("bfs", 0, graph="g"),
                   svc.watch("cc", None, graph="g")]
        if retire_first:
            for frag in svc.fragmentation("g"):
                frag.invalidate_csr(())
        built = (svc.stats.csr_snapshots_built,
                 svc.stats.csr_snapshots_patched)
        rec = Recorder(monkeypatch)
        for delta in generated_batches(g, 7, 12, mixed):
            svc.update("g", delta)
        events = list(rec.events)  # reading the answers is not update()

        assert (svc.stats.csr_snapshots_built,
                svc.stats.csr_snapshots_patched) == built
        assert svc.stats.fallback_reruns == 0
        assert not rec.under(*MAINTENANCE_HOOKS)
        assert not rec.under(None)  # nothing outside a program hook
        # what is left ran under dict-plane IncEval, on live arrays only
        assert all(live for _what, _hook, live in events)
        if retire_first:
            assert not events  # no state is current: dict views throughout
        else:  # untouched fragments relax on their arrays
            assert any(what == "kernel" for what, _hook, _live in events)
        # a view is built once per fragment and kept, however many batches
        for handle in watches:
            assert 0 < handle.metrics.dict_views_materialised <= FRAGMENTS
        check_answers(g, *watches)


def test_inline_compaction_between_apply_delta_and_refresh(
        monkeypatch, tmp_path):
    """The churn-durable shape: every batch compacts, and the checkpoint's
    ``frag.csr()`` re-caches the snapshots the batch retired before the
    watchers refresh.  The hooks still run on the views."""
    g = uniform_random_graph(120, 360, directed=False, seed=22)
    with GrapeService(engine=EngineConfig(num_workers=FRAGMENTS,
                                          backend="serial"),
                      store_dir=tmp_path,
                      store_compact_threshold=1) as svc:
        svc.load_graph("g", g)
        watches = [svc.watch("sssp", 0, graph="g"),
                   svc.watch("bfs", 0, graph="g"),
                   svc.watch("cc", None, graph="g")]
        built = svc.stats.csr_snapshots_built
        rec = Recorder(monkeypatch)
        for delta in generated_batches(g, 8, 10, True):
            svc.update("g", delta)
            # the compaction left every snapshot live for the refresh
            assert all(f.csr_cached for f in svc.fragmentation("g"))
        events = list(rec.events)

        assert svc.store.metrics.compactions >= 10
        assert svc.stats.csr_snapshots_built == built
        assert svc.stats.partial_resets > 0
        assert not rec.under(*MAINTENANCE_HOOKS)
        # the checkpoint's own csr() calls, and no kernel, outside hooks
        assert {what for what, _hook, _live in rec.under(None)} == {"csr"}
        assert all(live for _what, hook, live in events if hook)
        for handle in watches:
            assert 0 < handle.metrics.dict_views_materialised <= FRAGMENTS
        check_answers(g, *watches)
