"""GrapeService: the plug-and-play serving facade."""

from collections import deque

import pytest

from repro.core.api import PIERegistry
from repro.core.engine import EngineConfig, GrapeEngine
from repro.core.pie import PIEProgram
from repro.graph.generators import grid_road_graph
from repro.partition.strategies import HashPartition, RangePartition
from repro.pie_programs import BFSProgram, CCProgram, SSSPProgram
from repro.sequential import sssp_distances
from repro.service import GrapeService, QueryRequest
from repro.core.aggregators import MaxAggregator


def reachable_oracle(graph, source):
    seen = {source} if graph.has_node(source) else set()
    dq = deque(seen)
    while dq:
        v = dq.popleft()
        for w in graph.successors(v):
            if w not in seen:
                seen.add(w)
                dq.append(w)
    return seen


class ReachProgram(PIEProgram):
    """Custom query class: the set of nodes reachable from the source."""

    name = "Reach"
    aggregator = MaxAggregator()
    route_to = "owner"

    def init_state(self, query, fragment):
        return set()

    def _expand(self, fragment, state, frontier):
        stack = list(frontier)
        while stack:
            v = stack.pop()
            for w in fragment.graph.successors(v):
                if w not in state:
                    state.add(w)
                    stack.append(w)

    def peval(self, query, fragment, state):
        if fragment.graph.has_node(query) and query not in state:
            state.add(query)
        self._expand(fragment, state, list(state))

    def inceval(self, query, fragment, state, message):
        frontier = []
        for (v, _name), reached in message.items():
            if reached and v not in state:
                state.add(v)
                frontier.append(v)
        self._expand(fragment, state, frontier)

    def read_update_params(self, query, fragment, state):
        return {(v, "reached"): True for v in fragment.outer if v in state}

    def assemble(self, query, fragmentation, states):
        return {v for frag in fragmentation for v in frag.owned
                if v in states[frag.fid]}


class PluggedReach(ReachProgram):
    """Module-level so it stays picklable under backend='process'."""


class CountingPartition(HashPartition):
    """Hash partition that records every partition() call on the class
    (instance attributes would perturb the service's cache key)."""

    calls = 0

    def partition(self, graph, num_fragments):
        type(self).calls += 1
        return super().partition(graph, num_fragments)


@pytest.fixture
def service(small_road):
    svc = GrapeService(engine=EngineConfig(num_workers=4))
    svc.load_graph("roads", small_road)
    yield svc
    svc.close()


class TestGraphManagement:
    def test_load_and_list(self, service, diamond):
        service.load_graph("diamond", diamond)
        assert service.graphs() == ["diamond", "roads"]
        assert service.graph("diamond") is diamond

    def test_duplicate_rejected_unless_replace(self, service, diamond):
        with pytest.raises(ValueError, match="already loaded"):
            service.load_graph("roads", diamond)
        service.load_graph("roads", diamond, replace=True)
        assert service.graph("roads") is diamond

    def test_replace_drops_cached_fragmentation(self, service, diamond):
        service.play("sssp", 0, graph="roads")
        assert service.stats.cache_misses == 1
        service.load_graph("roads", diamond, replace=True)
        service.play("sssp", 0, graph="roads")
        assert service.stats.cache_misses == 2

    def test_unload(self, service, small_road):
        assert service.unload_graph("roads") is small_road
        with pytest.raises(ValueError, match="no graph loaded"):
            service.play("sssp", 0, graph="roads")

    def test_unknown_graph_error_names_available(self, service):
        with pytest.raises(ValueError, match="roads"):
            service.play("sssp", 0, graph="nowhere")


class TestPlay:
    def test_answer_and_metrics(self, service, small_road):
        ticket = service.play("sssp", 0, graph="roads")
        assert ticket.status == "done" and ticket.done
        assert ticket.answer == pytest.approx(sssp_distances(small_road, 0))
        assert ticket.metrics.supersteps >= 1
        assert ticket.result() is ticket.answer

    def test_unknown_program_raises(self, service):
        with pytest.raises(ValueError, match="no PIE program"):
            service.play("mincut", 0, graph="roads")

    def test_case_insensitive_program_lookup(self, service):
        ticket = service.play("SSSP", 0, graph="roads")
        assert ticket.status == "done"

    def test_fragmentation_cached_across_query_classes(self, service):
        service.play("sssp", 0, graph="roads")
        service.play("cc", graph="roads")
        service.play("bfs", 0, graph="roads")
        assert service.stats.cache_misses == 1
        assert service.stats.cache_hits == 2

    def test_engine_override_gets_own_cache_entry(self, service):
        service.play("sssp", 0, graph="roads")
        override = EngineConfig(num_workers=2, partition=RangePartition())
        ticket = service.play("sssp", 0, graph="roads", engine=override)
        assert len(ticket.grape_result.fragmentation.fragments) == 2
        assert service.stats.cache_misses == 2


class TestSubmitMany:
    def test_batch_of_concurrent_queries(self, service, small_road):
        requests = [("sssp", 0, "roads"), ("sssp", 7, "roads"),
                    ("bfs", 0, "roads"), ("cc", None, "roads"),
                    QueryRequest(program="sssp", query=14, graph="roads")]
        tickets = service.submit_many(requests)
        assert [t.program for t in tickets] == \
            ["sssp", "sssp", "bfs", "cc", "sssp"]
        for ticket in tickets:
            ticket.result(timeout=60)
        assert tickets[0].answer == pytest.approx(
            sssp_distances(small_road, 0))
        assert tickets[4].answer == pytest.approx(
            sssp_distances(small_road, 14))
        assert service.stats.queries_served == 5
        # All five shared one fragmentation, and answered what five fresh
        # engines, each partitioning for itself, answer.
        assert service.stats.cache_misses == 1
        assert service.stats.cache_hits == 4
        programs = {"sssp": SSSPProgram, "bfs": BFSProgram,
                    "cc": CCProgram}
        for ticket in tickets:
            fresh = GrapeEngine(4).run(programs[ticket.program](),
                                       ticket.query, graph=small_road)
            assert ticket.answer == fresh.answer

    def test_failure_lands_in_ticket_not_pool(self, service):
        good, bad = service.submit_many([("sssp", 0, "roads"),
                                         ("mincut", 0, "roads")])
        assert good.result(timeout=60)
        bad.wait(timeout=60)
        assert bad.status == "failed"
        with pytest.raises(ValueError, match="no PIE program"):
            bad.result()
        assert service.stats.queries_failed == 1

    def test_dict_requests_with_program_kwargs(self, service):
        [ticket] = service.submit_many([
            {"program": "sssp", "query": 0, "graph": "roads",
             "program_kwargs": {}}])
        assert ticket.result(timeout=60)


class TestWatchAndUpdates:
    def test_watch_maintained_under_insertions(self, service, small_road):
        handle = service.watch("sssp", 0, graph="roads")
        assert handle.answer == pytest.approx(sssp_distances(small_road, 0))
        refreshed = service.insert_edges("roads", [(0, 35, 0.25)])
        assert refreshed == [handle]
        assert handle.answer[35] == pytest.approx(0.25)
        assert handle.answer == pytest.approx(sssp_distances(small_road, 0))
        assert handle.refreshes == 1

    def test_one_batch_fans_out_to_all_watchers(self, service, small_road):
        h1 = service.watch("sssp", 0, graph="roads")
        h2 = service.watch("sssp", 14, graph="roads")
        service.insert_edges("roads", [(0, 35, 0.2), (14, 30, 0.2)])
        assert h1.answer == pytest.approx(sssp_distances(small_road, 0))
        assert h2.answer == pytest.approx(sssp_distances(small_road, 14))
        # One shared fragmentation: still a single partition pass.
        assert service.stats.cache_misses == 1
        assert service.stats.watch_refreshes == 2

    def test_cancelled_watch_not_refreshed(self, service):
        handle = service.watch("sssp", 0, graph="roads")
        handle.cancel()
        refreshed = service.insert_edges("roads", [(0, 35, 0.25)])
        assert refreshed == []
        assert handle.refreshes == 0
        assert service.watches("roads") == []

    def test_unload_blocked_by_active_watch(self, service):
        handle = service.watch("sssp", 0, graph="roads")
        with pytest.raises(ValueError, match="standing queries"):
            service.unload_graph("roads")
        handle.cancel()
        service.unload_graph("roads")

    def test_insert_without_fragmentation_mutates_graph(self, service,
                                                        small_road):
        service.insert_edges("roads", [(0, 35, 0.25)])
        assert small_road.has_edge(0, 35)
        ticket = service.play("sssp", 0, graph="roads")
        assert ticket.answer[35] == pytest.approx(0.25)

    def test_insert_invalidates_other_configs(self, service):
        service.play("sssp", 0, graph="roads")  # canonical entry
        override = EngineConfig(num_workers=2, partition=RangePartition())
        service.play("sssp", 0, graph="roads", engine=override)
        service.insert_edges("roads", [(0, 35, 0.25)])
        assert service.stats.cache_invalidations == 1
        # Canonical entry survived: next play is a cache hit.
        hits = service.stats.cache_hits
        service.play("sssp", 0, graph="roads")
        assert service.stats.cache_hits == hits + 1

    def test_weight_increase_served_by_bounded_path(self, service,
                                                    small_road):
        handle = service.watch("sssp", 0, graph="roads")
        u, v, w = next(iter(small_road.edges()))
        refreshed = service.insert_edges("roads", [(u, v, w + 100.0)])
        assert refreshed == [handle]
        assert small_road.edge_weight(u, v) == pytest.approx(w + 100.0)
        assert handle.answer == pytest.approx(sssp_distances(small_road, 0))
        assert service.stats.fallback_reruns == 0
        assert service.stats.incremental_maintained == 1
        assert service.stats.partial_resets == 1
        assert service.stats.affected_vertices >= 0

    def test_mixed_update_batch_with_watch(self, service, small_road):
        from repro import GraphDelta
        handle = service.watch("sssp", 0, graph="roads")
        u, v, _w = next(iter(small_road.edges()))
        delta = (GraphDelta().delete(u, v).insert(0, 35, 0.25)
                 .insert(0, "annex", 1.5))
        refreshed = service.update("roads", delta)
        assert refreshed == [handle]
        assert not small_road.has_edge(u, v)
        assert handle.answer == pytest.approx(sssp_distances(small_road, 0))
        assert handle.answer["annex"] == pytest.approx(1.5)
        service.fragmentation("roads").validate()

    def test_delete_edges_and_set_weights_sugar(self, service, small_road):
        handle = service.watch("sssp", 0, graph="roads")
        u, v, w = next(iter(small_road.edges()))
        service.set_weights("roads", [(u, v, w * 0.5)])   # decrease
        assert service.stats.incremental_maintained == 1
        service.delete_edges("roads", [(u, v)])
        assert service.stats.fallback_reruns == 0
        assert service.stats.incremental_maintained == 2
        assert service.stats.partial_resets == 1
        assert handle.answer == pytest.approx(sssp_distances(small_road, 0))

    def test_mixed_watchers_split_maintained_ratio(self, service,
                                                   small_road):
        """One batch, two watches, two outcomes: the bounded-path SSSP
        watch is *maintained* while the hook-less reachability one
        recomputes — the per-session accounting must split the batch
        across both buckets instead of attributing it wholesale to one."""
        service.plug("reach", PluggedReach)
        fast = service.watch("sssp", 0, graph="roads")
        slow = service.watch("reach", 0, graph="roads")
        u, v, _w = next(iter(small_road.edges()))
        refreshed = service.delete_edges("roads", [(u, v)])
        assert set(refreshed) == {fast, slow}
        assert fast.answer == pytest.approx(sssp_distances(small_road, 0))
        assert slow.answer == reachable_oracle(small_road, 0)
        assert service.stats.incremental_maintained == 1
        assert service.stats.fallback_reruns == 1
        assert service.stats.partial_resets == 1
        assert service.stats.maintained_ratio == pytest.approx(0.5)

    def test_every_watch_survives_every_batch(self, service, small_road):
        """No program opts out: a Maintenance watch maintains every batch
        (a monotone one resets nothing), a hook-less watch recomputes
        every batch, and neither is ever cancelled."""
        service.plug("reach", PluggedReach)
        fast = service.watch("sssp", 0, graph="roads")
        slow = service.watch("reach", 0, graph="roads")
        service.insert_edges("roads", [(0, 35, 0.3)])
        assert service.stats.partial_resets == 0
        u, v, _w = next(iter(small_road.edges()))
        service.delete_edges("roads", [(u, v)])
        assert fast.active and slow.active
        assert service.watches("roads") == [fast, slow]
        assert fast.answer == pytest.approx(sssp_distances(small_road, 0))
        assert slow.answer == reachable_oracle(small_road, 0)
        assert service.stats.incremental_maintained == 2
        assert service.stats.fallback_reruns == 2
        assert service.stats.partial_resets == 1

    def test_noop_batch_is_free(self, service, small_road):
        service.watch("sssp", 0, graph="roads")
        frag = service.fragmentation("roads")
        token = frag.cache_token
        epochs = [f.csr_epoch for f in frag]
        updates_before = service.stats.updates_applied
        u, v, w = next(iter(small_road.edges()))
        refreshed = service.insert_edges("roads", [(u, v, w)])  # duplicate
        assert refreshed == []
        assert frag.cache_token == token
        assert [f.csr_epoch for f in frag] == epochs
        assert service.stats.updates_applied == updates_before


class TestPlugPanel:
    def test_plug_and_decorator_stay_service_local(self, small_road):
        with GrapeService() as svc:
            svc.load_graph("roads", small_road)
            svc.plug("reach2", ReachProgram)

            @svc.program("triangle-free")
            class _Stub(ReachProgram):
                name = "TriangleFree"

            assert "reach2" in svc.programs()
            assert "triangle-free" in svc.programs()
        # The default library was not polluted.
        from repro.core.api import default_registry
        assert "reach2" not in default_registry()
        assert "triangle-free" not in default_registry()

    def test_private_registry_override(self, small_road):
        registry = PIERegistry()
        registry.register("reach", ReachProgram)
        with GrapeService(registry=registry) as svc:
            svc.load_graph("roads", small_road)
            assert svc.programs() == ["reach"]
            with pytest.raises(ValueError, match="no PIE program"):
                svc.play("sssp", 0, graph="roads")


class TestEndToEnd:
    """The acceptance scenario: plug a custom program, partition once for
    all queries, serve a concurrent batch, then maintain a standing query
    under insertions without re-partitioning."""

    def test_full_serving_lifecycle(self):
        CountingPartition.calls = 0
        graph = grid_road_graph(6, 6, seed=3)
        service = GrapeService(
            engine=EngineConfig(num_workers=4,
                                partition=CountingPartition()),
            concurrency=4)

        # Plug: register a custom PIE program via the decorator.  The
        # class itself lives at module level (the pickle contract for
        # backend="process"); the decorator only registers it here.
        service.program("reach")(PluggedReach)

        service.load_graph("social", graph)

        # Play two different query classes on one cached fragmentation.
        sssp_ticket = service.play("sssp", 0, graph="social")
        reach_ticket = service.play("reach", 0, graph="social")
        assert sssp_ticket.answer == pytest.approx(sssp_distances(graph, 0))
        assert reach_ticket.answer == reachable_oracle(graph, 0)
        assert CountingPartition.calls == 1, \
            "graph must be partitioned once for all queries"

        # Concurrent batched submission (>= 4 queries, pooled engines).
        tickets = service.submit_many([
            ("sssp", 7, "social"), ("reach", 7, "social"),
            ("bfs", 0, "social"), ("cc", None, "social"),
            ("sssp", 14, "social")])
        for ticket in tickets:
            ticket.result(timeout=60)
        assert tickets[0].answer == pytest.approx(sssp_distances(graph, 7))
        assert tickets[1].answer == reachable_oracle(graph, 7)
        assert CountingPartition.calls == 1

        # Standing query maintained incrementally under insertions: a
        # mild shortcut whose effect is localized, so maintenance touches
        # a small affected area while a fresh run still pays the full
        # fixpoint (paper: IncEval cost is bounded by the change).
        handle = service.watch("sssp", 0, graph="social")
        before = handle.metrics.supersteps
        d0 = sssp_distances(graph, 0)
        u, v = 28, 35
        w = (d0[v] - d0[u]) * 0.9
        assert w > 0
        service.insert_edges("social", [(u, v, w)])
        maintenance = handle.metrics.supersteps - before
        assert handle.answer == pytest.approx(sssp_distances(graph, 0))
        assert handle.answer[v] == pytest.approx(d0[u] + w)

        fresh = service.play("sssp", 0, graph="social")
        assert fresh.answer == pytest.approx(handle.answer)
        assert maintenance < fresh.metrics.supersteps, \
            "maintenance must be cheaper than a fresh fixpoint"
        assert CountingPartition.calls == 1, \
            "updates must not trigger a re-partition"

        assert service.stats.queries_served == 9  # 8 plays + watch install
        assert service.stats.queries_failed == 0
        assert service.stats.updates_applied == 1
        assert service.stats.cache_hit_rate > 0.8
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.play("sssp", 0, graph="social")
