"""Standing answers are assembled by the first read after a batch, not
by the batch: what readers may rely on, and where the cost shows."""

import gc
import json
import threading

import pytest

from repro.core.engine import EngineConfig, GrapeEngine
from repro.core.updates import ContinuousQuerySession
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.pie_programs import CCProgram, SSSPProgram
from repro.runtime.metrics import UPDATE_PHASE_FIELDS
from repro.sequential import connected_components, sssp_distances
from repro.service import GrapeService


def cc_oracle(g):
    buckets = {}
    for v, c in connected_components(g).items():
        buckets.setdefault(c, set()).add(v)
    return buckets


def batches(g, n):
    """Mixed batches: an insertion, a deletion and a reweight each."""
    edges = sorted((u, v) for u, v, _w in g.edges())
    for i in range(n):
        (du, dv), (wu, wv) = edges[2 * i], edges[2 * i + 1]
        yield (GraphDelta().insert(i, 59 - i, 0.05 + i).delete(du, dv)
               .set_weight(wu, wv, 7.5))


@pytest.fixture
def graph():
    return uniform_random_graph(60, 140, directed=False, seed=12)


class TestWatchHandleAnswer:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_n_batches_without_a_read_then_the_oracle(self, graph, backend):
        with GrapeService(engine=EngineConfig(num_workers=3,
                                              backend=backend)) as svc:
            svc.load_graph("g", graph)
            sssp = svc.watch("sssp", 0, graph="g")
            cc = svc.watch("cc", None, graph="g")
            for delta in batches(graph, 5):
                svc.update("g", delta)
            assert sssp.metrics.standing_answers_assembled == 0
            assert sssp.answer == pytest.approx(sssp_distances(graph, 0))
            assert cc.answer == cc_oracle(graph)
            assert type(sssp.answer) is dict and type(cc.answer) is dict
            assert sssp.metrics.standing_answers_assembled == 1

    def test_same_object_between_batches_new_object_after_one(self, graph):
        with GrapeService(engine=EngineConfig(num_workers=3)) as svc:
            svc.load_graph("g", graph)
            handle = svc.watch("cc", None, graph="g")
            first = handle.answer
            assert handle.answer is first  # the initial run's, as it was
            held = {cid: set(members) for cid, members in first.items()}
            (delta,) = batches(graph, 1)
            svc.update("g", delta)
            second = handle.answer
            assert second is not first and handle.answer is second
            assert second == cc_oracle(graph)
            assert first == held  # a held answer is never mutated
            svc.update("g", GraphDelta())  # a no-op batch moves nothing
            assert handle.answer is second

    def test_reads_wait_for_a_batch_in_flight(self, graph):
        with GrapeService(engine=EngineConfig(num_workers=3)) as svc:
            svc.load_graph("g", graph)
            handle = svc.watch("sssp", 0, graph="g")
            lock = svc._graph_lock("g")
            got = []
            with lock.write():  # a batch is being applied
                reader = threading.Thread(
                    target=lambda: got.append(handle.answer))
                reader.start()
                reader.join(timeout=0.2)
                assert reader.is_alive() and not got
            reader.join(timeout=10)
            assert not reader.is_alive() and len(got) == 1


class TestSessionContract:
    def test_update_and_its_sugar_still_return_the_answer(self, graph):
        session = ContinuousQuerySession(GrapeEngine(3), SSSPProgram(), 0,
                                         graph)
        answer = session.insert_edges([(0, 59, 0.01)])
        assert answer == pytest.approx(sssp_distances(graph, 0))
        assert answer is session.answer
        edge = next(iter(graph.edges()))
        assert session.delete_edges([edge[:2]]) == pytest.approx(
            sssp_distances(graph, 0))

    def test_apply_update_assembles_nothing(self, graph):
        from repro.core.updates import apply_delta
        session = ContinuousQuerySession(GrapeEngine(3), CCProgram(), None,
                                         graph)
        before = session.metrics.assemble_s
        for delta in batches(graph, 3):
            assert session.apply_update(
                apply_delta(session.fragmentation, delta)) is None
        assert session.metrics.assemble_s == before
        assert session.metrics.standing_answers_assembled == 0
        assert session.answer == cc_oracle(graph)
        assert session.metrics.assemble_s > before
        assert session.metrics.standing_assemble_s \
            == pytest.approx(session.metrics.assemble_s - before)

    def test_views_are_materialised_once_per_state_not_per_batch(self,
                                                                 graph):
        session = ContinuousQuerySession(GrapeEngine(3), SSSPProgram(), 0,
                                         graph)
        # the array-plane run built none; the rebaseline's dict-plane
        # read builds one per fragment, and maintenance keeps it
        assert session.metrics.dict_views_materialised == 3
        for delta in batches(graph, 4):
            session.update(delta)
        assert session.metrics.dict_views_materialised == 3


class TestTheUpdateRow:
    def test_layers_name_what_a_batch_costs(self, graph, tmp_path):
        with GrapeService(engine=EngineConfig(num_workers=3),
                          store_dir=tmp_path) as svc:
            svc.load_graph("g", graph)
            handles = [svc.watch("sssp", 0, graph="g"),
                       svc.watch("cc", None, graph="g")]
            applied = 0
            for delta in batches(graph, 4):
                svc.update("g", delta)
                applied += 1
            row = svc.debug_report()["layers"]["update"]
            assert row["batches"] == applied
            assert set(row) == {"batches", "apply_delta_s", "wal_append_s",
                                "compact_s", "maintain_s", "assemble_s"}
            for name in ("apply_delta_s", "wal_append_s", "compact_s",
                         "maintain_s"):
                assert row[name] > 0.0, name
            assert row["assemble_s"] == 0.0  # nobody has asked yet
            for handle in handles:
                handle.answer
            report = svc.debug_report()
            json.dumps(report)
            assert report["layers"]["update"]["assemble_s"] > 0.0
            metrics = report["metrics"]
            assert metrics["repro_standing_answers_assembled"] == 2
            for name in UPDATE_PHASE_FIELDS:
                assert metrics[f"repro_{name}"] == pytest.approx(
                    report["layers"]["update"][name.split("_", 1)[1]]
                    * applied)
            # per standing query: one view per fragment, built once
            assert metrics["repro_dict_views_materialised"] == sum(
                handle.metrics.dict_views_materialised
                for handle in handles)

    def test_a_batch_leaves_nothing_to_the_cycle_collector(self, graph,
                                                           tmp_path):
        """The WAL sink is made per batch; timing it must not tie it
        into a reference cycle."""
        with GrapeService(engine=EngineConfig(num_workers=3,
                                              backend="serial"),
                          store_dir=tmp_path) as svc:
            svc.load_graph("g", graph)
            svc.watch("sssp", 0, graph="g")
            svc.watch("cc", None, graph="g")
            warm, timed = batches(graph, 2)
            svc.update("g", warm)
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                svc.update("g", timed)
                gc.collect()
                leaked = [type(obj).__name__ for obj in gc.garbage]
            finally:
                gc.set_debug(0)
                del gc.garbage[:]
            assert leaked == []

    def test_counts_survive_unloading_the_graph(self, graph):
        with GrapeService(engine=EngineConfig(num_workers=3)) as svc:
            svc.load_graph("g", graph)
            handle = svc.watch("cc", None, graph="g")
            (delta,) = batches(graph, 1)
            svc.update("g", delta)
            handle.answer
            handle.cancel()
            svc.unload_graph("g")
            metrics = svc.debug_report()["metrics"]
            assert metrics["repro_standing_answers_assembled"] == 1
            assert metrics["repro_standing_assemble_s"] > 0.0
