"""The one superstep driver (:mod:`repro.core.fixpoint`) and its one
accounting rule, seen from each of its callers."""

import dataclasses

import pytest

from repro.core import engine as engine_mod
from repro.core import fixpoint as fixpoint_mod
from repro.core.coordinator import Coordinator
from repro.core.engine import EngineConfig, GrapeEngine
from repro.core.updates import ContinuousQuerySession
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.partition.strategies import MetisLikePartition
from repro.pie_programs import BFSProgram, CCProgram, SSSPProgram
from repro.resilience import faults
from repro.resilience.faults import FaultPlane
from repro.runtime.wire import wire_bytes
from repro.sequential import connected_components, sssp_distances


def two_paths(directed, n=24):
    """Paths 0..n-1 and 100..100+n-1: hash-cut, a change at one end
    crosses a fragment border at nearly every hop."""
    g = Graph(directed=directed)
    for i in range(n - 1):
        g.add_edge(i, i + 1, weight=1.0)
        g.add_edge(100 + i, 101 + i, weight=1.0)
    return g


class _Ledger:
    """Every payload a coordinator priced while installed: one call of
    ``price`` per report and per composed message (retractions ride the
    report they belong to through ``price_tombstones``)."""

    def __init__(self, monkeypatch):
        self.messages = 0
        self.bytes = 0
        price, tombstones = Coordinator.price, Coordinator.price_tombstones

        def counted_price(coord, payload):
            self.messages += 1
            size = price(coord, payload)
            self.bytes += size
            return size

        def counted_tombstones(coord, keys):
            size = tombstones(coord, keys)
            if coord._width is not None:  # else priced through price()
                self.bytes += size
            return size

        monkeypatch.setattr(Coordinator, "price", counted_price)
        monkeypatch.setattr(Coordinator, "price_tombstones",
                            counted_tombstones)


class TestMaintenanceAccounting:
    """Regression: a maintained batch's ``comm_messages`` missed the
    messages its first superstep composed (their bytes were charged,
    their count was not); the engine's rule counts both."""

    # the bounded batch takes the second path's link away again: SSSP
    # re-reaches it one hop later, CC has to re-label it
    @pytest.mark.parametrize("make_program,query,directed,relink,oracle", [
        (SSSPProgram, 0, True, (1, 100, 0.25),
         lambda g: sssp_distances(g, 0)),
        (CCProgram, None, False, (300, 0, 1.0), None),
    ], ids=["sssp", "cc"])
    def test_every_priced_payload_is_a_counted_message(
            self, monkeypatch, make_program, query, directed, relink,
            oracle):
        graph = two_paths(directed)
        session = ContinuousQuerySession(GrapeEngine(4), make_program(),
                                         query, graph=graph)
        metrics = session.metrics
        batches = [
            # monotone: joins the second path to the first
            GraphDelta().insert(0, 100, 0.5),
            GraphDelta().delete(0, 100).insert(*relink),
        ]
        for bounded, batch in enumerate(batches):
            ledger = _Ledger(monkeypatch)
            before = (metrics.supersteps, metrics.comm_messages,
                      metrics.comm_bytes, metrics.partial_resets)
            session.update(batch)
            monkeypatch.undo()
            assert metrics.fallback_reruns == 0
            assert metrics.partial_resets - before[3] == bounded
            assert metrics.supersteps - before[0] >= 3
            assert metrics.comm_messages - before[1] == ledger.messages
            assert metrics.comm_bytes - before[2] == ledger.bytes
        if oracle is not None:
            assert session.answer == pytest.approx(oracle(graph))
        else:
            expected = {}
            for v, c in connected_components(graph).items():
                expected.setdefault(c, set()).add(v)
            assert session.answer == expected

    def test_a_query_is_accounted_by_the_same_rule(self, monkeypatch,
                                                   small_road):
        ledger = _Ledger(monkeypatch)
        result = GrapeEngine(4).run(SSSPProgram(use_csr=False), 0,
                                    graph=small_road)
        assert result.metrics.comm_messages == ledger.messages
        assert result.metrics.comm_bytes == ledger.bytes


class TestWireModelAccounting:
    @pytest.mark.parametrize("engine,plane", [
        ({}, {}), ({}, {"use_csr": False}), ({"incremental": False}, {})],
        ids=["arrays", "dicts", "ni"])
    @pytest.mark.parametrize("make_program,query,fixture", [
        (SSSPProgram, 0, "small_road"),
        (BFSProgram, 0, "small_road"),
        (CCProgram, None, "small_undirected")], ids=["sssp", "bfs", "cc"])
    def test_comm_bytes_obey_the_wire_model(self, monkeypatch, request,
                                            make_program, query, fixture,
                                            engine, plane):
        """Every non-empty report and every composed message is one
        message charged ``16 + n * (8 + width)`` on every coordinator
        plane — the closed form, no pickling."""
        sizes = []
        price = Coordinator.price

        def spy_price(coord, payload):
            sizes.append(len(payload))
            return price(coord, payload)

        monkeypatch.setattr(Coordinator, "price", spy_price)
        for module in (engine_mod, fixpoint_mod):
            monkeypatch.setattr(module, "message_bytes",
                                lambda payload: pytest.fail(
                                    "an update parameter was priced by "
                                    "pickle"))
        result = GrapeEngine(4, **engine).run(
            make_program(**plane), query,
            graph=request.getfixturevalue(fixture))
        assert len(sizes) > 4 and all(sizes)
        assert result.metrics.comm_messages == len(sizes)
        assert result.metrics.comm_bytes == sum(
            wire_bytes(n, make_program.param_width) for n in sizes)


class TestMaintenanceIsNoFaultSite:
    def test_an_update_advances_no_exec_step_ordinal(self, small_road):
        """Maintenance rounds run in-process: a crash due at the very
        next ``exec.step`` check survives any number of batches and
        fires on the next *query*."""
        from repro import GrapeService

        plane = FaultPlane().plan("exec.step", "crash", at=1)
        with GrapeService(engine=EngineConfig(num_workers=4)) as service:
            service.load_graph("g", small_road)
            handle = service.watch("sssp", 0, graph="g")
            with faults.installed(plane):
                service.insert_edges("g", [(0, 35, 0.25)])
                service.update("g", GraphDelta().delete(0, 35))
                assert handle.metrics.incremental_maintained == 2
                assert plane.fired == []
                assert plane.may_fire("exec.")
                ticket = service.play("sssp", 0, graph="g")
            assert [f[0] for f in plane.fired] == ["exec.step"]
            assert ticket.result() == pytest.approx(
                sssp_distances(small_road, 0))
            assert handle.answer == pytest.approx(ticket.result())


class TestEngineConfig:
    @pytest.mark.parametrize("fields", [
        {"num_workers": 0},
        {"num_workers": -2},
        {"num_workers": 4, "num_fragments": 2},
        {"num_workers": 2, "backend": "bogus"},
    ])
    def test_contradictions_are_rejected_where_the_config_is_built(
            self, fields):
        with pytest.raises(ValueError):
            EngineConfig(**fields)
        with pytest.raises(ValueError):
            GrapeEngine(**fields)
        with pytest.raises(ValueError):
            EngineConfig().replace(**fields)

    def test_a_backend_name_is_checked_without_building_one(
            self, monkeypatch):
        from repro.runtime import executors

        monkeypatch.setattr(executors, "_shared", {})
        assert EngineConfig(backend="process").backend == "process"
        assert EngineConfig().replace(backend="mp").backend == "mp"
        assert "process" not in executors._shared

    def test_an_instance_or_none_passes_unchanged(self):
        from repro.runtime.executors import SerialBackend

        backend = SerialBackend()
        assert EngineConfig(backend=backend).backend is backend
        assert EngineConfig().replace(backend=backend).backend is backend
        assert EngineConfig(backend=None).backend is None

    def test_a_backend_that_is_no_name_is_a_type_error(self):
        with pytest.raises(TypeError):
            EngineConfig(backend=42)
        with pytest.raises(TypeError):
            GrapeEngine(2, backend=42)

    def test_valid_shapes(self):
        assert EngineConfig(num_workers=2, num_fragments=2)
        assert EngineConfig(num_workers=2, num_fragments=8)
        assert EngineConfig(num_workers=3).effective_fragments == 3

    def test_removed_spellings_are_gone(self):
        for field in ("executor", "failure_injector", "cost_model"):
            with pytest.raises(TypeError):
                EngineConfig(**{field: None})
            with pytest.raises(TypeError):
                GrapeEngine(2, **{field: None})

    def test_engine_config_round_trips_every_field(self):
        """By reflection, so a new field cannot be forgotten."""
        from repro.runtime.executors import SerialBackend

        values = {
            "num_workers": 3, "num_fragments": 6,
            "partition": MetisLikePartition(),
            "backend": SerialBackend(), "incremental": False,
            "check_monotonic": True, "max_supersteps": 17,
            "checkpoint": True, "deadline_s": 2.5,
            "heartbeat_timeout_s": 0.75, "fault_plane": FaultPlane(seed=3),
        }
        names = [f.name for f in dataclasses.fields(EngineConfig)]
        assert sorted(values) == sorted(names), \
            "a new EngineConfig field needs a value in this test"
        default = EngineConfig()
        for name in names:  # every value really differs from the default
            assert values[name] != getattr(default, name), name

        engine = GrapeEngine(**values)
        assert engine.config == EngineConfig(**values)
        assert engine.config.build().config is engine.config
        assert GrapeEngine.from_config(engine.config).config is engine.config
        for name in names:  # and reads through as an engine attribute
            assert getattr(engine, name) == values[name], name

    def test_engine_attributes_resolve_the_defaults(self):
        engine = GrapeEngine(3)
        assert engine.config.num_fragments is None
        assert engine.num_fragments == 3
        assert type(engine.partition).__name__ == "HashPartition"
        with pytest.raises(AttributeError):
            engine.no_such_field


class TestMaintenanceHooksAreDeclared:
    def test_a_partial_set_of_hooks_cannot_be_instantiated(self):
        from repro.core.pie import Maintenance

        class OnlyTheFold(Maintenance):
            def apply_nonmonotone(self, query, fragment, state, delta,
                                  affected):
                pass

        with pytest.raises(TypeError, match="report_entries"):
            OnlyTheFold()

    def test_duck_typed_hooks_are_refused_when_the_query_opens(
            self, small_labeled, tiny_pattern):
        from repro.pie_programs import SimProgram

        class Sim(SimProgram):
            def apply_nonmonotone(self, query, fragment, state, delta,
                                  affected):
                raise AssertionError("never called")

        with pytest.raises(TypeError, match="Maintenance"):
            ContinuousQuerySession(GrapeEngine(2), Sim(), tiny_pattern,
                                   small_labeled)

    def test_bundled_programs_declare_them(self):
        from repro.core.pie import Maintenance
        from repro.pie_programs import PageRankProgram, SimProgram

        for program in (SSSPProgram(), BFSProgram(), CCProgram()):
            assert isinstance(program, Maintenance)
        for program in (SimProgram(), PageRankProgram()):
            assert not isinstance(program, Maintenance)
