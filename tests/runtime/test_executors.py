"""Unit tests for the pluggable executor backends."""

import pytest

from repro.core.engine import EngineConfig, GrapeEngine
from repro.graph.generators import uniform_random_graph
from repro.pie_programs import SSSPProgram
from repro.resilience.faults import FaultPlane
from repro.runtime import executors, shm
from repro.runtime.executors import (BACKEND_ENV_VAR, ProcessBackend,
                                     SerialBackend, ThreadBackend,
                                     available_backends, backend_name,
                                     resolve_backend)


class ExplodingError(RuntimeError):
    """Custom exception type to verify worker errors keep their type."""


class ExplodingProgram(SSSPProgram):
    """Module-level (picklable); blows up during partial evaluation."""

    def peval(self, query, fragment, state):
        raise ExplodingError(f"boom in peval of fragment {fragment.fid}")


class TestResolution:
    def test_canonical_names(self):
        assert available_backends() == ["process", "serial", "thread"]

    @pytest.mark.parametrize("alias,cls", [
        ("serial", SerialBackend), ("sync", SerialBackend),
        ("thread", ThreadBackend), ("threads", ThreadBackend),
        ("process", ProcessBackend), ("mp", ProcessBackend),
        ("Process", ProcessBackend),  # case-insensitive
    ])
    def test_aliases(self, alias, cls):
        assert isinstance(resolve_backend(alias), cls)

    @pytest.mark.parametrize("alias,canonical", [
        ("serial", "serial"), ("sync", "serial"),
        ("thread", "thread"), ("threads", "thread"),
        ("process", "process"), ("mp", "process"),
        (" Process ", "process"),  # case- and space-insensitive
    ])
    def test_a_name_is_canonicalised_without_building_a_backend(
            self, monkeypatch, alias, canonical):
        monkeypatch.setattr(executors, "_shared", {})
        assert backend_name(alias) == canonical
        assert executors._shared == {}

    def test_backend_name_rejects_what_resolution_rejects(self):
        with pytest.raises(ValueError, match="unknown backend"):
            backend_name("gpu")
        with pytest.raises(TypeError):
            backend_name(42)

    def test_named_lookup_is_shared(self):
        assert resolve_backend("process") is resolve_backend("mp")
        assert resolve_backend("serial") is resolve_backend("serial")

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_none_reads_environment(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == "serial"
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread")
        assert resolve_backend(None).name == "thread"

    def test_engine_env_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert GrapeEngine(2)._resolve_backend().name == "process"
        # explicit choices beat the environment
        assert GrapeEngine(2, backend="serial")._resolve_backend().name \
            == "serial"

    def test_config_carries_backend(self):
        config = EngineConfig(backend="thread")
        assert config.build()._resolve_backend().name == "thread"


class TestFaultInjectionGate:
    """There is none any more: a crash spec runs — and recovers — on the
    backend the engine was given, the process backend included (the
    injector this replaced refused it, or quietly fell back to serial)."""

    @staticmethod
    def _crash():
        return FaultPlane().plan("exec.step", "crash", key=0, at=2)

    def test_explicit_process_plus_crash_spec_recovers(self):
        graph = uniform_random_graph(60, 200, seed=3)
        engine = GrapeEngine(2, backend="process", fault_plane=self._crash())
        assert engine._resolve_backend().name == "process"
        result = engine.run(SSSPProgram(), 0, graph=graph)
        assert result.recoveries >= 1
        assert result.metrics.backend == "process"
        assert result.answer == GrapeEngine(2, backend="serial").run(
            SSSPProgram(), 0, graph=graph).answer

    def test_env_process_plus_crash_spec_stays_on_process(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        engine = GrapeEngine(2, fault_plane=self._crash())
        assert engine._resolve_backend().name == "process"


class TestProcessPool:
    def test_pool_reuse_and_fragment_cache(self):
        backend = ProcessBackend()
        try:
            graph = uniform_random_graph(60, 200, seed=3)
            engine = GrapeEngine(2, backend=backend)
            frag = engine.make_fragmentation(graph)

            first = engine.run(SSSPProgram(), 0, fragmentation=frag)
            size_after_first = backend.pool_size
            second = engine.run(SSSPProgram(), 5, fragmentation=frag)

            assert first.answer == GrapeEngine(2).run(
                SSSPProgram(), 0, fragmentation=frag).answer
            # the pool persists across runs instead of respawning
            assert backend.pool_size == size_after_first
            # fragments were cached worker-side: the second run ships
            # only commands/messages, so it moves far fewer pipe bytes
            assert second.metrics.pipe_bytes < first.metrics.pipe_bytes
        finally:
            backend.close()

    def test_worker_fragment_cache_is_bounded(self):
        """A pool serving many distinct graphs must not accumulate them
        all: the per-worker cache is LRU-bounded (coordinator mirror
        checked here; the worker applies the identical policy)."""
        from repro.runtime.executors import (_WORKER_CACHE_TOKENS,
                                             _evict_cached)
        backend = ProcessBackend()
        try:
            engine = GrapeEngine(1, backend=backend)
            for seed in range(_WORKER_CACHE_TOKENS + 4):
                engine.run(SSSPProgram(), 0,
                           graph=uniform_random_graph(20, 50, seed=seed))
            with backend._lock:
                handles = list(backend._idle)
            assert handles
            for handle in handles:
                assert len(handle.cached) <= _WORKER_CACHE_TOKENS
        finally:
            backend.close()

        # the policy itself: recency refresh + same-base eviction
        cache = {(i, 0): {"frags"} for i in range(_WORKER_CACHE_TOKENS)}
        _evict_cached(cache, (0, 0))        # refresh token (0, 0)
        cache[(99, 0)] = {"frags"}
        _evict_cached(cache, (99, 0))       # overflow evicts oldest…
        assert (1, 0) not in cache
        assert (0, 0) in cache              # …not the refreshed one
        _evict_cached(cache, (99, 1))       # new version evicts old one
        assert (99, 0) not in cache

    def test_mutation_bumps_cache_token(self):
        from repro.core.updates import apply_insertions
        graph = uniform_random_graph(40, 120, seed=5)
        frag = GrapeEngine(2).make_fragmentation(graph)
        token = frag.cache_token
        apply_insertions(frag, [(0, 1, 0.01)])
        assert frag.cache_token != token

    def test_mutation_delta_ships_instead_of_reshipping(self, monkeypatch):
        """After apply_delta, the next lease brings worker copies
        current by per-fragment delta replay: zero full re-ships, a
        little delta traffic, identical answers.  Pinned to the pickle
        shipping path (no shared-memory provider) so the byte comparison
        measures delta replay against a real full ship."""
        from repro.core.updates import apply_delta
        from repro.graph.delta import GraphDelta

        monkeypatch.setattr(shm, "provider", lambda: None)
        backend = ProcessBackend()
        try:
            graph = uniform_random_graph(60, 200, seed=3)
            engine = GrapeEngine(2, backend=backend)
            frag = engine.make_fragmentation(graph)

            first = engine.run(SSSPProgram(), 0, fragmentation=frag)
            assert first.metrics.fragments_shipped > 0
            assert first.metrics.fragments_delta_shipped == 0

            u, v, _w = next(iter(graph.edges()))
            apply_delta(frag, GraphDelta().delete(u, v)
                        .insert(0, "fresh", 0.2))

            second = engine.run(SSSPProgram(), 0, fragmentation=frag)
            assert second.metrics.fragments_shipped == 0
            assert second.metrics.fragments_delta_shipped > 0
            assert second.metrics.delta_bytes_shipped > 0
            # delta replay moves far fewer bytes than the initial ship
            assert second.metrics.pipe_bytes < first.metrics.pipe_bytes
            # and the replayed fragments compute the same answer as a
            # coordinator-side (serial) run on the mutated fragmentation
            serial = GrapeEngine(2).run(SSSPProgram(), 0,
                                        fragmentation=frag)
            assert second.answer == serial.answer
        finally:
            backend.close()

    def test_log_gap_falls_back_to_full_reship(self):
        from repro.core.updates import apply_delta
        from repro.graph.delta import GraphDelta

        backend = ProcessBackend()
        try:
            graph = uniform_random_graph(40, 120, seed=9)
            engine = GrapeEngine(2, backend=backend)
            frag = engine.make_fragmentation(graph)
            engine.run(SSSPProgram(), 0, fragmentation=frag)

            frag.bump_version()  # version moved with no logged delta
            apply_delta(frag, GraphDelta().insert(0, "n", 0.5))

            rerun = engine.run(SSSPProgram(), 0, fragmentation=frag)
            assert rerun.metrics.fragments_delta_shipped == 0
            assert rerun.metrics.fragments_shipped > 0
            serial = GrapeEngine(2).run(SSSPProgram(), 0,
                                        fragmentation=frag)
            assert rerun.answer == serial.answer
        finally:
            backend.close()

    def test_close_stops_workers(self):
        backend = ProcessBackend()
        graph = uniform_random_graph(30, 80, seed=1)
        engine = GrapeEngine(2, backend=backend)
        engine.run(SSSPProgram(), 0, graph=graph)
        assert backend.pool_size > 0
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.run(SSSPProgram(), 0, graph=graph)

    def test_worker_exception_preserves_type_and_pool_survives(self):
        backend = ProcessBackend()
        try:
            graph = uniform_random_graph(30, 80, seed=1)
            engine = GrapeEngine(2, backend=backend)
            with pytest.raises(ExplodingError, match="boom in peval"):
                # raised worker-side; the type must survive the pipe
                engine.run(ExplodingProgram(), 0, graph=graph)
            # and the pool stays usable afterwards
            result = engine.run(SSSPProgram(), 0, graph=graph)
            assert result.supersteps >= 1
        finally:
            backend.close()


class TestMetricsPlumbing:
    def test_pipe_bytes_zero_for_inline(self):
        graph = uniform_random_graph(50, 150, seed=2)
        for backend in ("serial", "thread"):
            result = GrapeEngine(2, backend=backend).run(
                SSSPProgram(), 0, graph=graph)
            assert result.metrics.backend == backend
            assert result.metrics.pipe_bytes == 0
            assert result.metrics.wall_clock_s > 0

    def test_pipe_bytes_positive_for_process(self):
        graph = uniform_random_graph(50, 150, seed=2)
        result = GrapeEngine(2, backend="process").run(
            SSSPProgram(), 0, graph=graph)
        assert result.metrics.backend == "process"
        assert result.metrics.pipe_bytes > 0

    def test_absorb_tracks_backend_and_pipe(self):
        from repro.runtime.metrics import RunMetrics
        a = RunMetrics(backend="process", pipe_bytes=10, wall_clock_s=1.0)
        a.absorb(RunMetrics(backend="process", pipe_bytes=5,
                            wall_clock_s=0.5))
        assert a.backend == "process"
        assert a.pipe_bytes == 15
        assert a.wall_clock_s == 1.5
        a.absorb(RunMetrics(backend="serial"))
        assert a.backend == "mixed"


class TestSharedMemoryPlane:
    """The zero-copy fragment plane: descriptor shipping, graceful
    fallback, and arena refcount hygiene."""

    needs_shm = pytest.mark.skipif(not shm.shm_available(),
                                   reason="no shared-memory provider here")

    @needs_shm
    def test_cold_lease_ships_descriptors_not_bytes(self):
        backend = ProcessBackend()
        try:
            graph = uniform_random_graph(60, 200, seed=21)
            engine = GrapeEngine(2, backend=backend)
            frag = engine.make_fragmentation(graph)
            result = engine.run(SSSPProgram(), 0, fragmentation=frag)
            # fragments were transferred (descriptors), but no fragment
            # pickle bytes crossed the pipe
            assert result.metrics.fragments_shipped > 0
            assert result.metrics.fragment_bytes_shipped == 0
            assert result.metrics.shm_fallbacks == 0
            assert result.metrics.shm_segments_active > 0
            assert result.metrics.shm_bytes_mapped > 0
            # control plane is the whole pipe story
            assert (result.metrics.control_plane_bytes
                    == result.metrics.pipe_bytes)
            serial = GrapeEngine(2).run(SSSPProgram(), 0,
                                        fragmentation=frag)
            assert result.answer == serial.answer
        finally:
            backend.close()

    def test_without_shm_ships_pickled_fragments(self, monkeypatch):
        monkeypatch.setattr(shm, "provider", lambda: None)
        backend = ProcessBackend()
        try:
            graph = uniform_random_graph(50, 160, seed=22)
            engine = GrapeEngine(2, backend=backend)
            result = engine.run(SSSPProgram(), 0, graph=graph)
            assert result.metrics.fragments_shipped > 0
            assert result.metrics.fragment_bytes_shipped > 0
            assert result.metrics.shm_fallbacks == 0
            assert result.metrics.shm_segments_active == 0
            assert backend.shm_stats() == (0, 0)
        finally:
            backend.close()

    @needs_shm
    def test_attach_fault_degrades_to_pickle_with_same_answer(self):
        from repro.resilience.faults import FaultPlane, installed

        backend = ProcessBackend()
        try:
            graph = uniform_random_graph(50, 170, seed=23)
            engine = GrapeEngine(2, backend=backend)
            frag = engine.make_fragmentation(graph)
            plane = FaultPlane(seed=3).plan("exec.shm.attach", "error",
                                            at=1, times=8)
            with installed(plane):
                faulted = engine.run(SSSPProgram(), 0, fragmentation=frag)
            assert faulted.metrics.shm_fallbacks > 0
            assert faulted.metrics.fragment_bytes_shipped > 0
            serial = GrapeEngine(2).run(SSSPProgram(), 0,
                                        fragmentation=frag)
            assert faulted.answer == serial.answer
            # the next (fault-free) lease reuses the worker cache: no
            # re-ship, no new fallbacks
            clean = engine.run(SSSPProgram(), 0, fragmentation=frag)
            assert clean.metrics.shm_fallbacks == 0
            assert clean.metrics.fragment_bytes_shipped == 0
            assert clean.answer == serial.answer
        finally:
            backend.close()

    @needs_shm
    def test_arena_refcounts_drain_on_close(self):
        backend = ProcessBackend(max_workers=1)
        try:
            engine = GrapeEngine(2, backend=backend)
            # churn more fragmentations than the worker cache holds so
            # LRU eviction must release pins along the way
            for seed in range(10):
                graph = uniform_random_graph(25, 70, seed=seed)
                engine.run(SSSPProgram(), 0, graph=graph)
        finally:
            backend.close()
        assert backend._arena.ref_leaks == 0
        assert backend.shm_stats() == (0, 0)
