"""Serving-layer observability of CSR snapshot reuse."""

from repro.graph.generators import uniform_random_graph
from repro.pie_programs import PageRankQuery
from repro.service import GrapeService


def make_service():
    service = GrapeService()
    service.load_graph("g", uniform_random_graph(40, 140, seed=3))
    return service


class TestServiceCSRCounters:
    def test_play_builds_snapshots_once(self):
        with make_service() as service:
            service.play("sssp", query=0, graph="g")
            built = service.stats.csr_snapshots_built
            assert built > 0
            # Same cached fragmentation, snapshots reused.
            service.play("sssp", query=1, graph="g")
            service.play("bfs", query=0, graph="g")
            assert service.stats.csr_snapshots_built == built
            assert service.stats.csr_snapshot_invalidations == 0

    def test_insert_edges_counts_invalidations(self):
        with make_service() as service:
            watch = service.watch("sssp", 0, graph="g")
            assert service.stats.csr_snapshots_built > 0
            service.insert_edges("g", [(0, 39, 0.01)])
            assert service.stats.csr_snapshot_invalidations >= 1
            assert watch.answer[39] <= 0.01

    def test_first_read_after_a_write_splices(self):
        with make_service() as service:
            service.play("sssp", query=0, graph="g")
            built = service.stats.csr_snapshots_built
            service.insert_edges("g", [(0, 39, 0.01)])
            assert service.stats.csr_snapshots_patched == 0  # lazily
            ticket = service.play("sssp", query=0, graph="g")
            assert ticket.answer[39] <= 0.01
            stats = service.stats
            assert stats.csr_snapshots_built == built
            assert stats.csr_snapshots_patched \
                == stats.csr_snapshot_invalidations >= 1
            assert (stats.border_index_builds,
                    stats.border_index_patches) == (1, 1)
            exported = service.debug_report()["metrics"]
            assert exported["repro_csr_snapshots_patched"] \
                == stats.csr_snapshots_patched
            assert exported["repro_border_index_patches"] == 1
            assert "repro_csr_snapshots_patched 1" \
                in service.expose_metrics()

    def test_counters_survive_cache_retirement(self):
        with make_service() as service:
            service.play("sssp", query=0, graph="g")
            built = service.stats.csr_snapshots_built
            assert built > 0
            service.load_graph("g", uniform_random_graph(40, 140, seed=4),
                               replace=True)
            service.play("sssp", query=0, graph="g")
            assert service.stats.csr_snapshots_built > built

    def test_retired_fragmentations_hold_no_arrays(self):
        """A handle on a retired fragmentation (a caller's, an old
        ticket's) must not pin its snapshots: live or waiting to be
        spliced, the ``F_i.O`` slot maps, the border index."""
        # (inline backend: on the process backend the slot maps live in
        # the workers)
        service = GrapeService(backend="serial")
        service.load_graph("g", uniform_random_graph(40, 140, seed=3))
        service.play("sssp", query=0, graph="g")
        service.play("pagerank", PageRankQuery(max_iterations=3), graph="g")
        service.insert_edges("g", [(0, 39, 0.01)])  # retires snapshots
        held = service.fragmentation("g")
        assert any(frag._csr_pending is not None for frag in held)
        assert any(frag._outer_slots is not None for frag in held)
        assert held._border_index is not None
        patched = service.stats.border_index_patches
        service.close()
        assert held._border_index is None
        for frag in held:
            assert frag._csr is None and frag._csr_pending is None
            assert frag._outer_slots is None
        # ... and what it counted is still in the service's totals
        assert service.stats.csr_snapshots_built >= len(held.fragments)
        assert service.stats.border_index_patches == patched

    def test_repr_folds_counters_in(self):
        with make_service() as service:
            service.play("cc", graph="g")
            assert "csr=" in repr(service)
            assert "csr=" in repr(service.stats)
