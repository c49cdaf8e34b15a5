"""Dynamic message grouping savings."""

from repro.core.coordinator import DictCoordinator
from repro.core.engine import GrapeEngine
from repro.graph.generators import grid_road_graph
from repro.optim.grouping import (grouped_bytes, grouping_savings,
                                  ungrouped_bytes)
from repro.pie_programs import SSSPProgram


class TestGrouping:
    def test_grouped_smaller_for_batches(self):
        message = {(v, "dist"): float(v) for v in range(50)}
        assert grouped_bytes(message) < ungrouped_bytes(message)

    def test_single_entry_no_benefit(self):
        message = {(1, "dist"): 2.0}
        assert grouped_bytes(message) == ungrouped_bytes(message)

    def test_savings_summary(self):
        messages = [{(v, "dist"): float(v) for v in range(20)}
                    for _ in range(5)]
        summary = grouping_savings(messages)
        assert summary["grouped_bytes"] < summary["ungrouped_bytes"]
        assert 0.0 < summary["savings_fraction"] < 1.0

    def test_empty_stream(self):
        summary = grouping_savings([])
        assert summary["savings_fraction"] == 0.0

    def test_empty_messages_skipped(self):
        summary = grouping_savings([{}, {}])
        assert summary["grouped_bytes"] == 0.0

    def test_a_grape_sssp_run_saves(self, monkeypatch):
        """Dynamic grouping (paper Section 6) on the messages one GRAPE
        SSSP run composes: the dict plane's ``{(node, name): value}``
        messages, one envelope per destination against one per update."""
        captured = []
        compose = DictCoordinator._compose

        def capture(self, dirty):
            messages = compose(self, dirty)
            captured.extend(messages.values())
            return messages

        monkeypatch.setattr(DictCoordinator, "_compose", capture)
        GrapeEngine(8, backend="serial").run(
            SSSPProgram(use_csr=False), query=0,
            graph=grid_road_graph(12, 12, seed=3))
        summary = grouping_savings(captured)
        assert captured
        assert summary["grouped_bytes"] < summary["ungrouped_bytes"]
        assert 0.0 < summary["savings_fraction"] < 1.0
