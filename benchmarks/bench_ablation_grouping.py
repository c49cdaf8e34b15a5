"""Ablation: dynamic message grouping (paper Section 6).

GRAPE batches all border-node updates to one destination behind a single
"dummy node" envelope.  This bench replays the messages of a GRAPE SSSP
run and compares batched vs. per-update wire size — the savings the paper
attributes to dynamic grouping.
"""

import pytest

from _common import TRAFFIC_SCALE, record
from repro.core.coordinator import DictCoordinator
from repro.core.engine import GrapeEngine
from repro.optim.grouping import grouping_savings
from repro.pie_programs import SSSPProgram
from repro.workloads import sample_sources, traffic_like


def run_ablation():
    graph = traffic_like(scale=TRAFFIC_SCALE)
    source = sample_sources(graph, 1, seed=5)[0]
    engine = GrapeEngine(8)

    captured = []
    original = DictCoordinator._compose

    def capture(self, dirty):
        messages = original(self, dirty)
        captured.extend(messages.values())
        return messages

    DictCoordinator._compose = capture
    try:
        # use_csr=False: the dict plane, whose messages are the
        # {(node, name): value} dicts the byte helpers size
        engine.run(SSSPProgram(use_csr=False), query=source, graph=graph)
    finally:
        DictCoordinator._compose = original
    return grouping_savings(captured), len(captured)


def test_ablation_message_grouping(benchmark):
    summary, num_messages = benchmark.pedantic(run_ablation, rounds=1,
                                               iterations=1)
    assert num_messages > 0
    assert summary["grouped_bytes"] <= summary["ungrouped_bytes"]
    assert summary["savings_fraction"] >= 0.0

    text = "\n".join([
        "Dynamic grouping ablation (GRAPE SSSP messages)",
        f"messages captured:  {num_messages}",
        f"grouped bytes:      {summary['grouped_bytes']:.0f}",
        f"ungrouped bytes:    {summary['ungrouped_bytes']:.0f}",
        f"savings:            {100 * summary['savings_fraction']:.1f}%",
    ])
    record("ablation_grouping", text)


if __name__ == "__main__":
    print(run_ablation())
