"""Tests for the built-in partition strategies."""

import os
import subprocess
import sys

import pytest

from repro.graph.generators import (preferential_attachment,
                                    uniform_random_graph)
from repro.partition.base import cut_edges, replication_factor
from repro.partition.strategies import (STRATEGIES, HashPartition,
                                        MetisLikePartition, RangePartition,
                                        StreamingPartition,
                                        VertexCutPartition, get_strategy)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
EDGE_CUT_STRATEGIES = [HashPartition, RangePartition, StreamingPartition,
                       MetisLikePartition]


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(120, 400, seed=11)


@pytest.mark.parametrize("cls", EDGE_CUT_STRATEGIES)
class TestEdgeCutStrategies:
    def test_assign_covers_all_nodes(self, cls, graph):
        assignment = cls().assign(graph, 4)
        assert set(assignment) == set(graph.nodes())
        assert all(0 <= fid < 4 for fid in assignment.values())

    def test_partition_validates(self, cls, graph):
        frag = cls().partition(graph, 4)
        frag.validate()
        assert frag.num_fragments == 4

    def test_single_fragment(self, cls, graph):
        frag = cls().partition(graph, 1)
        frag.validate()
        assert frag[0].owned == set(graph.nodes())

    def test_deterministic(self, cls, graph):
        a = cls().assign(graph, 3)
        b = cls().assign(graph, 3)
        assert a == b


class TestBalance:
    @pytest.mark.parametrize("cls", [HashPartition, RangePartition,
                                     StreamingPartition,
                                     MetisLikePartition])
    def test_roughly_balanced(self, cls, graph):
        assignment = cls().assign(graph, 4)
        sizes = [0] * 4
        for fid in assignment.values():
            sizes[fid] += 1
        assert max(sizes) <= 3 * (graph.num_nodes // 4)


class TestCutQuality:
    def test_metis_beats_hash(self):
        """Multilevel partitioning should cut far fewer edges than hash on
        a clustered graph."""
        g = preferential_attachment(300, edges_per_node=4, seed=3)
        hash_cut = cut_edges(g, HashPartition().assign(g, 4))
        metis_cut = cut_edges(g, MetisLikePartition().assign(g, 4))
        assert metis_cut < hash_cut

    def test_streaming_beats_random_hash(self):
        g = preferential_attachment(300, edges_per_node=4, seed=4)
        hash_cut = cut_edges(g, HashPartition().assign(g, 4))
        ldg_cut = cut_edges(g, StreamingPartition().assign(g, 4))
        assert ldg_cut < hash_cut


class TestVertexCutStrategy:
    def test_partition(self, graph):
        frag = VertexCutPartition().partition(graph, 4)
        frag.validate()
        # Every edge placed exactly once.
        total_edges = sum(f.num_edges for f in frag)
        assert total_edges == graph.num_edges

    def test_replication_reasonable(self, graph):
        frag = VertexCutPartition().partition(graph, 4)
        assert 1.0 <= replication_factor(frag) <= 4.0

    def test_assign_raises(self, graph):
        with pytest.raises(NotImplementedError):
            VertexCutPartition().assign(graph, 2)

    def test_invalid_fragment_count(self, graph):
        with pytest.raises(ValueError):
            VertexCutPartition().partition(graph, 0)


class TestRegistry:
    def test_all_registered(self):
        assert set(STRATEGIES) == {"hash", "range", "streaming", "metis",
                                   "vertex-cut"}

    def test_get_strategy(self):
        assert isinstance(get_strategy("metis"), MetisLikePartition)

    def test_get_strategy_kwargs(self):
        s = get_strategy("streaming", slack=1.5)
        assert s.slack == 1.5

    def test_get_strategy_unknown(self):
        with pytest.raises(ValueError, match="unknown partition strategy"):
            get_strategy("magic")

    def test_retired_grid_strategy_is_unknown(self):
        with pytest.raises(ValueError, match="unknown partition strategy"):
            get_strategy("grid")

    def test_zero_fragments_rejected(self, graph):
        with pytest.raises(ValueError):
            HashPartition().partition(graph, 0)


class TestAmbientSeedingIndependence:
    """Partitioning must be a pure function of (graph, strategy params):
    an explicitly seeded ``random.Random`` is threaded through every
    randomized phase, so ambient ``random.seed(...)`` calls cannot move
    nodes between fragments (regression: the serving layer caches
    fragmentations and ships fragments by content)."""

    @pytest.mark.parametrize("cls", [StreamingPartition, MetisLikePartition])
    def test_global_seed_does_not_change_assignment(self, cls, graph):
        import random as random_module
        random_module.seed(12345)
        first = cls().assign(graph, 4)
        random_module.seed(99999)
        second = cls().assign(graph, 4)
        # drain the global stream mid-everything, then again
        random_module.random()
        third = cls().assign(graph, 4)
        assert first == second == third

    @pytest.mark.parametrize("cls", [StreamingPartition, MetisLikePartition])
    def test_global_stream_not_consumed(self, cls, graph):
        """Partitioning must not advance the global generator either —
        callers interleaving their own seeded global draws would
        otherwise diverge depending on whether they partitioned."""
        import random as random_module
        random_module.seed(7)
        expected = [random_module.random() for _ in range(5)]
        random_module.seed(7)
        cls().assign(graph, 4)
        observed = [random_module.random() for _ in range(5)]
        assert observed == expected

    @pytest.mark.parametrize("cls", [StreamingPartition, MetisLikePartition])
    def test_distinct_seeds_are_honored(self, cls, graph):
        a = cls(seed=0).assign(graph, 4)
        b = cls(seed=1).assign(graph, 4)
        c = cls(seed=0).assign(graph, 4)
        assert a == c
        # distinct seeds *may* coincide on tiny graphs, but not here
        assert a != b

    def test_stable_across_hash_seeds(self):
        """Regression: the initial partition spilled unreached nodes in
        set order, so tuple-labelled graphs (``ratings_like``) were cut
        differently in every process."""
        code = ("from repro.workloads import ratings_like;"
                "from repro.partition.strategies import MetisLikePartition;"
                "print(sorted(MetisLikePartition().assign("
                "ratings_like(scale=0.1)[0], 4).items()))")
        procs = [subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC))
            for seed in ("0", "1")]
        assert len({proc.communicate(timeout=120)[0] for proc in procs}) == 1
        assert [proc.returncode for proc in procs] == [0, 0]
