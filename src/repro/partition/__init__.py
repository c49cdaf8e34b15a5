"""Graph partitioning: fragments, border sets, G_P, and strategies."""

from repro.partition.base import (Fragment, Fragmentation,
                                  FragmentationGraph, PartitionStrategy,
                                  build_edge_cut_fragments,
                                  build_vertex_cut_fragments, cut_edges,
                                  replication_factor)
from repro.partition.strategies import (STRATEGIES, HashPartition,
                                        MetisLikePartition, RangePartition,
                                        StreamingPartition,
                                        VertexCutPartition, get_strategy)

__all__ = [
    "Fragment", "Fragmentation", "FragmentationGraph", "PartitionStrategy",
    "build_edge_cut_fragments", "build_vertex_cut_fragments", "cut_edges",
    "replication_factor", "HashPartition", "RangePartition",
    "StreamingPartition", "MetisLikePartition", "VertexCutPartition",
    "get_strategy", "STRATEGIES",
]
