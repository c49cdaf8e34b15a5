"""Graph-level optimizations: indexing and message grouping."""

from repro.optim.grouping import (grouped_bytes, grouping_savings,
                                  ungrouped_bytes)
from repro.optim.indexing import (IndexedSimCandidates, NeighborhoodIndex,
                                  TwoHopIndex)

__all__ = [
    "NeighborhoodIndex", "IndexedSimCandidates", "TwoHopIndex",
    "grouped_bytes", "ungrouped_bytes", "grouping_savings",
]
