"""GRAPE core: the PIE model, parallel engine and simulation compilers."""

from repro.core.aggregators import (Aggregator, ConflictError,
                                    DefaultExceptionAggregator,
                                    LatestTimestampAggregator, MaxAggregator,
                                    MinAggregator)
from repro.core.api import PIERegistry, default_registry
from repro.core.bsp_sim import BSPProgram, run_bsp_on_grape
from repro.core.coordinator import MonotonicityViolation
from repro.core.engine import GrapeEngine, GrapeResult
from repro.core.mapreduce_sim import MapReduceJob, run_mapreduce_on_grape
from repro.core.pie import ParamKey, ParamUpdates, PIEProgram
from repro.core.pram_sim import CREWViolation, PRAMProgram, run_pram_on_grape
from repro.core.updates import (ContinuousQuerySession, apply_delta,
                                apply_insertions)

__all__ = [
    "PIEProgram", "ParamKey", "ParamUpdates", "GrapeEngine", "GrapeResult",
    "Aggregator", "MinAggregator", "MaxAggregator",
    "LatestTimestampAggregator", "DefaultExceptionAggregator",
    "ConflictError", "MonotonicityViolation",
    "PIERegistry", "default_registry", "BSPProgram", "run_bsp_on_grape",
    "MapReduceJob", "run_mapreduce_on_grape", "PRAMProgram",
    "run_pram_on_grape", "CREWViolation", "ContinuousQuerySession",
    "apply_delta", "apply_insertions",
]
