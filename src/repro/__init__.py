"""repro — a Python reproduction of GRAPE (Fan et al., SIGMOD 2017).

GRAPE parallelizes *whole sequential graph algorithms*: plug a batch
algorithm (``PEval``), an incremental algorithm (``IncEval``) and a
combiner (``Assemble``) into the engine, and it runs a simultaneous
fixpoint across graph fragments with correctness guaranteed under a
monotonic condition.

Quickstart (the serving facade)::

    from repro import Graph, GrapeService

    g = Graph(directed=True)
    g.add_edge("a", "b", weight=2.0)
    g.add_edge("b", "c", weight=1.0)

    service = GrapeService()
    service.load_graph("demo", g)
    ticket = service.play("sssp", query="a", graph="demo")
    print(ticket.answer)            # {"a": 0.0, "b": 2.0, "c": 3.0}
    print(ticket.metrics)           # supersteps / time / communication

Advanced (one engine run, no service)::

    from repro import GrapeEngine
    from repro.pie_programs import SSSPProgram

    result = GrapeEngine(num_workers=4).run(SSSPProgram(), query="a",
                                            graph=g)
"""

from repro.core.api import PIERegistry, default_registry
from repro.core.engine import EngineConfig, GrapeEngine, GrapeResult
from repro.core.pie import PIEProgram
from repro.core.updates import ContinuousQuerySession
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.partition.base import Fragmentation
from repro.partition.strategies import get_strategy
from repro.runtime.metrics import RunMetrics, ServiceMetrics
from repro.service import (GrapeService, QueryRequest, QueryTicket,
                           WatchHandle)
from repro.store import GraphStore

__version__ = "1.2.0"

__all__ = [
    "Graph", "GraphDelta", "GrapeEngine", "GrapeResult", "EngineConfig",
    "PIEProgram", "PIERegistry", "Fragmentation", "get_strategy",
    "RunMetrics", "ServiceMetrics", "default_registry",
    "ContinuousQuerySession", "GrapeService",
    "GraphStore", "QueryRequest", "QueryTicket", "WatchHandle",
    "__version__",
]
