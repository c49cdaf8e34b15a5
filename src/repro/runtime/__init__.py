"""Simulated distributed runtime: cluster, messages, metrics, faults."""

from repro.runtime.cluster import LoadBalancer, SimulatedCluster
from repro.runtime.executors import (ExecutorBackend, ExecutorSession,
                                     ProcessBackend, SerialBackend,
                                     StepCommand, StepOutcome,
                                     ThreadBackend,
                                     UnpicklableProgramError,
                                     available_backends, resolve_backend)
from repro.runtime.fault import Arbitrator, WorkerFailure
from repro.runtime.message import DesignatedMessage, KeyValueMessage
from repro.runtime.metrics import (CostModel, RunMetrics,
                                   message_bytes)

__all__ = [
    "SimulatedCluster", "LoadBalancer", "CostModel",
    "RunMetrics", "message_bytes", "DesignatedMessage", "KeyValueMessage",
    "WorkerFailure", "Arbitrator",
    "ExecutorBackend", "ExecutorSession", "SerialBackend", "ThreadBackend",
    "ProcessBackend", "StepCommand", "StepOutcome",
    "UnpicklableProgramError", "available_backends", "resolve_backend",
]
