"""Simulated distributed runtime: backends, messages, metrics, faults."""

from repro.runtime.executors import (ExecutorBackend, ExecutorSession,
                                     ProcessBackend, SerialBackend,
                                     StepCommand, StepOutcome,
                                     ThreadBackend,
                                     UnpicklableProgramError,
                                     available_backends, resolve_backend)
from repro.runtime.fault import Arbitrator, WorkerFailure
from repro.runtime.message import DesignatedMessage, KeyValueMessage
from repro.runtime.metrics import CostModel, RunMetrics, message_bytes

__all__ = [
    "CostModel", "RunMetrics", "message_bytes", "DesignatedMessage",
    "KeyValueMessage", "WorkerFailure", "Arbitrator",
    "ExecutorBackend", "ExecutorSession", "SerialBackend", "ThreadBackend",
    "ProcessBackend", "StepCommand", "StepOutcome",
    "UnpicklableProgramError", "available_backends", "resolve_backend",
]
