"""Packet-level discrete-timeslot simulator for Shale networks."""

from .backends import (
    EngineBackend,
    backend_names,
    default_backend,
    set_default_backend,
)
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointPolicy,
    CheckpointWriter,
    default_policy,
    load_checkpoint,
    load_checkpoint_or_none,
    save_checkpoint,
    set_default_policy,
)
from .config import PAPER_TIMING, SimConfig, TimingModel
from .engine import Engine, ScheduledFlow
from .flows import Flow, FlowRecord, FlowTable
from .metrics import MetricsCollector, percentile
from .monitor import ConservationError, RunMonitor
from .multiclass import MultiClassSimulation
from .node import ControlMessage, Node, Transmission
from .parallel import default_workers, sweep
from .pieo import PieoQueue
from .reorder import ReorderBuffer, ReorderTracker
from .trace import CellTrace, CellTracer, TraceError, validate_trace

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointWriter",
    "ConservationError",
    "ControlMessage",
    "Engine",
    "EngineBackend",
    "backend_names",
    "default_backend",
    "set_default_backend",
    "default_policy",
    "load_checkpoint",
    "load_checkpoint_or_none",
    "save_checkpoint",
    "set_default_policy",
    "RunMonitor",
    "Flow",
    "FlowRecord",
    "FlowTable",
    "MetricsCollector",
    "MultiClassSimulation",
    "Node",
    "PAPER_TIMING",
    "PieoQueue",
    "CellTrace",
    "CellTracer",
    "TraceError",
    "validate_trace",
    "ScheduledFlow",
    "SimConfig",
    "TimingModel",
    "Transmission",
    "percentile",
    "ReorderBuffer",
    "ReorderTracker",
    "default_workers",
    "sweep",
]
