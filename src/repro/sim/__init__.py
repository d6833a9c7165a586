"""Packet-level discrete-timeslot simulator for Shale networks."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".backends": ("EngineBackend", "backend_names", "default_backend",
                  "set_default_backend"),
    ".checkpoint": ("Checkpoint", "CheckpointError", "CheckpointPolicy",
                    "CheckpointWriter", "default_policy", "load_checkpoint",
                    "load_checkpoint_or_none", "save_checkpoint",
                    "set_default_policy"),
    ".config": ("PAPER_TIMING", "SimConfig", "TimingModel"),
    ".engine": ("Engine", "ScheduledFlow"),
    ".flows": ("CompletedFlows", "Flow", "FlowTable"),
    ".metrics": ("MetricsCollector", "percentile"),
    ".monitor": ("ConservationError", "RunMonitor"),
    ".multiclass": ("MultiClassSimulation",),
    ".node": ("ControlMessage", "Node", "Transmission"),
    ".parallel": ("default_workers", "sweep"),
    ".pieo": ("PieoQueue",),
    ".reorder": ("ReorderBuffer", "ReorderTracker"),
    ".trace": ("CellTrace", "CellTracer", "TraceError", "validate_trace"),
})
