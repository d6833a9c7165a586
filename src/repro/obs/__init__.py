"""Run telemetry: time-series, structured events, profiling, manifests.

Every figure in the paper is a time-series or a tail statistic, so the
simulator needs more than aggregate counters: this package is the
observability layer the experiments (and every future performance PR)
measure themselves with.  It has four pieces, all *pure observers* —
attaching any of them never changes simulated behavior (the golden-trace
tests run with all of them enabled):

* :class:`~repro.obs.timeseries.TimeSeriesRecorder` — per-sample-window
  series of the engine's counters and populations (delivered/injected/dummy
  cells, token and control traffic, queued and in-flight cells, queue/PIEO
  occupancy), cheap enough to leave on by default.
* :class:`~repro.obs.events.EventLog` — one structured ``(t, kind, payload)``
  stream with pluggable sinks (JSONL file, in-memory ring, callback)
  unifying flow lifecycle, run-monitor violations and failure-protocol
  detections under a canonical, deterministic serialisation.
* :class:`~repro.obs.profiler.StepProfiler` — per-section wall-clock
  accounting of the engine step (faults/deliver/inject/tx/sample/monitor),
  zero overhead when not attached.
* :func:`~repro.obs.manifest.run_manifest` — an end-of-run record of what
  ran (config, seed, shape) and how fast (slots/sec, peak RSS), split into
  a deterministic part and a volatile runtime part.

:class:`~repro.obs.capture.TelemetryCapture` ties them together for the
experiment runner: inside a capture context every engine constructed
anywhere (including in :func:`repro.sim.parallel.sweep` workers) is
instrumented automatically and its series/summary/manifest are collected
into the runner's ``--telemetry`` artifacts.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".capture": ("TelemetryCapture", "current_capture"),
    ".events": ("CallbackSink", "EventLog", "FileSink", "RingSink",
                "encode_event"),
    ".manifest": ("run_manifest",),
    ".profiler": ("StepProfiler",),
    ".serialize": ("canonical_json", "to_jsonable"),
    ".timeseries": ("TimeSeriesRecorder",),
})
