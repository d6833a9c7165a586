"""Run-health watchdog: cell conservation, stall detection, resilience report.

Fault-injection runs are exactly the runs where silent accounting bugs hide:
a cell that vanishes at a failed receiver without a drop counter, a queue
that leaks on recovery, a credit deadlock that freezes the run while dummy
traffic keeps flowing.  :class:`RunMonitor` plugs into the engine's step
loop and checks, every sample window, the cell-conservation invariant

    injected == delivered + dropped + trimmed + queued + in-flight

over *payload* cells, and watches for stalls (backlog without progress) and
livelock (backlog without progress while the wire stays busy).  At the end
of a run :meth:`report` emits a structured resilience report — conservation
checks, violations, stalls, per-failure-event detection latency and drop
attribution — that is byte-identical across runs with the same seed.
"""

from __future__ import annotations

import json
from typing import Dict, List

__all__ = ["RunMonitor", "ConservationError"]


class ConservationError(RuntimeError):
    """The cell-conservation invariant failed (a cell leaked or was forged)."""


class RunMonitor:
    """Watchdog attached to an :class:`~repro.sim.engine.Engine`.

    Conservation is checked every ``metrics_sample_interval`` slots of
    the engine's config.

    Args:
        stall_window_epochs: epochs without any progress (while payload
            backlog exists) before a stall is recorded.
        strict: raise :class:`ConservationError` on the first violation
            instead of recording it.

    Usage::

        monitor = RunMonitor(strict=True).attach(engine)
        engine.run()
        print(monitor.format_report())
    """

    def __init__(self, stall_window_epochs: int = 50, strict: bool = False):
        if stall_window_epochs < 1:
            raise ValueError("stall window must be at least one epoch")
        self.stall_window_epochs = stall_window_epochs
        self.strict = strict
        self._engine = None
        self._interval = 1
        self._stall_slots = 0
        self.checks = 0
        self.violations: List[Dict[str, int]] = []
        self.stalls: List[Dict[str, int]] = []
        self._last_progress = -1
        self._last_progress_t = 0
        self._sent_at_progress = 0
        self._stalled = False
        self._report_emitted = False

    def attach(self, engine) -> "RunMonitor":
        """Hook this monitor into ``engine`` and return it."""
        self._engine = engine
        engine.monitor = self
        self._interval = engine.config.metrics_sample_interval
        self._stall_slots = self.stall_window_epochs * engine.schedule.epoch_length
        self._last_progress_t = engine.t
        # a restored engine may carry monitor state from its checkpoint,
        # waiting for a monitor to be attached
        pending = engine._pending_restore
        if pending and "monitor" in pending:
            self.load_state(pending.pop("monitor"))
        return self

    def state_dict(self) -> dict:
        """Counters and progress markers (checkpoint encoding)."""
        return {
            "checks": self.checks,
            "violations": [dict(v) for v in self.violations],
            "stalls": [dict(s) for s in self.stalls],
            "last_progress": self._last_progress,
            "last_progress_t": self._last_progress_t,
            "sent_at_progress": self._sent_at_progress,
            "stalled": self._stalled,
        }

    def load_state(self, state: dict) -> None:
        self.checks = state["checks"]
        self.violations[:] = [dict(v) for v in state["violations"]]
        self.stalls[:] = [dict(s) for s in state["stalls"]]
        self._last_progress = state["last_progress"]
        self._last_progress_t = state["last_progress_t"]
        self._sent_at_progress = state["sent_at_progress"]
        self._stalled = state["stalled"]

    # ------------------------------------------------------------------ #
    # per-step hook (called by Engine.step)

    def on_step_end(self, engine, t: int) -> None:
        if t % self._interval:
            return
        self.check(engine, t)

    def check(self, engine, t: int) -> None:
        """Run one conservation + progress check at slot ``t``."""
        metrics = engine.metrics
        queued = sum(node.total_enqueued for node in engine.nodes)
        in_flight = engine._in_flight_payload
        accounted = (
            metrics.payload_cells_delivered
            + metrics.cells_dropped
            + metrics.cells_trimmed
            + queued
            + in_flight
        )
        self.checks += 1
        if metrics.cells_injected != accounted:
            violation = {
                "t": t,
                "injected": metrics.cells_injected,
                "delivered": metrics.payload_cells_delivered,
                "dropped": metrics.cells_dropped,
                "trimmed": metrics.cells_trimmed,
                "queued": queued,
                "in_flight": in_flight,
                "missing": metrics.cells_injected - accounted,
            }
            self.violations.append(violation)
            if engine.events is not None:
                engine.events.emit(t, "conservation_violation",
                                   dict(violation))
            if self.strict:
                raise ConservationError(
                    f"cell conservation violated at t={t}: "
                    f"{violation['missing']:+d} cells unaccounted "
                    f"(injected={violation['injected']}, "
                    f"delivered={violation['delivered']}, "
                    f"dropped={violation['dropped']}, "
                    f"trimmed={violation['trimmed']}, "
                    f"queued={queued}, in_flight={in_flight})"
                )
        progress = (
            metrics.payload_cells_delivered
            + metrics.cells_dropped
            + metrics.cells_trimmed
        )
        backlog = queued + in_flight
        if progress != self._last_progress or backlog == 0:
            self._last_progress = progress
            self._last_progress_t = t
            self._sent_at_progress = metrics.cells_sent
            self._stalled = False
        elif not self._stalled and t - self._last_progress_t >= self._stall_slots:
            self._stalled = True
            busy = metrics.cells_sent > self._sent_at_progress
            stall = {
                "t": t,
                "since": self._last_progress_t,
                "backlog": backlog,
                "kind": "livelock" if busy else "stall",
            }
            self.stalls.append(stall)
            if engine.events is not None:
                engine.events.emit(t, "stall", dict(stall))

    # ------------------------------------------------------------------ #
    # reporting

    def report(self) -> Dict[str, object]:
        """Structured resilience report (JSON-serialisable, deterministic)."""
        engine = self._engine
        if engine is None:
            raise RuntimeError("monitor is not attached to an engine")
        metrics = engine.metrics
        queued = sum(node.total_enqueued for node in engine.nodes)
        out: Dict[str, object] = {
            "t": engine.t,
            "checks": self.checks,
            "violations": self.violations,
            "stalls": self.stalls,
            "totals": {
                "injected": metrics.cells_injected,
                "delivered": metrics.payload_cells_delivered,
                "dropped": metrics.cells_dropped,
                "wire_losses": metrics.wire_losses,
                "trimmed": metrics.cells_trimmed,
                "queued": queued,
                "in_flight": engine._in_flight_payload,
            },
        }
        manager = engine.failure_manager
        if manager is not None and hasattr(manager, "resilience_summary"):
            out["failures"] = manager.resilience_summary()
        return out

    def report_json(self) -> str:
        """The report as canonical JSON (byte-identical for a given seed)."""
        return json.dumps(self.report(), sort_keys=True)

    def scorecard_metrics(self) -> Dict[str, object]:
        """The report reduced to the flat metrics resilience scoring uses.

        One code path for the scenario scorecards, the ``--telemetry``
        runtime sidecar and ad-hoc runs: everything here is derived from
        :meth:`report`, so the numbers can never disagree between surfaces.
        Deterministic for a given seed.
        """
        rep = self.report()
        totals = rep["totals"]
        injected = totals["injected"]
        fail_events = []
        failures = rep.get("failures")
        if failures:
            fail_events = [e for e in failures["events"]
                           if e["action"] == "fail"]
        detected = [e["detect_first_slots"] for e in fail_events
                    if e["detect_first_slots"] is not None]
        return {
            "t": rep["t"],
            "delivery_ratio": (totals["delivered"] / injected
                               if injected else 1.0),
            "conserved": not rep["violations"],
            "checks": rep["checks"],
            "violations": len(rep["violations"]),
            "stalls": len(rep["stalls"]),
            "livelocks": sum(1 for s in rep["stalls"]
                             if s["kind"] == "livelock"),
            "dropped": totals["dropped"],
            "wire_losses": totals["wire_losses"],
            "backlog": totals["queued"] + totals["in_flight"],
            "failure_events": len(fail_events),
            "failures_detected": len(detected),
            "failures_undetected": len(fail_events) - len(detected),
            "detection_mean_slots": (sum(detected) / len(detected)
                                     if detected else None),
        }

    def emit_report_event(self) -> bool:
        """Emit the structured report into the engine's event log, once.

        Called by :class:`~repro.obs.capture.TelemetryCapture` at
        collection time so ``<experiment>.events.jsonl`` carries the same
        resilience report the scorecards score; safe to call repeatedly
        (only the first call emits) and a no-op without an event log.
        """
        engine = self._engine
        if engine is None or engine.events is None or self._report_emitted:
            return False
        self._report_emitted = True
        engine.events.emit(engine.t, "resilience_report", self.report())
        return True

    def format_report(self) -> str:
        """Human-readable rendering of :meth:`report`."""
        rep = self.report()
        totals = rep["totals"]
        lines = [
            f"run health @ t={rep['t']}: {rep['checks']} conservation checks, "
            f"{len(rep['violations'])} violations, {len(rep['stalls'])} stalls",
            "  cells: injected={injected}  delivered={delivered}  "
            "dropped={dropped} (wire {wire_losses})  trimmed={trimmed}  "
            "queued={queued}  in-flight={in_flight}".format(**totals),
        ]
        for stall in rep["stalls"]:
            lines.append(
                f"  {stall['kind']} at t={stall['t']}: no progress since "
                f"t={stall['since']} with backlog {stall['backlog']}"
            )
        failures = rep.get("failures")
        if failures:
            lines.append(
                f"  failure protocol: {failures['detections']} detections, "
                f"{failures['deaf_notices']} deaf notices, "
                f"{failures['undetects']} re-validations"
            )
            for event in failures["events"]:
                target = "/".join(str(x) for x in event["target"])
                detect = event["detect_first_slots"]
                detail = "undetected" if detect is None else (
                    f"first reaction +{detect} slots "
                    f"({event['detect_first_epochs']} epochs), "
                    f"{event['reactions']} reactions"
                )
                lines.append(
                    f"    t={event['t']:>6} {event['action']:>7} "
                    f"{event['kind']} {target}: {detail}, "
                    f"{event['drops_after']} drops in window"
                )
        return "\n".join(lines)
