"""In-memory spans around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, unit)``.  ``name`` is
``"<layer>:<call>"`` with the layer spelled as the module under ``repro``
that owns the call (``sim.engine:run``, ``workloads:poisson_workload``),
``parent`` is the index of the span that was open when this one started,
and ``unit`` ties together the spans of one unit of work.  Spans are kept
in a list while the run measures and written out once, when it ends.

Spans are recorded from the benchmark's own files only — nothing inside
``repro`` is instrumented — so a layer's *self time* is its span minus the
part of that interval its child spans cover, and a layer the benchmark
cannot see into (a forked sweep worker, the server process) shows as one
opaque span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Tracer"]


class Tracer:
    """Records spans; reduces them to self time per name and per layer."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        #: identifier stamped on every span started from now on
        self.unit: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one span named ``name``."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def add_child(self, name: str, seconds: float) -> None:
        """Attribute ``seconds`` of the innermost open span to a child
        measured by other means (the engine's own ``StepProfiler`` splits a
        ``run`` into sections the benchmark cannot bracket itself)."""
        parent = self._open[-1]
        start = self.spans[parent][1]
        self.spans.append([name, start, start + seconds, parent, self.unit])

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus children."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def counts(self) -> Dict[str, int]:
        """How many spans carry each name."""
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return dict(counts)

    def layer_table(self) -> List[dict]:
        """One row per layer: calls, self seconds and share of all self
        time, largest first."""
        per_layer: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        counts = self.counts()
        for name, seconds in self.self_seconds().items():
            row = per_layer[name.split(":", 1)[0]]
            row[0] += counts[name]
            row[1] += seconds
        total = sum(row[1] for row in per_layer.values()) or 1.0
        return [
            {"layer": layer, "calls": calls, "self_s": seconds,
             "share": seconds / total}
            for layer, (calls, seconds) in sorted(
                per_layer.items(), key=lambda item: -item[1][1])
        ]

    def write(self, path) -> None:
        """Dump every span and the per-layer reduction as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [
                {"name": name, "start_s": start - origin,
                 "end_s": end - origin, "parent": parent, "unit": unit}
                for name, start, end, parent, unit in self.spans
            ],
            "layers": self.layer_table(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
