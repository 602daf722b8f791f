"""Timing of the calls the benchmark makes into each layer.

Every call into a layer is timed as a span named ``<layer>.<call>``.
A span records its start and end, the span that caused it, and the id
shared by every span of one design check or one served job.  When a
:class:`~gauge.SpeedGauge` is attached, each innermost span is also
scaled to the reference speed (see ``gauge.py``) and the scaled
seconds are summed in :attr:`SpanRecorder.seconds`.

Only a recording recorder keeps its spans; they stay in memory until
:meth:`SpanRecorder.write_chrome` exports them through the program's
own Chrome trace exporter.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.trace.export import write_chrome

from gauge import SpeedGauge


class SpanRecorder:
    """Times spans; keeps them only when ``record`` is set."""

    def __init__(self, record: bool = True, gauge: Optional[SpeedGauge] = None) -> None:
        self.record = record
        self.gauge = gauge
        self.spans: List[Dict] = []
        #: Reference-speed seconds of every innermost span so far.
        self.seconds = 0.0
        self._stack: List[Dict] = []

    @contextmanager
    def span(self, name: str, trace_id: str) -> Iterator[None]:
        """Time the enclosed call as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent["leaf"] = False
        frame = {"name": name, "id": trace_id, "leaf": True,
                 "parent": parent["index"] if parent is not None else None,
                 "index": len(self.spans) if self.record else None}
        if self.record:
            self.spans.append(frame)
        self._stack.append(frame)
        frame["start"] = time.perf_counter()
        try:
            yield
        finally:
            frame["end"] = time.perf_counter()
            self._stack.pop()
            factor = None
            if frame["leaf"] and self.gauge is not None:
                factor = self.gauge.factor()
                self.seconds += (frame["end"] - frame["start"]) * factor
            frame["factor"] = factor

    def add(self, name: str, trace_id: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere; returns its index."""
        self.spans.append({"name": name, "id": trace_id, "parent": parent,
                           "index": len(self.spans), "start": start, "end": end,
                           "factor": None})
        return len(self.spans) - 1

    def _factors(self) -> List[float]:
        """Per-span scale: measured for innermost spans, the duration-weighted
        mean of the children for enclosing ones, 1 where nothing was gauged."""
        weight = [0.0] * len(self.spans)
        scaled = [0.0] * len(self.spans)
        for span in self.spans:
            if span["factor"] is not None and span["parent"] is not None:
                duration = span["end"] - span["start"]
                weight[span["parent"]] += duration
                scaled[span["parent"]] += duration * span["factor"]
        return [
            span["factor"] if span["factor"] is not None
            else (scaled[i] / weight[i] if weight[i] else 1.0)
            for i, span in enumerate(self.spans)
        ]

    def totals(self) -> Dict[str, float]:
        """Scaled seconds per span name."""
        out: Dict[str, float] = {}
        for span, factor in zip(self.spans, self._factors()):
            out[span["name"]] = out.get(span["name"], 0.0) + (span["end"] - span["start"]) * factor
        return out

    def self_times(self) -> Dict[str, float]:
        """Scaled seconds per layer spent in its own spans but not their children.

        A span's self time is its duration minus the part of it that its
        child spans cover; children of one span never overlap.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span["parent"]
            if parent is not None:
                outer = self.spans[parent]
                lo = max(span["start"], outer["start"])
                hi = min(span["end"], outer["end"])
                covered[parent] += max(0.0, hi - lo)
        out: Dict[str, float] = {}
        for span, child_time, factor in zip(self.spans, covered, self._factors()):
            layer = span["name"].split(".", 1)[0]
            own = max(0.0, span["end"] - span["start"] - child_time)
            out[layer] = out.get(layer, 0.0) + own * factor
        return out

    def write_chrome(self, path: str) -> int:
        """Export as Chrome trace JSON; returns the number of events."""
        events = [
            {
                "ph": "X", "name": span["name"], "cat": span["name"].split(".", 1)[0],
                "ts": span["start"], "dur": span["end"] - span["start"], "tid": 0,
                "args": {"id": span["id"], "parent": span["parent"], "span": span["index"],
                         "speed_factor": span["factor"]},
            }
            for span in self.spans
        ]
        return write_chrome(events, path, process_name="perfbench")
