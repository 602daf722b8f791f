"""Structured tracing for the verification pipeline.

A :class:`Tracer` records two kinds of typed events on a single
timeline:

* **spans** — nestable named intervals (``with tracer.span("reach")``)
  covering the pipeline phases: encode, transition-relation build,
  reachability, model checking, language containment, fuzz trials;
* **instants** — point events carrying structured arguments: one BDD
  garbage-collection sweep, one quantify schedule step, one BFS onion
  ring, one fixpoint iteration, one SCC seed, one worker task state
  change.

Events are plain dictionaries (picklable, JSON-serializable) with the
schema::

    {"ph": "X", "name": ..., "cat": ..., "ts": <perf_counter seconds>,
     "dur": <seconds>, "tid": 0, "depth": <nesting depth>, "args": {...}}
    {"ph": "i", "name": ..., "cat": ..., "ts": ..., "tid": 0,
     "depth": ..., "args": {...}}

``ts`` is an absolute :func:`time.perf_counter` reading.  On the
platforms we care about that clock is ``CLOCK_MONOTONIC``, which is
shared by every process of one boot, so events recorded in worker
processes line up with the parent's timeline after :meth:`absorb` (each
absorbed tracer gets its own ``tid`` lane).

The **disabled** tracer is the default everywhere and is near-free: each
emit site is one attribute check (``tracer.enabled``) or one method call
returning a shared no-op span.  Engines therefore instrument their hot
loops unconditionally and guard only the *argument computation* (node
counts, state counts) behind ``tracer.enabled``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

Event = Dict[str, Any]


class Span:
    """Handle for one open interval; closes (records) on ``__exit__``.

    Extra arguments discovered mid-span can be attached with
    :meth:`add`; they land in the recorded event's ``args``.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0.0
        self._depth = 0

    def add(self, **args: Any) -> None:
        """Attach further arguments to the span before it closes."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self._depth = tracer._depth
        tracer._depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._depth -= 1
        tracer.events.append(
            {
                "ph": "X",
                "name": self.name,
                "cat": self.cat,
                "ts": self._start,
                "dur": end - self._start,
                "tid": 0,
                "depth": self._depth,
                "args": self.args,
            }
        )
        return False


class _NullSpan:
    """Shared no-op span returned by a disabled tracer."""

    __slots__ = ()

    def add(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects structured events; disabled instances are near-free."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[Event] = []
        self._depth = 0
        self._next_tid = 1

    @classmethod
    def disabled(cls) -> "Tracer":
        """A fresh no-op tracer (the engine-wide default)."""
        return cls(enabled=False)

    # ------------------------------------------------------------------

    def span(self, name: str, cat: str = "", **args: Any):
        """Open a nestable interval; use as a context manager."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """Record a point event with structured arguments."""
        if not self.enabled:
            return
        self.events.append(
            {
                "ph": "i",
                "name": name,
                "cat": cat,
                "ts": time.perf_counter(),
                "tid": 0,
                "depth": self._depth,
                "args": args,
            }
        )

    # ------------------------------------------------------------------

    def absorb(self, other: "Tracer", tid: Optional[int] = None) -> int:
        """Fold another tracer's events in on a fresh ``tid`` lane.

        Used to merge per-worker traces into the parent: the worker
        recorded on its own tid 0 (plus lanes it absorbed itself); every
        lane is shifted so it cannot collide with an existing one.
        Returns the base tid assigned (-1 if ``other`` was empty).
        Absorbing works even on a disabled tracer, so traces survive
        multi-hop relays (worker -> detached stats -> parent).
        """
        if other is self or not other.events:
            return -1
        base = self._next_tid if tid is None else tid
        top = base
        for event in other.events:
            moved = dict(event)
            moved["tid"] = base + event.get("tid", 0)
            top = max(top, moved["tid"])
            self.events.append(moved)
        self._next_tid = max(self._next_tid, top + 1)
        return base

    def clear(self) -> None:
        self.events.clear()
        self._depth = 0
        self._next_tid = 1

    def __len__(self) -> int:
        return len(self.events)
