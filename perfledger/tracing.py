"""Spans around calls into each layer, recorded from outside ``src/``.

A :class:`Tracer` is created per run.  Disabled, ``span()`` hands back
one shared no-op context manager, so the untraced runs that produce the
end-to-end numbers pay a single attribute test per layer call.  Enabled,
every span records its name, start/end nanoseconds, parent span and op
id; spans stay in memory and are written once, at the end of the run.

A span's *self time* is its duration minus the durations of its direct
children.  Garbage-collector pauses are observed through a
``gc.callbacks`` hook and charged to the innermost open span of the
thread that triggered the collection; they stay inside that span's self
time (``<layer>.gc_ms`` is the part of ``<layer>.self_ms`` spent in
GC), so a GC saving shows as a smaller self time of the layer that
allocates.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import threading
from time import perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end",
                 "child_ns", "gc_ns")

    def __init__(self, span_id: int, parent: int, op: int, name: str):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = 0
        self.end = 0
        self.child_ns = 0
        self.gc_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns

    def record(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "gc_ns": self.gc_ns}


class Tracer:
    """In-memory span recorder with a GC pause hook."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._noop = contextlib.nullcontext()

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: int = 0):
        """Context manager timing one call into a layer; ``op`` starts
        a new op (a root span), otherwise the span joins the current
        thread's open op."""
        if not self.enabled:
            return self._noop
        return self._span(name, op)

    @contextlib.contextmanager
    def _span(self, name: str, op: int):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), parent.id if parent else 0,
                    op or (parent.op if parent else 0), name)
        stack.append(span)
        span.start = perf_counter_ns()
        try:
            yield span
        finally:
            span.end = perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent.child_ns += span.duration_ns
            self.spans.append(span)

    # -- consumer processes ---------------------------------------------

    def fork(self, first_id: int) -> None:
        """In a forked consumer: drop what the parent recorded and number
        new spans from ``first_id``, so merged span ids stay unique."""
        self.spans = []
        self.gc_pause_ns = self.gc_collections = 0
        self._ids = itertools.count(first_id)

    def merge(self, spans: list, gc_pause_ns: int,
              gc_collections: int) -> None:
        """Fold a consumer process's recording into this one."""
        self.spans.extend(spans)
        self.gc_pause_ns += gc_pause_ns
        self.gc_collections += gc_collections

    # -- garbage collector ----------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        now = perf_counter_ns()
        if phase == "start":
            self._local.gc_start = now
            return
        start = getattr(self._local, "gc_start", None)
        if start is None:
            return
        self._local.gc_start = None
        pause = now - start
        self.gc_pause_ns += pause
        self.gc_collections += 1
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].gc_ns += pause

    def __enter__(self) -> "Tracer":
        if self.enabled:
            gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record(),
                                        separators=(",", ":")))
                handle.write("\n")
