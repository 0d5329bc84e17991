"""Distributed tracing for the serving stack.

A trace is a tree of :class:`Span` records sharing one ``trace_id``.
The client (or CLI) opens the root span and sends its
:class:`SpanContext` over the wire as the optional ``trace`` request
field (schema versioned in :mod:`repro.server.protocol`); every hop —
TCP server, router, shard server — continues the same trace by opening
child spans, so the assembled tree attributes end-to-end latency to
admission wait, coalescing, kernel time, per-shard fetches and cache
lookups, across process boundaries (each span records its ``pid``).

Finished spans land in the owning :class:`Tracer`'s bounded in-memory
ring (and optional JSONL log); the ``trace`` verb fetches them back out.
Layers that hold no tracer reference (remote stores, fault sites) reach
the live trace through the thread-local :func:`current_span` that
:func:`activate` maintains — the scheduler's drain thread activates the
batch/kernel spans around engine calls, so anything the engine touches
can attach children or events without plumbing.

Everything here is stdlib-only and zero-cost when tracing is off: the
instrumented code guards every hook behind a single ``is not None``
check, the same discipline as :mod:`repro.faults`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import NamedTuple, Optional, Sequence

DEFAULT_TRACE_CAPACITY = 2048


def new_id() -> str:
    """A fresh 64-bit random identifier as 16 hex characters."""
    return os.urandom(8).hex()


class SpanContext(NamedTuple):
    """The wire-portable coordinates of a span: which trace it belongs
    to and (optionally) which span new work should parent under."""

    trace_id: str
    span_id: Optional[str] = None


class Span:
    """One timed operation inside a trace.

    Spans accumulate attributes (:meth:`set`) and point-in-time events
    (:meth:`event`, used by fault injection), spawn children
    (:meth:`child`), and report themselves to their tracer exactly once
    on :meth:`end` — only ended spans are recorded.
    """

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "events",
        "start",
        "duration",
        "pid",
        "_start_monotonic",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Optional[Tracer]",
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        attributes: Optional[dict] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_id()
        self.parent_id = parent_id
        self.attributes = dict(attributes) if attributes else {}
        self.events: list[dict] = []
        self.start = time.time()
        self.duration: Optional[float] = None
        self.pid = os.getpid()
        self._start_monotonic = time.monotonic()
        self._ended = False

    def context(self) -> SpanContext:
        """This span's coordinates, for children (local or remote)."""
        return SpanContext(self.trace_id, self.span_id)

    def set(self, **attributes) -> None:
        """Attach or overwrite span attributes."""
        self.attributes.update(attributes)

    def event(self, name: str, **attributes) -> None:
        """Record a point-in-time event at the current offset (seconds
        since span start)."""
        self.events.append(
            {
                "name": name,
                "at": time.monotonic() - self._start_monotonic,
                **attributes,
            }
        )

    def child(self, name: str, **attributes) -> "Span":
        """A new span under this one, in the same trace, reporting to
        the same tracer."""
        return Span(
            self.tracer,
            name,
            self.trace_id,
            parent_id=self.span_id,
            attributes=attributes,
        )

    def end(self, **attributes) -> None:
        """Stop the clock and hand the finished span to the tracer.

        Idempotent: only the first call records anything.
        """
        if self._ended:
            return
        self._ended = True
        if attributes:
            self.attributes.update(attributes)
        self.duration = time.monotonic() - self._start_monotonic
        if self.tracer is not None:
            self.tracer._record(self)

    def to_dict(self) -> dict:
        """The versioned wire form of this span (see
        ``protocol.TRACE_SCHEMA_VERSION``)."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "pid": self.pid,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attributes),
            "events": list(self.events),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"span={self.span_id}, parent={self.parent_id})"
        )


class Tracer:
    """A bounded ring of finished spans, with an optional JSONL log.

    ``capacity`` bounds memory; once full, the oldest spans fall off.
    When ``log_path`` is given every finished span is also appended to
    that file as one JSON object per line (opened lazily, flushed per
    span — the log is for post-mortems, not throughput).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        log_path=None,
    ) -> None:
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=max(1, int(capacity)))
        self._log_path = log_path
        self._log = None

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def start_span(
        self,
        name: str,
        context: Optional[SpanContext] = None,
        **attributes,
    ) -> Span:
        """Open a span: a brand-new trace when ``context`` is ``None``,
        otherwise a continuation of the trace ``context`` describes
        (parented under ``context.span_id`` when present).  ``context``
        may be a :class:`SpanContext` or another :class:`Span`.
        """
        if context is None:
            return Span(self, name, new_id(), None, attributes)
        return Span(
            self,
            name,
            context.trace_id,
            parent_id=getattr(context, "span_id", None),
            attributes=attributes,
        )

    def _record(self, span: Span) -> None:
        record = span.to_dict()
        with self._lock:
            self._ring.append(record)
            if self._log_path is not None:
                if self._log is None:
                    self._log = open(
                        self._log_path, "a", encoding="utf-8", buffering=1
                    )
                self._log.write(
                    json.dumps(record, separators=(",", ":"), default=str)
                    + "\n"
                )

    def spans(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Recorded spans, oldest first; ``trace_id`` filters to one
        trace and ``limit`` keeps only the most recent matches."""
        with self._lock:
            records = list(self._ring)
        if trace_id is not None:
            records = [r for r in records if r["trace"] == trace_id]
        if limit is not None:
            records = records[-max(0, int(limit)):] if int(limit) else []
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None


_ACTIVE = threading.local()


def current_span() -> Optional[Span]:
    """The span :func:`activate` installed on this thread, if any."""
    return getattr(_ACTIVE, "span", None)


@contextmanager
def activate(span: "Span | None"):
    """Make ``span`` this thread's :func:`current_span` for the block
    (restoring whatever was active before on exit).  ``None`` — an
    untraced request — activates nothing, so a caller writes its block
    once."""
    if span is None:
        yield None
        return
    previous = getattr(_ACTIVE, "span", None)
    _ACTIVE.span = span
    try:
        yield span
    finally:
        _ACTIVE.span = previous


_DEFAULT_TRACER = Tracer()


def default_tracer() -> Tracer:
    """The process-wide tracer client entry points record into."""
    return _DEFAULT_TRACER


def span_tree(
    spans: Sequence[dict],
) -> "tuple[list[dict], dict[str, list[dict]]]":
    """Index span records for tree rendering: ``(roots, children)``
    where ``children`` maps a span id to its child records, each level
    sorted by start time.  Spans whose parent is absent from ``spans``
    (e.g. rotated out of the ring) are treated as roots.
    """
    by_id = {record["span"]: record for record in spans}
    roots: list[dict] = []
    children: dict[str, list[dict]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    roots.sort(key=lambda r: r.get("start") or 0.0)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.get("start") or 0.0)
    return roots, children
