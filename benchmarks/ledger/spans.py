"""Harness-owned spans: a recorder, delegating wrappers, self times.

The ledger measures layers from *outside* the program: a :class:`Timed`
wrapper stands in for an object at a layer's public boundary (an
``Engine`` handed to ``PPVService``, the two stores handed to
``DiskEngine``), forwards every attribute untouched and records one span
around each call of the named methods.  Spans live in memory until the
run ends (:meth:`Recorder.dump`); a layer's self time is its span minus
the part of that interval its children cover (:func:`self_times`).

Span record: ``{"name", "start", "end", "parent", "op", ...attrs}``.
``parent`` is the index of the enclosing span in the same recorder (or
``None``), ``op`` identifies the operation the span belongs to (request
id, burst number, engine-call number) and is inherited from the parent
when a span does not set its own.  Times are ``time.perf_counter()``
seconds — CLOCK_MONOTONIC on Linux, one timeline for every process of
the host, so client and server spans of one run can be laid side by side.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Recorder:
    """Append-only in-memory span store with a per-thread open-span stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    def add(self, name: str, start: float, end: float, op=None, **attrs) -> int:
        """Record a finished span measured elsewhere (client-side request
        spans are stamped from the load generator's own timestamps)."""
        span = {"name": name, "start": start, "end": end, "parent": None,
                "op": op, **attrs}
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op=None, **attrs):
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                "op": op, **attrs}
        with self._lock:
            if op is None and parent is not None:
                span["op"] = self.spans[parent]["op"]
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def extend(self, spans: list[dict]) -> None:
        """Append another recorder's spans (a server's dump), re-basing
        their parent indices onto this recorder's list."""
        with self._lock:
            offset = len(self.spans)
            for span in spans:
                span = dict(span)
                if span["parent"] is not None:
                    span["parent"] += offset
                self.spans.append(span)

    def dump(self, path, **header) -> None:
        """Write the header and every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.spans}, handle)


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once (interval union), so concurrent children
    cannot push a self time below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


class Timed:
    """Delegating wrapper: ``inner`` with a span around each named method.

    ``methods`` maps a public method name of ``inner`` to the span name
    recorded around its calls; every other attribute (and ``in``) falls
    through to ``inner`` unchanged, so the object behind the boundary
    cannot tell it is wrapped and results are bitwise those of the bare
    object.  A span carries ``size``: ``len()`` of the first argument
    when it has one (nodes of an engine batch, hubs of a ``get_many``),
    else 1.  ``extras`` become plain attributes of the wrapper (the
    traced shard launcher forwards ``shard_stats`` this way).
    """

    def __init__(self, inner, recorder: Recorder, methods: dict, **extras) -> None:
        self._inner = inner
        for method, span_name in methods.items():
            setattr(self, method, self._timed(getattr(inner, method),
                                              recorder, span_name))
        for name, value in extras.items():
            setattr(self, name, value)

    @staticmethod
    def _timed(call, recorder: Recorder, span_name: str):
        def timed_call(*args, **kwargs):
            first = args[0] if args else None
            size = len(first) if hasattr(first, "__len__") else 1
            with recorder.span(span_name, size=size):
                return call(*args, **kwargs)

        return timed_call

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __contains__(self, item) -> bool:
        return item in self._inner


ENGINE_SPANS = {
    "query_batch": "engine.call",
    "query_top_k_batch": "engine.call",
    "query_stream": "engine.call",
}
PPV_STORE_SPANS = {"get_many": "store.ppv_read", "get": "store.ppv_read"}
GRAPH_STORE_SPANS = {"resident_cluster": "store.cluster_load"}


def traced_disk_engine(graph_store, ppv_store, recorder: Recorder,
                       delta: float, **extras):
    """``DiskEngine(graph_store, ppv_store)`` with all three boundaries
    wrapped — the one traced engine shape the disk and sharded workloads
    share (the sharded launcher passes the router's remote store twins)."""
    from repro.serving import DiskEngine

    engine = DiskEngine(
        Timed(graph_store, recorder, GRAPH_STORE_SPANS),
        Timed(ppv_store, recorder, PPV_STORE_SPANS),
        delta=delta,
    )
    return Timed(engine, recorder, ENGINE_SPANS, **extras)
