"""The slow-query log: every query slower than a threshold, with its
cost counters and (when traced) its span tree.

:class:`SlowQueryLog` is a bounded ring like the tracer's — the service
records an entry from the latency done-callback whenever a query's
submit-to-resolve time crosses ``threshold_seconds``.  Entries carry the
query's family, nodes, elapsed seconds, batch size, cache hits, and the
engine-reported cost counters (:func:`cost_counters`: iterations,
cluster faults, hub reads).  Traced queries also carry their trace id;
:meth:`SlowQueryLog.entries` resolves that id against a tracer at read
time (spans finish after the result resolves, so attaching them lazily
is what makes the "full span tree" in the log possible).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional


def cost_counters(result) -> dict:
    """The engine cost counters a served result exposes, duck-typed.

    PPV results (memory or disk, plain or top-k) and ``hitting``
    estimates carry ``iterations``; disk PPV results also carry their
    I/O record (``cluster_faults`` / ``hub_reads`` / ``truncated``),
    which is ``None`` — and left out — on memory results.
    """
    out: dict = {}
    for name in ("iterations", "cluster_faults", "hub_reads", "truncated"):
        value = getattr(result, name, None)
        if value is not None:
            out[name] = value if name == "truncated" else int(value)
    return out


class SlowQueryLog:
    """A bounded, optionally file-backed ring of slow-query entries."""

    def __init__(
        self,
        threshold_seconds: float,
        capacity: int = 128,
        path=None,
    ) -> None:
        threshold = float(threshold_seconds)
        if threshold < 0:
            raise ValueError("slow-query threshold must be >= 0")
        self.threshold = threshold
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=max(1, int(capacity)))
        self._path = path
        self._file = None
        self.recorded = 0

    def record(self, entry: dict) -> None:
        """Append one slow-query entry (adds ``at`` if missing)."""
        entry.setdefault("at", time.time())
        with self._lock:
            self._ring.append(entry)
            self.recorded += 1
            if self._path is not None:
                if self._file is None:
                    import json

                    self._json = json
                    self._file = open(
                        self._path, "a", encoding="utf-8", buffering=1
                    )
                self._file.write(
                    self._json.dumps(entry, default=str, sort_keys=True)
                    + "\n"
                )

    def entries(self, tracer=None) -> list[dict]:
        """Recorded entries, oldest first, as fresh copies.

        With ``tracer`` given, every entry that carries a ``trace`` id
        gains a ``spans`` list holding that trace's recorded span tree.
        """
        with self._lock:
            records = [dict(entry) for entry in self._ring]
        if tracer is not None:
            for entry in records:
                trace_id = entry.get("trace")
                if trace_id is not None:
                    entry["spans"] = tracer.spans(trace_id=trace_id)
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
