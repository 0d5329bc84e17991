"""Popularity-aware result cache shared by every serving backend.

Each entry carries a **hit counter**, and eviction removes the entry with the
fewest hits first, breaking ties by least-recent use.  A burst of one-off
queries therefore cannot flush the popular working set the way it would
under pure recency eviction — new entries start at zero hits and are the
first to go unless they prove themselves.

The cache stores defensive copies in both directions (entries are copied
on ``put`` and on every ``get``), so callers can mutate results freely,
and it is invalidated wholesale whenever the service's engine reports a
new cache token — for the memory backend the index's resident
:class:`~repro.core.splice.SpliceBlock` (index swap via
:meth:`~repro.serving.PPVService.update_index`, or an in-place index
mutation followed by
:func:`~repro.core.splice.invalidate_splice_cache`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.hitting import HittingEstimate
from repro.core.query import QueryResult
from repro.core.reachability import ReachabilityResult
from repro.core.topk import TopKResult
from repro.storage.disk_engine import DiskQueryResult, DiskTopKResult

DEFAULT_CACHE_SIZE = 256
"""Default capacity of the service-level popularity cache."""


def copy_served(result):
    """Deep-enough copy of any known served result object.

    Covers the four PPV result shapes the engines produce plus the
    ``hitting`` and ``reachability`` family results; the copy shares no
    mutable buffers with the original.
    """
    if isinstance(result, QueryResult):
        return QueryResult(
            query=result.query,
            scores=result.scores.copy(),
            iterations=result.iterations,
            error_history=list(result.error_history),
            hubs_expanded=result.hubs_expanded,
            seconds=result.seconds,
            work_units=result.work_units,
        )
    if isinstance(result, TopKResult):
        return TopKResult(
            nodes=result.nodes.copy(),
            certified=result.certified,
            iterations=result.iterations,
            l1_error=result.l1_error,
            scores=result.scores.copy(),
        )
    if isinstance(result, DiskQueryResult):
        return DiskQueryResult(
            result=copy_served(result.result),
            cluster_faults=result.cluster_faults,
            hub_reads=result.hub_reads,
            truncated=result.truncated,
        )
    if isinstance(result, DiskTopKResult):
        return DiskTopKResult(
            topk=copy_served(result.topk),
            cluster_faults=result.cluster_faults,
            hub_reads=result.hub_reads,
            truncated=result.truncated,
        )
    if isinstance(result, HittingEstimate):
        return HittingEstimate(
            value=result.value,
            remaining_mass=result.remaining_mass,
            iterations=result.iterations,
            history=list(result.history),
        )
    if isinstance(result, ReachabilityResult):
        return ReachabilityResult(
            query=result.query,
            max_length=result.max_length,
            alpha=result.alpha,
            scores=result.scores.copy(),
            truncation_bound=result.truncation_bound,
        )
    raise TypeError(f"unsupported served result type: {type(result)!r}")


@dataclass
class _Entry:
    value: object
    hits: int
    last_used: int


class PopularityCache:
    """Bounded result cache evicting by ``(hits, recency)``.

    Parameters
    ----------
    capacity:
        Maximum entries; 0 disables the cache entirely.

    Notes
    -----
    Thread-safe (the scheduler thread and streaming workers may touch it
    concurrently).  Eviction scans for the minimum ``(hits, last_used)``
    pair — O(capacity) per insert beyond capacity, which is fine at the
    few-hundred-entry scale this cache runs at.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: dict[tuple, _Entry] = {}
        self._clock = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def popularity(self, key: tuple) -> int:
        """Hit count of ``key`` (0 if absent or never hit)."""
        entry = self._entries.get(key)
        return entry.hits if entry is not None else 0

    def get(self, key: tuple):
        """A private copy of the cached result, or ``None`` on a miss.

        A hit bumps the entry's popularity counter and recency stamp.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._clock += 1
            entry.hits += 1
            entry.last_used = self._clock
            self.hits += 1
            return copy_served(entry.value)

    def put(self, key: tuple, value) -> None:
        """Insert a copy of ``value``, evicting the least popular entry
        (ties: least recently used) when over capacity.

        Re-inserting an existing key refreshes its value and recency but
        keeps its earned hit count.
        """
        if self.capacity == 0:
            return
        with self._lock:
            self._clock += 1
            existing = self._entries.get(key)
            if existing is not None:
                existing.value = copy_served(value)
                existing.last_used = self._clock
                return
            self._entries[key] = _Entry(
                value=copy_served(value), hits=0, last_used=self._clock
            )
            while len(self._entries) > self.capacity:
                # Over .items(): no per-candidate lookup re-hashing a key
                # tuple.  ``last_used`` is unique, so the minimum is too.
                victim, _ = min(
                    self._entries.items(),
                    key=lambda item: (item[1].hits, item[1].last_used),
                )
                del self._entries[victim]
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (hit/miss totals are kept for observability)."""
        with self._lock:
            self._entries.clear()
