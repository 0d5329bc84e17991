"""The process-wide metrics registry behind ``repro.obs``.

Three metric kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — each optionally labelled, collected in a
:class:`MetricsRegistry` whose :meth:`~MetricsRegistry.snapshot` is one
JSON-ready dict the ``stats`` verb ships unchanged and
:meth:`~MetricsRegistry.merge` folds across shards.
:func:`render_prometheus` turns any snapshot into Prometheus text
exposition for scraping (``repro stats --prometheus``).

Two registration styles, chosen by cost profile:

* **Push metrics** (:meth:`~MetricsRegistry.counter` /
  :meth:`~MetricsRegistry.gauge` / :meth:`~MetricsRegistry.histogram`)
  are updated by the hot path.  Counter/gauge increments are lock-free
  — a single attribute ``+=`` that the GIL keeps coherent (metric
  counts tolerate the theoretical torn update under free-threading);
  histograms take one short lock per observation.  Only the set of
  child series is guarded, so a snapshot can walk it while the hot
  path adds a first-seen label value.
* **Function-backed metrics** (:meth:`~MetricsRegistry.counter_func` /
  :meth:`~MetricsRegistry.gauge_func`) read an existing counter
  *at snapshot time* — the serving stack already counts cache hits,
  store reads, cluster faults and shard fetches, so exposing them
  costs the hot path nothing at all.

Metric creation is idempotent: re-registering a name returns the
existing metric (mismatched kinds raise ``ValueError``), so components
constructed twice against one registry share their series instead of
colliding.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Mapping, Sequence

DEFAULT_LATENCY_BOUNDS = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0,
)
"""Upper edges (seconds) of the default latency buckets; one overflow
bucket catches everything beyond the last edge."""


def _label_key(labelnames: tuple, values: tuple) -> tuple:
    if len(values) != len(labelnames):
        raise ValueError(
            f"expected {len(labelnames)} label value(s) "
            f"{list(labelnames)}, got {len(values)}"
        )
    return tuple(str(value) for value in values)


class Counter:
    """A monotonically increasing count (optionally labelled)."""

    kind = "counter"

    def __init__(
        self, name: str = "", help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._value: float = 0
        self._children: dict[tuple, Counter] = {}
        self._child_lock = threading.Lock()

    def labels(self, *values) -> "Counter":
        """The child series for one label-value combination."""
        key = _label_key(self.labelnames, values)
        child = self._children.get(key)
        if child is None:
            with self._child_lock:
                child = self._children.setdefault(
                    key, type(self)(self.name, self.help)
                )
        return child

    def inc(self, amount: float = 1) -> None:
        """Count ``amount`` (lock-free; see module docstring)."""
        if self.labelnames:
            raise ValueError("labelled metric: select a series via labels()")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def children(self) -> dict[tuple, float]:
        """``{label values: value}`` of every child series, in
        first-seen order (a copy: series may be added concurrently)."""
        with self._child_lock:
            return {
                key: child._value for key, child in self._children.items()
            }

    def samples(self) -> list[dict]:
        if self.labelnames:
            return [
                {"labels": list(key), "value": value}
                for key, value in sorted(self.children().items())
            ]
        return [{"labels": [], "value": self._value}]


class Gauge(Counter):
    """A value that can go up and down (optionally labelled)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        if self.labelnames:
            raise ValueError("labelled metric: select a series via labels()")
        self._value = value

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)


class Histogram:
    """Thread-safe log-bucketed observation counts (JSON-friendly).

    Each :meth:`record` lands the observation in the first bucket whose
    upper edge is >= the value; :meth:`snapshot` returns a plain dict
    (``bounds``/``counts``/``count``/``total_seconds``) that serialises
    over the stats verb unchanged.  ``total_seconds`` is the running sum
    of observations in the metric's own unit (the name predates
    non-latency histograms and is kept for wire compatibility).
    """

    kind = "histogram"

    def __init__(
        self,
        bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
        *,
        name: str = "",
        help: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.bounds = tuple(bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._total_seconds = 0.0
        self._count = 0
        self._lock = threading.Lock()
        self._children: dict[tuple, Histogram] = {}

    def labels(self, *values) -> "Histogram":
        """The child series for one label-value combination."""
        key = _label_key(self.labelnames, values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    key, Histogram(self.bounds, name=self.name, help=self.help)
                )
        return child

    def record(self, seconds: float) -> None:
        """Count one observation of ``seconds``."""
        if self.labelnames:
            raise ValueError("labelled metric: select a series via labels()")
        index = bisect_left(self.bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._total_seconds += seconds

    observe = record

    def snapshot(self) -> dict:
        """Bucket counts plus totals, as one JSON-ready dict."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "total_seconds": self._total_seconds,
            }

    def samples(self) -> list[dict]:
        if self.labelnames:
            with self._lock:
                children = sorted(self._children.items())
            return [
                {"labels": list(key), "histogram": child.snapshot()}
                for key, child in children
            ]
        return [{"labels": [], "histogram": self.snapshot()}]

    @classmethod
    def merge(cls, snapshots: "Sequence[dict]") -> dict:
        """Fold several :meth:`snapshot` dicts into one.

        The shard router aggregates per-shard latency this way: bucket
        counts and totals are additive as long as every snapshot used
        the same bucket edges.  An empty sequence merges to an empty
        default-bounds snapshot.

        Raises
        ------
        ValueError
            When the snapshots disagree on bucket bounds.
        """
        merged = cls().snapshot()
        if not snapshots:
            return merged
        merged["bounds"] = list(snapshots[0].get("bounds", merged["bounds"]))
        merged["counts"] = [0] * (len(merged["bounds"]) + 1)
        for snapshot in snapshots:
            if list(snapshot["bounds"]) != merged["bounds"]:
                raise ValueError(
                    "cannot merge latency histograms with different "
                    f"bounds: {snapshot['bounds']} vs {merged['bounds']}"
                )
            for index, count in enumerate(snapshot["counts"]):
                merged["counts"][index] += int(count)
            merged["count"] += int(snapshot["count"])
            merged["total_seconds"] += float(snapshot["total_seconds"])
        return merged


class _FuncMetric:
    """A metric whose value is read from a callable at snapshot time.

    Unlabelled: ``fn()`` returns one number.  Labelled: ``fn()``
    returns ``{label_values_tuple: value}``.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        help: str,
        fn: Callable,
        labelnames: Sequence[str] = (),
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.fn = fn
        self.labelnames = tuple(labelnames)

    def samples(self) -> list[dict]:
        value = self.fn()
        if not self.labelnames:
            return [{"labels": [], "value": value}]
        out = []
        for key in sorted(value):
            key_tuple = key if isinstance(key, tuple) else (key,)
            out.append(
                {"labels": [str(part) for part in key_tuple], "value": value[key]}
            )
        return out


class MetricsRegistry:
    """A named collection of metrics with one mergeable snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def _register(self, kind: str, name: str, factory):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    # -------------------------------------------------------------- #
    # Push metrics (updated by the instrumented hot path)

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(
            "counter", name, lambda: Counter(name, help, labelnames)
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(
            "gauge", name, lambda: Gauge(name, help, labelnames)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._register(
            "histogram",
            name,
            lambda: Histogram(
                bounds, name=name, help=help, labelnames=labelnames
            ),
        )

    # -------------------------------------------------------------- #
    # Function-backed metrics (read at snapshot time; zero hot-path cost)

    def counter_func(
        self,
        name: str,
        help: str,
        fn: Callable,
        labelnames: Sequence[str] = (),
    ) -> _FuncMetric:
        return self._register(
            "counter",
            name,
            lambda: _FuncMetric("counter", name, help, fn, labelnames),
        )

    def gauge_func(
        self,
        name: str,
        help: str,
        fn: Callable,
        labelnames: Sequence[str] = (),
    ) -> _FuncMetric:
        return self._register(
            "gauge",
            name,
            lambda: _FuncMetric("gauge", name, help, fn, labelnames),
        )

    # -------------------------------------------------------------- #

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def get(self, name: str):
        """The registered metric called ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict:
        """Every metric's current samples, as one JSON-ready dict."""
        with self._lock:
            metrics = list(self._metrics.items())
        out = {}
        for name, metric in metrics:
            out[name] = {
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": metric.samples(),
            }
        return out

    @staticmethod
    def merge(snapshots: "Sequence[Mapping]") -> dict:
        """Fold several :meth:`snapshot` dicts into one.

        Counters and gauges are summed per (name, label values) —
        fleet-wide totals, which is also the meaningful aggregation for
        the gauges this stack exposes (queue depths, open connections,
        cache entries).  Histograms merge via :meth:`Histogram.merge`
        (``ValueError`` on mismatched bucket bounds, same contract as
        the latency histograms); mismatched metric *types* under one
        name raise ``ValueError`` too.
        """
        merged: dict = {}
        accumulated: dict[str, dict] = {}
        for snapshot in snapshots:
            for name, metric in snapshot.items():
                slot = merged.get(name)
                if slot is None:
                    slot = merged[name] = {
                        "type": metric["type"],
                        "help": metric.get("help", ""),
                        "labelnames": list(metric.get("labelnames", [])),
                        "samples": [],
                    }
                    accumulated[name] = {}
                elif metric["type"] != slot["type"]:
                    raise ValueError(
                        f"cannot merge metric {name!r}: "
                        f"{metric['type']} vs {slot['type']}"
                    )
                buckets = accumulated[name]
                for sample in metric.get("samples", []):
                    key = tuple(sample.get("labels", []))
                    if slot["type"] == "histogram":
                        buckets.setdefault(key, []).append(
                            sample["histogram"]
                        )
                    else:
                        buckets[key] = buckets.get(key, 0) + sample["value"]
        for name, slot in merged.items():
            for key in sorted(accumulated[name]):
                value = accumulated[name][key]
                if slot["type"] == "histogram":
                    slot["samples"].append(
                        {
                            "labels": list(key),
                            "histogram": Histogram.merge(value),
                        }
                    )
                else:
                    slot["samples"].append(
                        {"labels": list(key), "value": value}
                    )
        return merged


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide shared registry (components that are not owned
    by a service can register here)."""
    return _DEFAULT_REGISTRY


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labelnames: Sequence[str], values: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + pairs + "}"


def _merge_labels(base: str, extra: str) -> str:
    if not base:
        return "{" + extra + "}"
    return base[:-1] + "," + extra + "}"


def render_prometheus(snapshot: Mapping) -> str:
    """A :meth:`MetricsRegistry.snapshot` as Prometheus text exposition.

    Histograms render the conventional cumulative ``_bucket`` series
    (with ``le`` labels and a ``+Inf`` overflow) plus ``_sum`` and
    ``_count``.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        metric = snapshot[name]
        kind = metric.get("type", "gauge")
        help_text = metric.get("help", "")
        labelnames = metric.get("labelnames", [])
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in metric.get("samples", []):
            labels = _format_labels(labelnames, sample.get("labels", []))
            if kind != "histogram":
                lines.append(f"{name}{labels} {sample['value']}")
                continue
            hist = sample["histogram"]
            cumulative = 0
            for bound, count in zip(hist["bounds"], hist["counts"]):
                cumulative += int(count)
                bucket = _merge_labels(labels, f'le="{bound}"')
                lines.append(f"{name}_bucket{bucket} {cumulative}")
            bucket = _merge_labels(labels, 'le="+Inf"')
            lines.append(f"{name}_bucket{bucket} {hist['count']}")
            lines.append(f"{name}_sum{labels} {hist['total_seconds']}")
            lines.append(f"{name}_count{labels} {hist['count']}")
    return "\n".join(lines) + "\n"
