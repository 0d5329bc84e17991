"""repro.obs — metrics, distributed tracing, and per-query cost
accounting for the serving fleet.

One :class:`Observability` bundle ties the three pillars together:

* a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  histograms; snapshot + merge; Prometheus text exposition),
* a :class:`~repro.obs.trace.Tracer` (bounded span ring + optional
  JSONL log) for traces that cross the client → server → router →
  shard → kernel path,
* an optional :class:`~repro.obs.slowlog.SlowQueryLog`.

Every ``PPVService`` (hence every server, router and shard server) has
one: pass your own to ``PPVService(..., obs=...)`` / ``ShardRouter(...,
obs=...)`` to configure the slow-query log or the span log, or omit it
and the service builds a private default.  The registry is the serving
stack's only counter store — the ``stats`` verb and
``PPVService.stats()`` are rendered from it.  Each bundle is
self-contained (fresh registry and tracer per instance) so side-by-side
services in one process never share series; services handed the *same*
bundle count into the same series.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    render_prometheus,
)
from repro.obs.slowlog import SlowQueryLog, cost_counters
from repro.obs.trace import (
    DEFAULT_TRACE_CAPACITY,
    Span,
    SpanContext,
    Tracer,
    activate,
    current_span,
    default_tracer,
    new_id,
    span_tree,
)

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_TRACE_CAPACITY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "SlowQueryLog",
    "Span",
    "SpanContext",
    "Tracer",
    "activate",
    "cost_counters",
    "current_span",
    "default_registry",
    "default_tracer",
    "new_id",
    "render_prometheus",
    "span_tree",
]


class Observability:
    """One registry + tracer (+ optional slow-query log) for a service.

    Parameters
    ----------
    slow_query_seconds:
        When given, queries slower than this many seconds are recorded
        into :attr:`slow_log` with their cost counters and trace id.
    slow_log_path / trace_log_path:
        Optional JSONL logs of the slow queries and of the spans.
    """

    def __init__(
        self,
        *,
        slow_query_seconds: "float | None" = None,
        slow_log_path=None,
        trace_log_path=None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(log_path=trace_log_path)
        self.slow_log: "SlowQueryLog | None" = None
        if slow_query_seconds is not None:
            self.slow_log = SlowQueryLog(slow_query_seconds, path=slow_log_path)

    def close(self) -> None:
        """Close the span log and the slow-query log files.  Both reopen
        on their next record, so closing a bundle that another service
        still uses is safe."""
        self.tracer.close()
        if self.slow_log is not None:
            self.slow_log.close()

    def observe_engine(self, engine) -> None:
        """Expose an engine's existing cost counters as function-backed
        metrics (read at snapshot time; no hot-path writes).

        Works for any engine with ``ppv_store``/``graph_store``
        attributes — disk, sharded router, or shard.  Closures go
        through the engine attribute rather than binding the store
        objects, so a router re-bootstrap (which swaps stores) stays
        observed.  Idempotent per registry.
        """
        registry = self.registry
        if getattr(engine, "ppv_store", None) is not None:
            registry.counter_func(
                "repro_hub_reads_total",
                "Hub prime-PPV payloads fetched (disk reads or shard fetches).",
                lambda: getattr(engine.ppv_store, "reads", 0),
            )
            registry.counter_func(
                "repro_ppv_bytes_read_total",
                "Bytes of prime-PPV payload read from the PPV store.",
                lambda: getattr(engine.ppv_store, "bytes_read", 0),
            )
            if hasattr(engine.ppv_store, "shard_fetches"):
                registry.counter_func(
                    "repro_shard_hub_fetches_total",
                    "Hub payload fetches per shard.",
                    _shard_fetch_reader(engine, "ppv_store"),
                    labelnames=("shard",),
                )
        if getattr(engine, "graph_store", None) is not None:
            registry.counter_func(
                "repro_cluster_faults_total",
                "Graph cluster cache misses (cluster loads from disk or shard).",
                lambda: getattr(engine.graph_store, "faults", 0),
            )
            registry.counter_func(
                "repro_graph_bytes_read_total",
                "Bytes of cluster payload read from the graph store.",
                lambda: getattr(engine.graph_store, "bytes_read", 0),
            )
            if hasattr(engine.graph_store, "shard_fetches"):
                registry.counter_func(
                    "repro_shard_cluster_fetches_total",
                    "Cluster fetches per shard.",
                    _shard_fetch_reader(engine, "graph_store"),
                    labelnames=("shard",),
                )


def _shard_fetch_reader(engine, attr: str):
    def read() -> dict:
        store = getattr(engine, attr, None)
        counts = getattr(store, "shard_fetches", None) or ()
        return {(str(shard),): count for shard, count in enumerate(counts)}

    return read
