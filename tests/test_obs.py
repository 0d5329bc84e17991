"""Unit contracts of :mod:`repro.obs`: the metrics registry (kinds,
labels, idempotent registration, snapshot/merge, Prometheus rendering),
the tracer (ring bound, context propagation, thread-local activation,
JSONL log), and the slow-query log.

The histogram-merge edge cases here back the fleet aggregation paths:
``Histogram.merge`` is what the shard router folds per-shard latency
with, so empty fleets, mismatched bucket edges and dead shards must
behave exactly as the service's pre-obs latency histogram did.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    SlowQueryLog,
    Tracer,
    activate,
    cost_counters,
    current_span,
    render_prometheus,
    span_tree,
)


# --------------------------------------------------------------------- #
# Metric kinds


def test_counter_inc_and_value():
    counter = Counter("c", "help")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    assert counter.samples() == [{"labels": [], "value": 3.5}]


def test_labelled_counter_children():
    counter = Counter("c", "", labelnames=("family",))
    counter.labels("ppv").inc()
    counter.labels("ppv").inc()
    counter.labels("top_k").inc(5)
    assert counter.samples() == [
        {"labels": ["ppv"], "value": 2},
        {"labels": ["top_k"], "value": 5},
    ]
    with pytest.raises(ValueError):
        counter.inc()  # labelled metric: must go through labels()
    with pytest.raises(ValueError):
        counter.labels("a", "b")  # wrong label arity


def test_new_label_values_race_snapshot_without_error():
    # The stats verb snapshots the registry on a worker thread while
    # the event loop may be inserting a first-seen label value (a new
    # error code, a new family): the walk over the children must not
    # see the dict change size, and every series must be there after.
    registry = MetricsRegistry()
    counter = registry.counter("errors_total", "", labelnames=("code",))
    codes = [f"code{n}" for n in range(4000)]
    failures: list[BaseException] = []
    done = threading.Event()

    def insert() -> None:
        try:
            for code in codes:
                counter.labels(code).inc()
        except BaseException as error:  # pragma: no cover - diagnostics
            failures.append(error)
        finally:
            done.set()

    def snapshot() -> None:
        try:
            while not done.is_set():
                registry.snapshot()
        except BaseException as error:
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=insert),
            threading.Thread(target=snapshot),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert counter.children() == {(code,): 1 for code in codes}


def test_gauge_set_and_dec():
    gauge = Gauge("g")
    gauge.set(10)
    gauge.dec(3)
    assert gauge.value == 7


def test_histogram_record_and_snapshot():
    hist = Histogram(bounds=(0.1, 1.0))
    hist.record(0.05)
    hist.record(0.5)
    hist.record(5.0)
    snap = hist.snapshot()
    assert snap["bounds"] == [0.1, 1.0]
    assert snap["counts"] == [1, 1, 1]
    assert snap["count"] == 3
    assert snap["total_seconds"] == pytest.approx(5.55)


def test_histogram_defaults_to_the_latency_bounds():
    assert Histogram().bounds == DEFAULT_LATENCY_BOUNDS


# --------------------------------------------------------------------- #
# Histogram.merge edge cases (fleet aggregation)


def test_merge_of_nothing_is_empty_default_bounds():
    merged = Histogram.merge([])
    assert merged["bounds"] == list(DEFAULT_LATENCY_BOUNDS)
    assert merged["count"] == 0
    assert sum(merged["counts"]) == 0


def test_merge_empty_with_empty():
    a, b = Histogram((0.5, 1.0)).snapshot(), Histogram((0.5, 1.0)).snapshot()
    merged = Histogram.merge([a, b])
    assert merged["bounds"] == [0.5, 1.0]
    assert merged["counts"] == [0, 0, 0]
    assert merged["count"] == 0
    assert merged["total_seconds"] == 0.0


def test_merge_mismatched_bounds_raises():
    a = Histogram((0.5, 1.0)).snapshot()
    b = Histogram((0.5, 2.0)).snapshot()
    with pytest.raises(ValueError, match="different"):
        Histogram.merge([a, b])


def test_merge_disjoint_bounds_raises():
    a = Histogram((0.1, 0.2)).snapshot()
    b = Histogram((5.0, 10.0)).snapshot()
    with pytest.raises(ValueError, match="different"):
        Histogram.merge([a, b])


def test_merge_after_snapshot_is_stable():
    # A merged snapshot must not alias its inputs: recording into the
    # source histograms after the merge leaves the merged dict alone.
    source = Histogram((1.0,))
    source.record(0.5)
    snap = source.snapshot()
    merged = Histogram.merge([snap, snap])
    before = json.dumps(merged, sort_keys=True)
    source.record(0.5)
    source.record(2.0)
    assert json.dumps(merged, sort_keys=True) == before
    assert merged["count"] == 2


def test_fleet_aggregation_with_dead_shard():
    # The router merges whatever shards answered; a dead shard simply
    # contributes no snapshot, and totals reflect the survivors.
    shard_a = Histogram((1.0,))
    shard_a.record(0.5)
    shard_b = Histogram((1.0,))
    shard_b.record(0.5)
    shard_b.record(3.0)
    replies = [shard_a.snapshot(), shard_b.snapshot()]  # shard C is dead
    merged = Histogram.merge(replies)
    assert merged["count"] == 3
    assert merged["counts"] == [2, 1]


# --------------------------------------------------------------------- #
# Registry


def test_registry_registration_is_idempotent():
    registry = MetricsRegistry()
    first = registry.counter("hits", "help text")
    again = registry.counter("hits", "different help")
    assert first is again
    assert registry.names() == ("hits",)


def test_registry_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("metric")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("metric")
    with pytest.raises(ValueError, match="already registered"):
        registry.histogram("metric")


def test_function_backed_metrics_read_at_snapshot_time():
    registry = MetricsRegistry()
    state = {"reads": 0}
    registry.counter_func("reads_total", "reads", lambda: state["reads"])
    registry.gauge_func(
        "per_shard",
        "per-shard reads",
        lambda: {("0",): state["reads"], ("1",): 2 * state["reads"]},
        labelnames=("shard",),
    )
    state["reads"] = 7
    snap = registry.snapshot()
    assert snap["reads_total"]["samples"] == [{"labels": [], "value": 7}]
    assert snap["per_shard"]["samples"] == [
        {"labels": ["0"], "value": 7},
        {"labels": ["1"], "value": 14},
    ]


def test_registry_snapshot_merge_sums_and_folds():
    def worker_snapshot(hits, depth, seconds):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc(hits)
        registry.gauge("queue_depth").set(depth)
        hist = registry.histogram("latency", bounds=(1.0,))
        for value in seconds:
            hist.record(value)
        return registry.snapshot()

    merged = MetricsRegistry.merge(
        [
            worker_snapshot(3, 2, [0.5]),
            worker_snapshot(4, 1, [0.5, 2.0]),
        ]
    )
    assert merged["hits_total"]["samples"] == [{"labels": [], "value": 7}]
    assert merged["queue_depth"]["samples"] == [{"labels": [], "value": 3}]
    hist = merged["latency"]["samples"][0]["histogram"]
    assert hist["count"] == 3
    assert hist["counts"] == [2, 1]


def test_registry_merge_type_conflict_raises():
    a = MetricsRegistry()
    a.counter("metric").inc()
    b = MetricsRegistry()
    b.histogram("metric").record(0.5)
    with pytest.raises(ValueError, match="cannot merge metric"):
        MetricsRegistry.merge([a.snapshot(), b.snapshot()])


def test_render_prometheus_exposition():
    registry = MetricsRegistry()
    registry.counter("requests_total", "Requests.").inc(5)
    registry.counter(
        "fetches_total", "Per-shard.", labelnames=("shard",)
    ).labels("0").inc(2)
    hist = registry.histogram("latency_seconds", "Latency.", bounds=(0.1, 1.0))
    hist.record(0.05)
    hist.record(0.5)
    text = render_prometheus(registry.snapshot())
    assert "# HELP requests_total Requests.\n" in text
    assert "# TYPE requests_total counter\n" in text
    assert "requests_total 5\n" in text
    assert 'fetches_total{shard="0"} 2\n' in text
    # Cumulative buckets with le labels, +Inf overflow, _sum and _count.
    assert 'latency_seconds_bucket{le="0.1"} 1\n' in text
    assert 'latency_seconds_bucket{le="1.0"} 2\n' in text
    assert 'latency_seconds_bucket{le="+Inf"} 2\n' in text
    assert "latency_seconds_count 2\n" in text


# --------------------------------------------------------------------- #
# Tracing


def test_span_lifecycle_and_context_propagation():
    tracer = Tracer()
    root = tracer.start_span("client.request", verb="query")
    child = tracer.start_span("server.query", root.context(), worker=0)
    grandchild = child.child("service.batch", batch_size=4)
    grandchild.end()
    child.end()
    root.end()
    spans = tracer.spans(trace_id=root.trace_id)
    assert [s["name"] for s in spans] == [
        "service.batch", "server.query", "client.request",
    ]
    assert {s["trace"] for s in spans} == {root.trace_id}
    by_name = {s["name"]: s for s in spans}
    assert by_name["server.query"]["parent"] == root.span_id
    assert by_name["service.batch"]["parent"] == child.span_id
    assert by_name["client.request"]["parent"] is None
    assert by_name["client.request"]["duration"] >= 0.0


def test_span_events_and_idempotent_end():
    tracer = Tracer()
    span = tracer.start_span("work")
    span.event("fault", site="ppv_store.read", hit=3)
    span.end()
    span.end()  # second end is a no-op, not a duplicate record
    assert len(tracer) == 1
    record = tracer.spans()[0]
    assert record["events"][0]["name"] == "fault"
    assert record["events"][0]["site"] == "ppv_store.read"


def test_tracer_ring_is_bounded():
    tracer = Tracer(capacity=4)
    for index in range(10):
        tracer.start_span(f"span-{index}").end()
    assert len(tracer) == 4
    assert [s["name"] for s in tracer.spans()] == [
        "span-6", "span-7", "span-8", "span-9",
    ]
    assert [s["name"] for s in tracer.spans(limit=2)] == [
        "span-8", "span-9",
    ]


def test_tracer_jsonl_log(tmp_path):
    path = tmp_path / "spans.jsonl"
    tracer = Tracer(log_path=path)
    tracer.start_span("logged", family="ppv").end()
    tracer.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 1
    assert records[0]["name"] == "logged"
    assert records[0]["attrs"] == {"family": "ppv"}


def test_activate_sets_thread_local_current_span():
    tracer = Tracer()
    assert current_span() is None
    outer = tracer.start_span("outer")
    inner = tracer.start_span("inner", outer.context())
    with activate(outer):
        assert current_span() is outer
        with activate(inner):
            assert current_span() is inner
        assert current_span() is outer
    assert current_span() is None


def test_current_span_is_per_thread():
    tracer = Tracer()
    span = tracer.start_span("main-thread")
    seen = []
    with activate(span):
        thread = threading.Thread(target=lambda: seen.append(current_span()))
        thread.start()
        thread.join()
    assert seen == [None]


def test_span_tree_orphans_become_roots():
    tracer = Tracer()
    root = tracer.start_span("root")
    child = tracer.start_span("child", root.context())
    child.end()
    root.end()
    orphan = {
        "trace": root.trace_id, "span": "ffff", "parent": "gone",
        "name": "orphan", "start": 0.0,
    }
    roots, children = span_tree(tracer.spans() + [orphan])
    assert {r["name"] for r in roots} == {"root", "orphan"}
    assert [c["name"] for c in children[root.span_id]] == ["child"]


# --------------------------------------------------------------------- #
# Slow-query log + cost accounting


def test_slow_query_log_ring_and_span_attachment(tmp_path):
    tracer = Tracer()
    span = tracer.start_span("service.batch")
    span.end()
    log = SlowQueryLog(0.1, capacity=2, path=tmp_path / "slow.jsonl")
    log.record({"family": "ppv", "seconds": 0.5, "trace": span.trace_id})
    log.record({"family": "ppv", "seconds": 0.7})
    log.record({"family": "top_k", "seconds": 0.9})
    assert len(log) == 2  # capacity bound: oldest entry dropped
    entries = log.entries(tracer=tracer)
    assert [e["seconds"] for e in entries] == [0.7, 0.9]
    assert all("at" in e for e in entries)
    # The dropped entry still made it to the JSONL sink.
    log.close()
    lines = (tmp_path / "slow.jsonl").read_text().splitlines()
    assert len(lines) == 3

    fresh = SlowQueryLog(0.1)
    fresh.record({"seconds": 0.5, "trace": span.trace_id})
    traced = fresh.entries(tracer=tracer)[0]
    assert [s["name"] for s in traced["spans"]] == ["service.batch"]


def test_cost_counters_duck_typing():
    import numpy as np

    from repro.core.query import QueryResult

    class DiskResult:
        cluster_faults = 3
        hub_reads = 7
        truncated = False

    memory = QueryResult(query=0, scores=np.zeros(2), iterations=2)
    disk = QueryResult(
        query=0, scores=np.zeros(2), iterations=2,
        cluster_faults=1, hub_reads=4, truncated=True,
    )
    assert cost_counters(DiskResult()) == {
        "cluster_faults": 3, "hub_reads": 7, "truncated": False,
    }
    assert cost_counters(memory) == {"iterations": 2}
    assert cost_counters(disk) == {
        "iterations": 2, "cluster_faults": 1, "hub_reads": 4,
        "truncated": True,
    }
    assert cost_counters(object()) == {}


def test_observability_close_releases_both_logs_and_they_reopen(tmp_path):
    obs = Observability(
        slow_query_seconds=0.0,
        trace_log_path=tmp_path / "spans.jsonl",
        slow_log_path=tmp_path / "slow.jsonl",
    )
    for _ in range(2):  # closing is safe: the next record reopens
        obs.tracer.start_span("unit").end()
        obs.slow_log.record({"family": "ppv", "nodes": [1], "seconds": 0.1})
        assert obs.tracer._log is not None and obs.slow_log._file is not None
        obs.close()
        assert obs.tracer._log is None and obs.slow_log._file is None
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 2
    assert len((tmp_path / "slow.jsonl").read_text().splitlines()) == 2


def test_observability_bundle_defaults():
    obs = Observability()
    assert obs.slow_log is None
    other = Observability()
    assert obs.registry is not other.registry  # private per instance
    assert obs.tracer is not other.tracer
    configured = Observability(slow_query_seconds=0.25)
    assert configured.slow_log is not None
    assert configured.slow_log.threshold == 0.25
