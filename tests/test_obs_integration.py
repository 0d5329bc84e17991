"""Observability across the serving stack, end to end.

The acceptance bar: a ``trace=True`` query through :class:`PPVClient`
against a two-shard :class:`ShardRouter` yields **one** trace — the
client's root span, the router front-end's server span, the service
queue/batch spans, the kernel span, and both shards' fetch spans all
share one trace id — while the served payload stays bitwise equal to
the untraced path.  Plus the service-level contracts: untraced queries
record nothing, ``ServiceStats.families`` snapshots are immutable, the
stats verb reports uptime/version/pid/metrics, and the slow-query log
captures cost counters with span trees attached.
"""

from __future__ import annotations

import os
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import build_index, select_hubs
from repro.obs import Observability
from repro.obs.trace import default_tracer
from repro.server import PPVClient, PPVServer, ServerConfig, ServerError
from repro.serving import PPVService, QuerySpec
from repro.sharding import ShardRouter, partition_index
from repro.storage import DiskGraphStore, cluster_graph, save_index

QUERY_NODE = 7
OTHER_NODES = [3, 42, 99]


@pytest.fixture()
def service(small_social, small_social_index):
    obs = Observability()
    with PPVService.open(
        small_social_index, graph=small_social, cache_size=0, obs=obs
    ) as svc:
        yield svc


# --------------------------------------------------------------------- #
# Service-level tracing


def test_untraced_query_records_no_spans(service):
    service.query(QuerySpec(QUERY_NODE))
    assert len(service.obs.tracer) == 0


def test_traced_query_spans_the_service_stack(service):
    obs = service.obs
    root = obs.tracer.start_span("client.request")
    service.query(QuerySpec(QUERY_NODE).with_trace(root.context()))
    root.end()
    spans = obs.tracer.spans(trace_id=root.trace_id)
    names = {span["name"] for span in spans}
    assert {"service.queue", "service.batch", "service.cache",
            "engine.run_group", "client.request"} <= names
    assert {span["trace"] for span in spans} == {root.trace_id}
    by_name = {span["name"]: span for span in spans}
    assert by_name["service.batch"]["parent"] == root.span_id
    assert by_name["engine.run_group"]["parent"] == (
        by_name["service.batch"]["span"]
    )
    assert by_name["service.queue"]["attrs"]["batch_size"] >= 1


def test_traced_results_bitwise_equal_to_untraced(service):
    plain = service.query(QuerySpec(QUERY_NODE))
    span = service.obs.tracer.start_span("client.request")
    traced = service.query(QuerySpec(QUERY_NODE).with_trace(span.context()))
    span.end()
    assert np.array_equal(plain.scores, traced.scores)
    assert plain.iterations == traced.iterations
    assert plain.l1_error == traced.l1_error


def test_trace_field_does_not_split_cache_or_coalescing(
    small_social, small_social_index
):
    # Traced and untraced twins must hash/compare equal so they share
    # popularity-cache entries and coalescing groups.
    obs = Observability()
    with PPVService.open(
        small_social_index, graph=small_social, obs=obs
    ) as svc:
        svc.query(QuerySpec(QUERY_NODE))
        span = obs.tracer.start_span("client.request")
        svc.query(QuerySpec(QUERY_NODE).with_trace(span.context()))
        span.end()
        stats = svc.stats()
    assert stats.cache_hits >= 1


def test_service_metrics_cover_the_scheduler_cache_and_engine(service):
    service.query_many([QuerySpec(node) for node in OTHER_NODES])
    names = set(service.obs.registry.names())
    assert {
        "repro_queries_submitted_total",
        "repro_request_latency_seconds",
        "repro_family_latency_seconds",
        "repro_cache_hits_total",
        "repro_cache_misses_total",
        "repro_cache_evictions_total",
        "repro_cache_entries",
        "repro_batch_size",
        "repro_coalesce_delay_seconds",
        "repro_queue_depth",
        "repro_in_flight",
        "repro_batches_served_total",
        "repro_largest_batch",
    } <= names
    snap = service.obs.registry.snapshot()
    submitted = snap["repro_queries_submitted_total"]["samples"]
    assert submitted == [{"labels": ["ppv"], "value": len(OTHER_NODES)}]
    assert snap["repro_batch_size"]["samples"][0]["histogram"]["count"] >= 1


def test_slow_query_log_captures_cost_and_spans(
    small_social, small_social_index
):
    obs = Observability(slow_query_seconds=0.0)  # everything is "slow"
    with PPVService.open(
        small_social_index, graph=small_social, cache_size=0, obs=obs
    ) as svc:
        span = obs.tracer.start_span("client.request")
        svc.query(QuerySpec(QUERY_NODE).with_trace(span.context()))
        span.end()
    entries = obs.slow_log.entries(tracer=obs.tracer)
    assert len(entries) == 1
    entry = entries[0]
    assert entry["family"] == "ppv"
    assert entry["nodes"] == [QUERY_NODE]
    assert entry["seconds"] >= 0.0
    assert entry["iterations"] >= 1
    assert entry["batch_size"] >= 1
    assert entry["trace"] == span.trace_id
    assert {s["name"] for s in entry["spans"]} >= {"service.batch"}


def test_closing_a_service_releases_its_log_files(
    small_social, small_social_index, tmp_path
):
    # 50 services, each over a bundle that logs spans and slow queries
    # to disk.  The bundles stay referenced (as a shared bundle would),
    # so only PPVService.close() -> Observability.close() can give the
    # descriptors back.
    def open_log_fds() -> int:
        """Descriptors of this process that point into ``tmp_path``
        (the whole-process count drifts with other tests' sockets)."""
        count = 0
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:  # closed between listdir and readlink
                continue
            count += target.startswith(str(tmp_path))
        return count

    bundles = []
    for _ in range(50):
        obs = Observability(
            slow_query_seconds=0.0,
            trace_log_path=tmp_path / "spans.jsonl",
            slow_log_path=tmp_path / "slow.jsonl",
        )
        bundles.append(obs)
        with PPVService.open(
            small_social_index, graph=small_social, obs=obs
        ) as svc:
            span = obs.tracer.start_span("client.request")
            svc.query(QuerySpec(QUERY_NODE).with_trace(span.context()))
            span.end()
            assert open_log_fds() >= 1  # the span log is open now
    assert open_log_fds() == 0
    assert len(bundles) == 50


def test_submitted_total_equals_its_family_breakdown_under_threads(service):
    # Both numbers come from one labelled counter, so they agree by
    # construction; the lock-free ``+=`` is one step under the GIL, so
    # no concurrent submission goes missing either.
    per_thread = 25
    barrier = threading.Barrier(8)

    def submit(family_params) -> None:
        barrier.wait(timeout=30)
        for node in range(per_thread):
            service.submit(QuerySpec(node, **family_params))

    threads = [
        threading.Thread(
            target=submit, args=({"top_k": 3} if n % 2 else {},)
        )
        for n in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    service.flush()
    stats = service.stats()
    assert stats.submitted == 8 * per_thread
    assert stats.submitted == sum(
        family["submitted"] for family in stats.families.values()
    )
    assert {
        name: family["submitted"] for name, family in stats.families.items()
    } == {"ppv": 4 * per_thread, "top_k": 4 * per_thread}
    assert stats.latency["count"] == stats.submitted


def test_services_sharing_a_bundle_count_into_one_series(
    small_social, small_social_index
):
    # The contract of handing two services the same bundle: metric
    # registration is idempotent, so both count into the same series.
    obs = Observability()
    services = [
        PPVService.open(
            small_social_index, graph=small_social, cache_size=0, obs=obs
        )
        for _ in range(2)
    ]
    try:
        for svc in services:
            svc.query(QuerySpec(QUERY_NODE))
        assert [svc.stats().submitted for svc in services] == [2, 2]
        private = PPVService.open(small_social_index, graph=small_social)
        with private:
            assert private.stats().submitted == 0
    finally:
        for svc in services:
            svc.close()


# --------------------------------------------------------------------- #
# Satellite: ServiceStats.families immutability


def test_families_snapshot_is_a_deep_copy(service):
    service.query(QuerySpec(QUERY_NODE))
    first = service.stats()
    # Mutate the snapshot aggressively, nested structures included.
    first.families["ppv"]["submitted"] = 999
    first.families["ppv"]["latency"]["counts"][0] = 777
    first.families["ppv"]["latency"]["bounds"].clear()
    first.families.clear()
    second = service.stats()
    assert second.families["ppv"]["submitted"] == 1
    assert 777 not in second.families["ppv"]["latency"]["counts"]
    assert second.families["ppv"]["latency"]["bounds"]


# --------------------------------------------------------------------- #
# Wire layer: stats payload, trace verb


@pytest.fixture()
def served(small_social, small_social_index):
    obs = Observability(slow_query_seconds=0.0)
    with PPVService.open(
        small_social_index, graph=small_social, cache_size=0, obs=obs
    ) as svc:
        server = PPVServer(svc, ServerConfig(host="127.0.0.1", port=0))
        with server.background() as (host, port):
            with PPVClient(host, port) as client:
                yield client, obs


def test_stats_payload_identity_and_metrics(served):
    client, _obs = served
    client.query([QUERY_NODE], eta=2)
    payload = client.stats()
    assert payload["version"] == repro.__version__
    assert payload["uptime_seconds"] > 0.0
    assert payload["pid"] > 0
    assert "repro_server_requests_total" in payload["metrics"]
    assert "repro_queries_submitted_total" in payload["metrics"]
    slow = payload["slow_queries"]
    assert slow and slow[0]["nodes"] == [QUERY_NODE]


def test_trace_verb_round_trip(served):
    client, _obs = served
    client.query([QUERY_NODE], eta=2, trace=True)
    trace_id = client.last_trace_id
    assert trace_id
    payload = client.trace(trace_id)
    assert payload["schema"] == 1
    names = {span["name"] for span in payload["spans"]}
    assert {"server.query", "service.queue", "service.batch",
            "engine.run_group"} <= names
    assert {span["trace"] for span in payload["spans"]} == {trace_id}
    assert payload["count"] == len(payload["spans"])
    # Unfiltered fetch returns at least as much.
    assert len(client.trace()["spans"]) >= payload["count"]
    assert len(client.trace(limit=1)["spans"]) <= 1


def test_trace_verb_rejects_bad_arguments(served):
    client, _obs = served
    with pytest.raises(ServerError):
        client.request({"verb": "trace", "trace_id": 7})
    with pytest.raises(ServerError):
        client.request({"verb": "trace", "limit": 0})
    with pytest.raises(ServerError):
        client.request({"verb": "trace", "limit": True})


def test_malformed_trace_field_is_rejected(served):
    client, _obs = served
    for bad in (
        {"id": ""},
        {"id": 5, "schema": 1},
        {"id": "abc", "schema": 99},
        "not-a-dict",
    ):
        with pytest.raises(ServerError):
            client.request({"verb": "query", "node": QUERY_NODE, "trace": bad})


def test_query_many_traces_each_query(served):
    client, _obs = served
    client.query_many([[n] for n in OTHER_NODES], eta=2, trace=True)
    assert len(client.last_trace_ids) == len(OTHER_NODES)
    assert len(set(client.last_trace_ids)) == len(OTHER_NODES)
    for trace_id in client.last_trace_ids:
        spans = client.trace(trace_id)["spans"]
        assert {span["trace"] for span in spans} == {trace_id}
        assert any(span["name"] == "server.query" for span in spans)


# --------------------------------------------------------------------- #
# The acceptance bar: one trace across a two-shard fleet


@pytest.fixture(scope="module")
def traced_router(tmp_path_factory, small_social):
    hubs = select_hubs(small_social, num_hubs=40)
    index = build_index(small_social, hubs, epsilon=1e-6)
    root = tmp_path_factory.mktemp("obs_parts")
    partition_index(small_social, index, 2, root)
    # cache_size=0 / memory_bytes=0 so every query actually runs the
    # kernel and refetches hubs — the spans under test must exist.
    router = ShardRouter(root, cache_size=0, memory_bytes=0)
    with router as (host, port):
        yield router, host, port


def test_one_trace_spans_client_to_both_shards(traced_router):
    router, host, port = traced_router
    with PPVClient(host, port) as client:
        plain = client.query([QUERY_NODE], eta=2)
        traced = client.query([QUERY_NODE], eta=2, trace=True)
        trace_id = client.last_trace_id
        # Served results are bitwise equal to the untraced path (scores
        # travel as JSON floats: equal payloads == equal bits).
        assert plain == traced

        # The batch/server spans finish on the drain thread moments
        # after the reply is sent; poll briefly for the full tree.
        wanted = {"server.query", "service.queue", "service.batch",
                  "engine.run_group", "shard.fetch_hubs",
                  "server.fetch_hubs"}
        deadline = time.monotonic() + 5.0
        while True:
            payload = client.trace(trace_id)
            if wanted <= {span["name"] for span in payload["spans"]}:
                break
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
    spans = payload["spans"]
    assert {span["trace"] for span in spans} == {trace_id}
    names = {span["name"] for span in spans}
    assert wanted <= names
    # Both shards took a fetch, each tagged with its shard id ...
    shards_hit = {
        span["attrs"]["shard"]
        for span in spans
        if span["name"] == "shard.fetch_hubs"
    }
    assert shards_hit == {0, 1}
    # ... and the shard-side server spans ran in the shard worker
    # processes (distinct pids), stitched into the same trace.
    shard_pids = {
        span["pid"] for span in spans if span["name"] == "server.fetch_hubs"
    }
    assert len(shard_pids) == 2
    router_pids = {
        span["pid"] for span in spans if span["name"] == "server.query"
    }
    assert not (shard_pids & router_pids)
    # The client's root span lives in the client process and completes
    # the chain: every hop shares the one trace id.
    client_spans = default_tracer().spans(trace_id=trace_id)
    assert [span["name"] for span in client_spans] == ["client.request"]


def test_router_stats_aggregate_fleet_metrics(traced_router):
    router, host, port = traced_router
    with PPVClient(host, port) as client:
        client.query([QUERY_NODE], eta=2)
        payload = client.stats()
    assert "repro_queries_submitted_total" in payload["metrics"]
    fleet = payload["shards"]["metrics"]
    # Two obs-enabled shard workers contribute; fetch counters merge
    # into one fleet-wide view.
    reads = fleet["repro_hub_reads_total"]["samples"][0]["value"]
    assert reads >= 1
    assert fleet["repro_server_requests_total"]["samples"][0]["value"] >= 2


# --------------------------------------------------------------------- #
# The README metrics catalogue cannot drift from the registry


def _readme_metric_names() -> set:
    """Metric names in README's Observability table, with brace groups
    like ``repro_cache_{hits,misses}_total`` expanded and ``{label}``
    suffixes dropped."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Observability", 1)[1].split("\n## ", 1)[0]
    names = set()
    for row in section.splitlines():
        if not row.startswith("| `repro_"):
            continue
        for cell in re.findall(r"`(repro_[^`]+)`", row.split("|")[1]):
            group = re.fullmatch(r"(\w*)\{([\w,]+)\}(\w+)(\{\w+\})?", cell)
            if group:
                prefix, options, suffix, _label = group.groups()
                names.update(
                    prefix + option + suffix for option in options.split(",")
                )
            else:
                names.add(re.sub(r"\{\w+\}$", "", cell))
    return names


def test_readme_catalogue_equals_the_registered_metrics(
    served, traced_router, small_social, small_social_index, tmp_path
):
    _client, memory_obs = served  # a memory service behind a server
    router, _host, _port = traced_router  # a 2-shard router
    index_path = tmp_path / "index.fppv"
    save_index(small_social_index, index_path)
    graph_store = DiskGraphStore(
        small_social, cluster_graph(small_social, 4, seed=1), tmp_path / "g"
    )
    with PPVService.open(
        str(index_path), backend="disk", graph_store=graph_store
    ) as disk_service:
        registered = (
            set(memory_obs.registry.names())
            | set(disk_service.obs.registry.names())
            | set(router.obs.registry.names())
        )
    assert registered == _readme_metric_names()
