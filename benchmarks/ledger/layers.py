"""Per-layer attribution: replays, counter deltas, span arithmetic.

Layers are the repo's modules.  Nothing under ``src/`` is touched; each
number below comes from one of four outside sources, named in brackets
in the README's metric table:

* **S** — deltas of the public ``stats`` verb / ``PPVService.stats()``
  and public store counters around the timed window;
* **W** — spans recorded by the harness's delegating wrappers
  (:mod:`spans`) during the traced pass;
* **R** — timed replay of the workload's own inputs through a layer's
  public functions (:func:`replay_protocol`, :func:`replay_cache`,
  :func:`replay_push`, :func:`replay_live`);
* **P** — ``/proc/<pid>`` CPU of the serving processes.

A metric whose layer is not on a workload's path is reported as 0 there
(cache.* with the cache off, sharding.* without shards, protocol.* and
server.* in-process): "this layer did no work here" is the prediction
the workload exists to check.
"""

from __future__ import annotations

import time

import numpy as np

import loadgen
from dataset import SERVING
from spans import self_times
from workloads import Measurement, Stream, spec_for

REPLAY_REQUESTS = 2000
REPLAY_RENDERS = 512
REPLAY_PINGS = 200
REPLAY_PUSH_BATCH = 16
REPLAY_PUSH_BATCHES = 16
REPLAY_HUBS_PER_FETCH = 16
REPLAY_FETCHES = 12

PER_LAYER = (
    ("driver.late_ms", "ms", "lower"),
    ("driver.cpu_share", "share", "lower"),
    ("driver.trace_overhead", "share", "lower"),
    ("driver.host_speed", "ratio", "lower"),
    ("open.rate", "1/s", "higher"),
    ("open.p50_ms", "ms", "lower"),
    ("open.tail_ms", "ms", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("protocol.parse_us", "us", "lower"),
    ("protocol.render_us", "us", "lower"),
    ("protocol.request_bytes", "B", "lower"),
    ("protocol.reply_bytes", "B", "lower"),
    ("server.ping_rtt_us", "us", "lower"),
    ("server.overhead_ms", "ms", "lower"),
    ("server.requests", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("scheduler.batches", "count", "lower"),
    ("scheduler.batch_mean", "count", "higher"),
    ("scheduler.coalesce_wait_ms", "ms", "lower"),
    ("scheduler.wait_ms", "ms", "lower"),
    ("service.latency_ms", "ms", "lower"),
    ("service.submitted", "count", "higher"),
    ("cache.hit_ratio", "share", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.get_us", "us", "lower"),
    ("cache.put_us", "us", "lower"),
    ("engine.calls", "count", "lower"),
    ("engine.batch_ms", "ms", "lower"),
    ("engine.ms_per_query", "ms", "lower"),
    ("engine.busy_share", "share", "lower"),
    ("core.push_ms_per_query", "ms", "lower"),
    ("core.splice_ms_per_query", "ms", "lower"),
    ("core.iterations_mean", "count", "lower"),
    ("storage.hub_reads_per_query", "count", "lower"),
    ("storage.ppv_bytes_per_query", "B", "lower"),
    ("storage.cluster_faults_per_query", "count", "lower"),
    ("storage.graph_bytes_per_query", "B", "lower"),
    ("storage.ppv_read_ms_per_query", "ms", "lower"),
    ("storage.cluster_load_ms_per_query", "ms", "lower"),
    ("storage.kernel_ms_per_query", "ms", "lower"),
    ("sharding.hub_fetches_per_query", "count", "lower"),
    ("sharding.cluster_fetches_per_query", "count", "lower"),
    ("sharding.fetch_balance", "ratio", "lower"),
    ("sharding.fetch_hubs_rtt_ms", "ms", "lower"),
    ("sharding.fetch_cluster_rtt_ms", "ms", "lower"),
    ("sharding.hub_payload_bytes", "B", "lower"),
    ("sharding.cluster_payload_bytes", "B", "lower"),
    ("sharding.router_cpu_share", "share", "lower"),
    ("sharding.shard_cpu_share", "share", "lower"),
    ("setup.graph_s", "s", "lower"),
    ("setup.index_build_s", "s", "lower"),
    ("setup.store_write_s", "s", "lower"),
    ("setup.partition_s", "s", "lower"),
    ("setup.server_start_s", "s", "lower"),
    ("setup.warm_s", "s", "lower"),
    ("setup.index_bytes", "B", "lower"),
)
"""Every per-layer metric: (name, unit, better).  BENCHMARK.json lists
exactly these; a traced run prints every one of them."""


# --------------------------------------------------------------------- #
# R: replays


def replay_protocol(requests: list, served: list) -> dict:
    """Time the wire codec on the workload's own requests and results:
    ``encode`` as the generator calls it, the server's parse path
    (``parse_request`` → version/verb checks → ``spec_from_request``),
    and ``render_result`` + ``ok_response`` + ``encode`` on real results."""
    from repro.server import protocol

    bodies = Stream.bodies(requests[:REPLAY_REQUESTS])
    began = time.perf_counter()
    lines = [
        protocol.encode({"v": protocol.PROTOCOL_VERSION, "id": i, **body})
        for i, body in enumerate(bodies)
    ]
    encoded = time.perf_counter()
    for line in lines:
        request = protocol.parse_request(line)
        protocol.check_version(request)
        protocol.request_verb(request)
        protocol.spec_from_request(request)
        protocol.top_from_request(request, SERVING["top"])
    parsed = time.perf_counter()
    for i in range(REPLAY_RENDERS):
        spec, result = served[i % len(served)]
        protocol.encode(
            protocol.ok_response(
                i, protocol.render_result(spec, result, SERVING["top"])
            )
        )
    rendered = time.perf_counter()
    return {
        "encode_us": (encoded - began) / len(lines) * 1e6,
        "parse_us": (parsed - encoded) / len(lines) * 1e6,
        "render_us": (rendered - parsed) / REPLAY_RENDERS * 1e6,
    }


def replay_cache(capacity: int, served: list) -> dict:
    """``PopularityCache`` at the workload's capacity, full, with real
    results: ``put`` of a new key (so every put evicts, as in steady
    state) and ``get`` of a resident key (a hit, copy included)."""
    from repro.serving import PopularityCache

    cache = PopularityCache(capacity)
    results = [result for _, result in served]
    for key in range(capacity):
        cache.put(("ppv", key), results[key % len(results)])
    began = time.perf_counter()
    for key in range(capacity, 2 * capacity):
        cache.put(("ppv", key), results[key % len(results)])
    put = time.perf_counter()
    for key in range(capacity, 2 * capacity):
        cache.get(("ppv", key))
    got = time.perf_counter()
    return {
        "put_us": (put - began) / capacity * 1e6,
        "get_us": (got - put) / capacity * 1e6,
    }


def replay_push(dataset, requests: list) -> float:
    """``prime_push_many`` over the workload's own non-hub nodes in
    batches of 16 — iteration 0 of the memory batch kernel; ms/query."""
    from repro.core.prime import prime_push_many

    index = dataset.index
    nodes = [node for _, node in requests if not index.hub_mask[node]]
    nodes = nodes[:REPLAY_PUSH_BATCH * REPLAY_PUSH_BATCHES]
    began = time.perf_counter()
    for start in range(0, len(nodes), REPLAY_PUSH_BATCH):
        prime_push_many(
            dataset.graph,
            np.asarray(nodes[start:start + REPLAY_PUSH_BATCH], dtype=np.int64),
            index.hub_mask, alpha=index.alpha, epsilon=index.epsilon,
        )
    return (time.perf_counter() - began) / len(nodes) * 1e3


def replay_live(server, measurement: Measurement) -> None:
    """Replays that need the live traced server: ``ping`` round-trips,
    and on the sharded workload ``fetch_hubs`` / ``fetch_cluster``
    through ``PPVClient`` (JSON decode included, as the router pays it)
    against shard 0."""
    from repro.server import PPVClient, protocol

    replays = measurement.replays
    with PPVClient(*server.address) as client:
        rtts = []
        for _ in range(REPLAY_PINGS):
            began = time.perf_counter()
            client.ping()
            rtts.append(time.perf_counter() - began)
    replays["ping_rtt_us"] = float(np.median(rtts) * 1e6)
    if not server.shard_addresses:
        return
    with PPVClient(*server.shard_addresses[0]) as client:
        info = client.shard_info()
        hubs, clusters = info["hubs"], info["clusters"]
        hub_seconds = hub_bytes = fetched = 0
        for k in range(REPLAY_FETCHES):
            start = k * REPLAY_HUBS_PER_FETCH % max(1, len(hubs) - REPLAY_HUBS_PER_FETCH)
            wanted = hubs[start:start + REPLAY_HUBS_PER_FETCH]
            began = time.perf_counter()
            payload = client.fetch_hubs(wanted)
            hub_seconds += time.perf_counter() - began
            hub_bytes += len(protocol.encode(payload))
            fetched += len(wanted)
        cluster_seconds = cluster_bytes = 0
        for k in range(REPLAY_FETCHES):
            cluster = clusters[k % len(clusters)]
            began = time.perf_counter()
            payload = client.fetch_cluster(cluster)
            cluster_seconds += time.perf_counter() - began
            cluster_bytes += len(protocol.encode(payload))
    replays["fetch_hubs_rtt_ms"] = hub_seconds / fetched * 1e3
    replays["hub_payload_bytes"] = hub_bytes / fetched
    replays["fetch_cluster_rtt_ms"] = cluster_seconds / REPLAY_FETCHES * 1e3
    replays["cluster_payload_bytes"] = cluster_bytes / REPLAY_FETCHES


# --------------------------------------------------------------------- #
# S: counter deltas


def _histogram_mean_ms(before: dict, after: dict) -> float:
    count = after.get("count", 0) - before.get("count", 0)
    total = after.get("total_seconds", 0.0) - before.get("total_seconds", 0.0)
    return total / count * 1e3 if count else 0.0


def _metric(stats: dict, name: str, section=None):
    """Summed samples (or the one histogram) of a registry metric in a
    ``stats`` payload; ``section="shards"`` reads the fleet-merged copy."""
    source = stats.get(section, {}) if section else stats
    samples = source.get("metrics", {}).get(name, {}).get("samples", ())
    if samples and "histogram" in samples[0]:
        return samples[0]["histogram"]
    return sum(sample.get("value", 0) for sample in samples)


def _shard_fetches(stats: dict, key: str) -> int:
    return sum(
        entry[key] for entry in stats.get("shards", {}).get("per_shard", ())
    )


# --------------------------------------------------------------------- #
# Assembly


def per_layer(measurement: Measurement, untraced_qps: float,
              host_speed: float) -> dict:
    """Every :data:`PER_LAYER` metric of one traced measurement.

    Per-layer times are raw readings; ``driver.host_speed`` is the
    host-speed factor of the timed window (divide a time by it to put it
    on the end-to-end metrics' scale).  ``untraced_qps`` is already at
    nominal host speed, so ``driver.trace_overhead`` compares like with
    like."""
    workload = measurement.workload
    before, after = measurement.stats_before, measurement.stats_after
    replays = measurement.replays
    wall = measurement.window[1] - measurement.window[0]
    out = {name: 0.0 for name, _, _ in PER_LAYER}

    def counted(section: str, key: str):
        """Delta of a plain ``stats`` counter over the timed window."""
        return after[section][key] - before[section][key]

    def metric_delta(name: str, section=None):
        """Delta of a registry counter over the timed window."""
        return _metric(after, name, section) - _metric(before, name, section)

    # harness
    timed_phases = [phase for _, phase in measurement.timed]
    out["driver.late_ms"] = max(phase.late_ms for phase in timed_phases)
    out["driver.cpu_share"] = max(phase.cpu_share for phase in timed_phases)
    out["driver.trace_overhead"] = (
        1.0 - measurement.closed_qps * host_speed / untraced_qps
    )
    out["driver.host_speed"] = host_speed
    opened = measurement.phases.get("open")
    if opened is not None:
        latencies = opened.latencies_ms(from_due=True)
        out["open.rate"] = workload.open_rate
        out["open.p50_ms"] = loadgen.percentile(latencies, 50)
        out["open.tail_ms"] = loadgen.segment_percentile(
            latencies, loadgen.tail_percentile(latencies.size),
            loadgen.tail_segments(latencies.size),
        )

    # service + scheduler (S)
    submitted = counted("service", "submitted")
    batches = counted("service", "batches")
    service_ms = _histogram_mean_ms(
        before["service"]["latency"], after["service"]["latency"]
    )
    out["service.latency_ms"] = service_ms
    out["service.submitted"] = submitted
    out["scheduler.batches"] = batches
    out["scheduler.batch_mean"] = submitted / batches
    if workload.cache_size:
        hits = counted("service", "cache_hits")
        out["cache.hit_ratio"] = hits / (hits + counted("service", "cache_misses"))
        out["cache.evictions"] = metric_delta("repro_cache_evictions_total")
        out["cache.get_us"] = replays["cache"]["get_us"]
        out["cache.put_us"] = replays["cache"]["put_us"]

    # wire + front-end (TCP only)
    if workload.over_tcp:
        out["scheduler.coalesce_wait_ms"] = _histogram_mean_ms(
            _metric(before, "repro_coalesce_delay_seconds"),
            _metric(after, "repro_coalesce_delay_seconds"),
        )
        out["protocol.encode_us"] = replays["protocol"]["encode_us"]
        out["protocol.parse_us"] = replays["protocol"]["parse_us"]
        out["protocol.render_us"] = replays["protocol"]["render_us"]
        attempted = sum(phase.attempted for phase in timed_phases)
        answered = sum(phase.answered for phase in timed_phases)
        out["protocol.request_bytes"] = (
            sum(phase.request_bytes for phase in timed_phases) / attempted
        )
        out["protocol.reply_bytes"] = (
            sum(phase.reply_bytes for phase in timed_phases) / answered
        )
        client_ms = float(np.mean(np.concatenate(
            [phase.latencies_ms(from_due=False) for phase in timed_phases]
        )))
        out["server.ping_rtt_us"] = replays["ping_rtt_us"]
        out["server.overhead_ms"] = client_ms - service_ms
        out["server.requests"] = counted("server", "requests_total")
        out["server.errors"] = counted("server", "errors_total")

    # engine (W): spans of the timed window only — warm-up is set-up
    start, end = measurement.window
    spans = measurement.spans
    selfs = self_times(spans)
    inside = [
        i for i, span in enumerate(spans)
        if span["start"] >= start and span["end"] <= end
    ]
    calls = [i for i in inside if spans[i]["name"] == "engine.call"]
    engine_seconds = sum(spans[i]["end"] - spans[i]["start"] for i in calls)
    engine_queries = sum(spans[i]["size"] for i in calls)
    out["engine.calls"] = len(calls)
    out["engine.batch_ms"] = engine_seconds / len(calls) * 1e3
    out["engine.ms_per_query"] = engine_seconds / engine_queries * 1e3
    out["engine.busy_share"] = engine_seconds / wall
    # Time a query spends in the service outside the engine call it rode
    # in: each query of a batch waits for the whole call.
    rode = sum(
        (spans[i]["end"] - spans[i]["start"]) * spans[i]["size"] for i in calls
    )
    out["scheduler.wait_ms"] = service_ms - rode / submitted * 1e3

    # core
    out["core.iterations_mean"] = float(
        sum(phase.iterations[phase.ok].sum() for phase in timed_phases)
        / measurement.answered
    )
    if workload.backend == "memory":
        out["core.push_ms_per_query"] = replays["push_ms_per_query"]
        out["core.splice_ms_per_query"] = (
            out["engine.ms_per_query"] - replays["push_ms_per_query"]
        )

    # storage
    if workload.backend != "memory":
        if workload.over_tcp:
            # Reads and faults are the router's; the bytes were read by
            # the shards, so they come from the fleet-merged registry.
            counts = {
                "hub_reads": metric_delta("repro_hub_reads_total"),
                "cluster_faults": metric_delta("repro_cluster_faults_total"),
                "ppv_bytes": metric_delta("repro_ppv_bytes_read_total", "shards"),
                "graph_bytes": metric_delta(
                    "repro_graph_bytes_read_total", "shards"
                ),
            }
        else:
            counts = measurement.store_counts
        out["storage.hub_reads_per_query"] = counts["hub_reads"] / engine_queries
        out["storage.ppv_bytes_per_query"] = counts["ppv_bytes"] / engine_queries
        out["storage.cluster_faults_per_query"] = (
            counts["cluster_faults"] / engine_queries
        )
        out["storage.graph_bytes_per_query"] = counts["graph_bytes"] / engine_queries
        by_name = {"store.ppv_read": 0.0, "store.cluster_load": 0.0}
        for i in inside:
            if spans[i]["name"] in by_name:
                by_name[spans[i]["name"]] += spans[i]["end"] - spans[i]["start"]
        out["storage.ppv_read_ms_per_query"] = (
            by_name["store.ppv_read"] / engine_queries * 1e3
        )
        out["storage.cluster_load_ms_per_query"] = (
            by_name["store.cluster_load"] / engine_queries * 1e3
        )
        out["storage.kernel_ms_per_query"] = (
            sum(selfs[i] for i in calls) / engine_queries * 1e3
        )

    # sharding
    if workload.backend == "sharded":
        out["sharding.hub_fetches_per_query"] = (
            _shard_fetches(after, "hub_fetches")
            - _shard_fetches(before, "hub_fetches")
        ) / engine_queries
        out["sharding.cluster_fetches_per_query"] = (
            _shard_fetches(after, "cluster_fetches")
            - _shard_fetches(before, "cluster_fetches")
        ) / engine_queries
        out["sharding.fetch_balance"] = after["shards"]["fetch_balance"]
        for key in ("fetch_hubs_rtt_ms", "fetch_cluster_rtt_ms",
                    "hub_payload_bytes", "cluster_payload_bytes"):
            out[f"sharding.{key}"] = replays[key]
        out["sharding.router_cpu_share"] = measurement.serving_cpu["router"] / wall
        out["sharding.shard_cpu_share"] = measurement.serving_cpu["shards"] / wall

    # offline build
    for stage, value in measurement.stages.items():
        out[f"setup.{stage}"] = value
    return out


def served_pairs(measurement: Measurement, reference) -> list:
    """(spec, reference result) of the accuracy sample plus the checked
    replies — the real results the protocol and cache replays run on."""
    from dataset import l1_nodes

    requests = [("ppv", node) for node in l1_nodes()]
    for stream_requests, phase in measurement.timed:
        requests += [stream_requests[p] for p in sorted(phase.kept)]
    specs = [spec_for(family, node) for family, node in requests]
    return list(zip(specs, reference.query_many(specs)))

