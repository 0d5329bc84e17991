"""The four named workloads: streams, phases, checks, end-to-end metrics.

Names are fixed — later issues cite them.  Each workload is a small
declarative record (:data:`WORKLOADS`) plus one of two drivers:
:func:`measure_tcp` for the three that go through a server process and
:func:`measure_bursts` for the in-process disk one.  A driver returns a
:class:`Measurement`; :func:`end_to_end` turns it into the seven
end-to-end metrics and :mod:`layers` into the per-layer ones.

Request counts scale with ``--seconds`` (the figures below are for the
15 s the committed ``BENCHMARK.json`` asks for) but never drop below
1000 timed TCP samples or 200 bursts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import dataset as data
import loadgen
import servers
from dataset import DATASET, SERVING

NOMINAL_SECONDS = 15
MIN_TCP_SAMPLES = 1000
MIN_BURSTS = 200
BURST = 8
WARM_REQUESTS = 32
CHECK_SAMPLE = 64
MEMORY_TOLERANCE = 1e-12
"""The memory backend's documented equivalence across batch
compositions (the disk and sharded backends are compared bitwise)."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str          # what serves: "memory", "sharded" or "disk"
    reference: str        # in-process backend replies are compared with
    cache_size: int = 0
    closed: int = 0       # closed-loop requests (bursts for "disk") at 15 s
    open_rate: float = 0  # traced pass: open-loop arrivals/s (0 = none) ...
    open_share: float = 0  # ... for this share of --seconds, before the closed loop
    warm: int = WARM_REQUESTS
    zipf_s: float = 0     # 0 = distinct nodes
    top_k_share: float = 0

    @property
    def over_tcp(self) -> bool:
        return self.backend != "disk"

    @property
    def bitwise(self) -> bool:
        return self.reference == "disk"

    @property
    def per_op(self) -> int:
        """Queries per timed operation (a burst is 8 of them)."""
        return 1 if self.over_tcp else BURST


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mem_tcp_unique",
            "distinct nodes, cache off, closed loop 2x8 over TCP: the batch "
            "kernel (core.batch/core.splice) and the scheduler do the work, "
            "cache and stores none",
            backend="memory", reference="memory", closed=7000,
        ),
        Workload(
            "mem_tcp_zipf_open",
            "Zipf(1.1) 80/20 ppv/top_k with a 256-entry cache, closed loop "
            "2x8 (plus an open loop at a fixed rate in the traced pass): ~2/3 "
            "cache hits, so wire codec, asyncio front-end and cache dominate",
            backend="memory", reference="memory", cache_size=256,
            closed=13000, open_rate=250.0, open_share=0.5, warm=600,
            zipf_s=1.1, top_k_share=0.2,
        ),
        Workload(
            "disk_inproc_burst",
            "disk backend in-process, one caller, bursts of 8 distinct "
            "nodes: no wire; store I/O, the cluster-draining push and "
            "splice_rounds_exact do the work and I/O counts repeat exactly",
            backend="disk", reference="disk", closed=MIN_BURSTS, warm=BURST,
        ),
        Workload(
            "shard2_tcp_unique",
            "router + 2 shard processes over TCP, cache off, closed loop "
            "2x8, distinct nodes: the disk kernels over remote stores, so "
            "the JSON shard data plane dominates",
            backend="sharded", reference="disk", closed=1300,
        ),
    )
}


# --------------------------------------------------------------------- #
# Streams


@dataclass
class Stream:
    """The seeded inputs of one run: (family, node) per request."""

    warm: list
    open: list
    offsets: np.ndarray
    closed: list

    @staticmethod
    def bodies(requests) -> list[dict]:
        return [
            loadgen.top_k_body(node, SERVING) if family == "top_k"
            else loadgen.ppv_body(node, SERVING)
            for family, node in requests
        ]


def spec_for(family: str, node: int):
    from repro import StopAfterIterations
    from repro.serving import QuerySpec

    if family == "top_k":
        return QuerySpec(node, top_k=SERVING["top_k"])
    return QuerySpec(node, stop=StopAfterIterations(SERVING["eta"]))


def scaled(count: int, seconds: float, floor: int) -> int:
    return max(floor, round(count * seconds / NOMINAL_SECONDS))


def make_stream(workload: Workload, seed: int, seconds: float,
                open_loop: bool = False) -> Stream:
    """The run's inputs.  ``open_loop`` (traced pass) gives a workload
    that has an open-loop rate an open phase for ``open_share`` of
    ``seconds`` and shrinks its closed loop to the rest."""
    open_seconds = seconds * workload.open_share if open_loop else 0.0
    if workload.over_tcp:
        closed = scaled(workload.closed, seconds - open_seconds, MIN_TCP_SAMPLES)
    else:
        closed = BURST * scaled(workload.closed, seconds, MIN_BURSTS)
    opened = 0
    if open_seconds:
        opened = max(MIN_TCP_SAMPLES, round(workload.open_rate * open_seconds))
    total = workload.warm + opened + closed
    if workload.zipf_s:
        order = data.popularity_order()
        ranks = loadgen.zipf_ranks(
            seed, total, DATASET["num_nodes"], workload.zipf_s
        )
        minority = loadgen.family_mask(seed, total, workload.top_k_share)
        requests = [
            ("top_k" if flag else "ppv", int(order[rank]))
            for rank, flag in zip(ranks, minority)
        ]
    else:
        requests = [
            ("ppv", node)
            for node in loadgen.unique_nodes(seed, total, DATASET["num_nodes"])
        ]
    warm_end = workload.warm
    open_end = warm_end + opened
    return Stream(
        warm=requests[:warm_end],
        open=requests[warm_end:open_end],
        offsets=loadgen.poisson_offsets(seed, opened, workload.open_rate or 1.0),
        closed=requests[open_end:],
    )


# --------------------------------------------------------------------- #
# Measurement


@dataclass
class Measurement:
    """What one pass over a workload observed (traced or not)."""

    workload: Workload
    stream: Stream
    setup_windows: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    window: tuple = (0.0, 0.0)
    serving_cpu: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    store_counts: dict = field(default_factory=dict)
    replays: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    dataset: object = None

    @property
    def timed(self) -> list:
        """(requests, phase) of every timed phase, in order."""
        pairs = []
        if "open" in self.phases:
            pairs.append((self.stream.open, self.phases["open"]))
        pairs.append((self.stream.closed, self.phases["closed"]))
        return pairs

    @property
    def answered(self) -> int:
        """Queries answered over every timed phase."""
        return self.workload.per_op * sum(p.answered for _, p in self.timed)

    @property
    def closed_qps(self) -> float:
        """Raw closed-loop throughput in queries per second."""
        closed = self.phases["closed"]
        return closed.answered * self.workload.per_op / closed.seconds


class InvalidRun(RuntimeError):
    """The generator, not the system, limited this run: no result."""


def check_generator(measurement: Measurement) -> None:
    """Generator honesty: refuse to report a run the generator bounded."""
    for name, phase in measurement.phases.items():
        if phase.cpu_share > 0.8:
            raise InvalidRun(
                f"{measurement.workload.name}/{name}: generator used "
                f"{phase.cpu_share:.2f} of a core; it is the bottleneck"
            )
    opened = measurement.phases.get("open")
    if opened is not None:
        limit = loadgen.CONNECTIONS * loadgen.WINDOW
        if opened.backlog_growth() > limit:
            raise InvalidRun(
                f"{measurement.workload.name}/open: backlog still growing "
                f"by {opened.backlog_growth():.1f} requests when arrivals "
                f"stopped (limit {limit}); the fixed rate exceeds capacity"
            )


# --------------------------------------------------------------------- #
# TCP driver


def measure_tcp(workload: Workload, stream: Stream, seed: int, workdir,
                launch, setups: int, replay=None) -> Measurement:
    """Set up ``setups`` times (dataset, server, warm-up), then run the
    timed phases against the last server.  ``launch(dataset, log_path)``
    starts the server; ``replay(server, measurement)`` runs against it
    between the timed phases and shutdown (traced pass only)."""
    measurement = Measurement(workload, stream)
    server = None
    try:
        for attempt in range(setups):
            if server is not None:
                server.stop()
            began = time.perf_counter()
            built = data.build(workdir / f"data{attempt}")
            started = time.perf_counter()
            server = launch(built, workdir / f"server{attempt}.log")
            listening = time.perf_counter()
            warm = loadgen.closed_loop(server.address, Stream.bodies(stream.warm))
            if warm.failed:
                raise RuntimeError(f"warm-up failed: {warm.errors[:3]}")
            ended = time.perf_counter()
            measurement.setup_windows.append((began, ended))
            measurement.stages = {
                **built.stage_seconds,
                "server_start_s": listening - started,
                "warm_s": ended - listening,
                "index_bytes": built.index_bytes,
            }
        measurement.dataset = built
        pids = server.pids()
        measurement.stats_before = server.stats()
        cpu_before = servers.cpu_seconds(pids)
        window_start = time.perf_counter()
        if stream.open:
            keep = loadgen.sample_positions(seed, len(stream.open), CHECK_SAMPLE // 2)
            measurement.phases["open"] = loadgen.open_loop(
                server.address, Stream.bodies(stream.open),
                stream.offsets, keep,
            )
        kept = CHECK_SAMPLE - (CHECK_SAMPLE // 2 if stream.open else 0)
        measurement.phases["closed"] = loadgen.closed_loop(
            server.address, Stream.bodies(stream.closed),
            loadgen.sample_positions(seed + 1, len(stream.closed), kept),
        )
        measurement.window = (window_start, time.perf_counter())
        cpu_after = servers.cpu_seconds(pids)
        measurement.stats_after = server.stats()
        measurement.serving_cpu = {
            role: cpu_after[role] - cpu_before[role] for role in cpu_after
        }
        measurement.rss_mb = servers.peak_rss_mb(pids)
        if replay is not None:
            replay(server, measurement)
    finally:
        if server is not None:
            server.stop()
    return measurement


# --------------------------------------------------------------------- #
# In-process burst driver


def measure_bursts(workload: Workload, stream: Stream, seed: int, workdir,
                   setups: int, recorder=None) -> Measurement:
    """``disk_inproc_burst``: one caller, ``service.query_many`` per
    burst of 8.  With a ``recorder`` the engine and both stores sit
    behind timed wrappers and every burst is a root span."""
    from repro.serving import PPVService
    from repro.storage import DiskGraphStore, DiskPPVStore

    measurement = Measurement(workload, stream)
    specs = [spec_for(family, node) for family, node in stream.closed]
    bursts = [specs[i:i + BURST] for i in range(0, len(specs), BURST)]
    warm = [spec_for(family, node) for family, node in stream.warm]
    service = None
    try:
        for attempt in range(setups):
            if service is not None:
                service.close()
                ppv_store.close()
            began = time.perf_counter()
            built = data.build(workdir / f"data{attempt}")
            started = time.perf_counter()
            graph_store = DiskGraphStore.open(built.cluster_dir)
            ppv_store = DiskPPVStore(built.index_path)
            if recorder is None:
                service = PPVService.open(
                    ppv_store, graph_store=graph_store,
                    delta=SERVING["delta"], cache_size=0,
                )
            else:
                from spans import traced_disk_engine

                service = PPVService(
                    traced_disk_engine(graph_store, ppv_store, recorder,
                                       SERVING["delta"]),
                    cache_size=0,
                )
            opened = time.perf_counter()
            service.query_many(warm)
            ended = time.perf_counter()
            measurement.setup_windows.append((began, ended))
            measurement.stages = {
                **built.stage_seconds,
                "server_start_s": opened - started,
                "warm_s": ended - opened,
                "index_bytes": built.index_bytes,
            }
        measurement.dataset = built
        count = len(bursts)
        phase = loadgen.Phase(
            due=np.zeros(count), sent=np.zeros(count), done=np.zeros(count),
            ok=np.zeros(count, dtype=bool),
            iterations=np.zeros(count, dtype=np.int64),
        )

        def counters() -> dict:
            return {
                "hub_reads": ppv_store.reads,
                "ppv_bytes": ppv_store.bytes_read,
                "cluster_faults": graph_store.faults,
                "graph_bytes": graph_store.bytes_read,
            }

        stats_before = service.stats()
        counts_before = counters()
        keep = set(loadgen.sample_positions(seed, len(specs), CHECK_SAMPLE))
        cpu_before = time.process_time()
        phase.started = time.perf_counter()
        for number, burst in enumerate(bursts):
            phase.due[number] = phase.sent[number] = time.perf_counter()
            if recorder is None:
                results = service.query_many(burst)
            else:
                with recorder.span("burst", op=number, size=len(burst)):
                    results = service.query_many(burst)
            phase.done[number] = time.perf_counter()
            phase.ok[number] = len(results) == len(burst)
            phase.iterations[number] = sum(r.result.iterations for r in results)
            for offset, result in enumerate(results):
                if number * BURST + offset in keep:
                    phase.kept[number * BURST + offset] = result
        phase.finished = time.perf_counter()
        phase.cpu_seconds = 0.0  # the caller *is* the serving process
        measurement.serving_cpu = {
            "router": time.process_time() - cpu_before, "shards": 0.0,
        }
        counts_after = counters()
        measurement.store_counts = {
            key: counts_after[key] - counts_before[key] for key in counts_after
        }
        stats_after = service.stats()
        measurement.stats_before = {"service": _service_dict(stats_before)}
        measurement.stats_after = {"service": _service_dict(stats_after)}
        measurement.phases["closed"] = phase
        measurement.window = (phase.started, phase.finished)
        measurement.rss_mb = loadgen.proc_peak_rss_mb("self")
    finally:
        if service is not None:
            service.close()
            ppv_store.close()
    return measurement


def _service_dict(stats) -> dict:
    """``ServiceStats`` in the shape the ``stats`` verb gives it."""
    return {
        "submitted": stats.submitted, "batches": stats.batches,
        "cache_hits": stats.cache_hits, "cache_misses": stats.cache_misses,
        "latency": stats.latency,
    }


# --------------------------------------------------------------------- #
# Correctness and accuracy


def reply_matches(reply: dict, spec, result, bitwise: bool) -> bool:
    """Is a served ``result`` payload the reference's?

    Bitwise backends: dict equality after the JSON round-trip (which is
    exact for float64).  Memory backend: every non-score field equal,
    every listed score within :data:`MEMORY_TOLERANCE` of the reference
    score of the same node, and no unlisted node beats the weakest listed
    one by more than the tolerance.
    """
    from repro.server import protocol

    expected = protocol.render_result(spec, result, SERVING["top"])
    if bitwise:
        return reply == expected
    loose = ("top", "l1_error")
    if {k: v for k, v in reply.items() if k not in loose} != {
        k: v for k, v in expected.items() if k not in loose
    }:
        return False
    if abs(reply.get("l1_error", np.inf) - expected["l1_error"]) > MEMORY_TOLERANCE:
        return False
    listed = reply.get("top", ())
    if len(listed) != len(expected["top"]):
        return False
    scores = result.scores
    for node, score in listed:
        if not 0 <= node < scores.size:
            return False
        if abs(scores[node] - score) > MEMORY_TOLERANCE:
            return False
    if not listed:
        return True
    weakest = min(score for _, score in listed)
    return weakest >= expected["top"][-1][1] - MEMORY_TOLERANCE


def check_replies(measurement: Measurement, reference) -> tuple[int, int]:
    """Compare every kept ``ok`` reply with the in-process reference;
    returns ``(checked, mismatched)``.  (A kept request that was refused
    or failed is already counted by its phase.)"""
    from repro.server import protocol

    workload = measurement.workload
    checked = mismatched = 0
    for requests, phase in measurement.timed:
        positions = [
            p for p in sorted(phase.kept)
            if not workload.over_tcp or phase.kept[p].get("ok")
        ]
        specs = [spec_for(*requests[p]) for p in positions]
        results = reference.query_many(specs)
        for position, spec, result in zip(positions, specs, results):
            kept = phase.kept[position]
            if workload.over_tcp:
                served = kept["result"]
            else:
                served = protocol.render_result(spec, kept, SERVING["top"])
            checked += 1
            mismatched += not reply_matches(served, spec, result, workload.bitwise)
    return checked, mismatched


# --------------------------------------------------------------------- #
# End-to-end metrics


def end_to_end(measurement: Measurement, l1_err: float, host_speed) -> dict:
    """The seven end-to-end metrics plus how each was sampled.

    ``host_speed(start, end)`` is the host-speed factor of a window
    (:mod:`calibrate`); times are divided and rates multiplied by the
    factor of the window they were measured in.  The raw readings and
    the factors are returned under ``_sampling``.
    """
    workload = measurement.workload
    closed = measurement.phases["closed"]
    latencies = closed.latencies_ms(from_due=False)
    tail = loadgen.tail_percentile(latencies.size)
    segments = loadgen.tail_segments(latencies.size)
    cpu = sum(measurement.serving_cpu.values())
    speed = {
        "closed": host_speed(closed.started, closed.finished),
        "window": host_speed(*measurement.window),
        "setups": [host_speed(a, b) for a, b in measurement.setup_windows],
    }
    raw = {
        "setup_s": [b - a for a, b in measurement.setup_windows],
        "qps": measurement.closed_qps,
        "cpu_s_per_kq": cpu / measurement.answered * 1e3,
        "p50_ms": loadgen.percentile(latencies, 50),
        "tail_ms": loadgen.segment_percentile(latencies, tail, segments),
        "latency_ms": {
            str(q): loadgen.percentile(latencies, q) for q in (50, 75, 90, 95, 99)
        },
        "segment_latency_ms": {
            str(q): loadgen.segment_percentile(latencies, q, segments)
            for q in (75, 90, 95, 99)
        },
    }
    return {
        "setup_s": float(np.median(
            [s / f for s, f in zip(raw["setup_s"], speed["setups"])]
        )),
        "qps": raw["qps"] * speed["closed"],
        "p50_ms": raw["p50_ms"] / speed["closed"],
        "tail_ms": raw["tail_ms"] / speed["closed"],
        "cpu_s_per_kq": raw["cpu_s_per_kq"] / speed["window"],
        "rss_mb": measurement.rss_mb,
        "l1_err": l1_err,
        "_sampling": {
            "tail_percentile": tail,
            "tail_segments": segments,
            "latency_samples": int(latencies.size),
            "qps_queries": closed.answered * workload.per_op,
            "setup_repeats": len(measurement.setup_windows),
            "host_speed": speed,
            "raw": raw,
        },
    }
