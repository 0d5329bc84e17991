"""Self-test of the ledger harness (not collected by tier-1).

    python -m pytest benchmarks/ledger/selftest_ledger.py -q      # < 60 s

Checks the parts of the harness a wrong number could hide behind: the
seeded generators, the span arithmetic, the delegating wrappers, the
reply check, the generator-honesty guards, and that ``BENCHMARK.json``
lists exactly the metrics and workloads the code reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(LEDGER_DIR))

import dataset as data  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run as ledger_run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import (  # noqa: E402
    ENGINE_SPANS, Recorder, Timed, self_times, traced_disk_engine,
)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    return data.build(tmp_path_factory.mktemp("ledger_selftest"))


# --------------------------------------------------------------------- #
# Generators


def test_generators_are_seed_deterministic():
    n = data.DATASET["num_nodes"]
    assert np.array_equal(loadgen.zipf_ranks(7, 500, n), loadgen.zipf_ranks(7, 500, n))
    assert not np.array_equal(loadgen.zipf_ranks(7, 500, n), loadgen.zipf_ranks(8, 500, n))
    assert np.array_equal(
        loadgen.poisson_offsets(7, 500, 250.0), loadgen.poisson_offsets(7, 500, 250.0)
    )
    assert not np.array_equal(
        loadgen.poisson_offsets(7, 500, 250.0), loadgen.poisson_offsets(8, 500, 250.0)
    )
    assert loadgen.unique_nodes(7, 900, n) == loadgen.unique_nodes(7, 900, n)
    assert len(set(loadgen.unique_nodes(7, n, n))) == n


def test_generator_shapes():
    n = data.DATASET["num_nodes"]
    ranks = loadgen.zipf_ranks(3, 20000, n, 1.1)
    # Zipf: rank 0 is the mode and the head carries most of the mass.
    assert np.bincount(ranks).argmax() == 0
    assert (ranks < 256).mean() > 0.5
    offsets = loadgen.poisson_offsets(3, 20000, 250.0)
    assert np.all(np.diff(offsets) > 0)
    assert abs(np.diff(offsets).mean() * 250.0 - 1.0) < 0.05


def test_streams_are_a_function_of_the_seed():
    workload = wl.WORKLOADS["mem_tcp_zipf_open"]
    a = wl.make_stream(workload, 5, 15, open_loop=True)
    b = wl.make_stream(workload, 5, 15, open_loop=True)
    c = wl.make_stream(workload, 6, 15, open_loop=True)
    assert a.closed == b.closed and a.open == b.open
    assert np.array_equal(a.offsets, b.offsets)
    assert a.closed != c.closed
    assert len(a.open) >= wl.MIN_TCP_SAMPLES <= len(a.closed)
    untraced = wl.make_stream(workload, 5, 15)
    assert not untraced.open and len(untraced.closed) == workload.closed
    short = wl.make_stream(wl.WORKLOADS["disk_inproc_burst"], 5, 1)
    assert len(short.closed) == wl.MIN_BURSTS * wl.BURST


def test_tail_percentile_needs_ten_samples_beyond():
    # 5 segments from 1000 samples up; ten beyond in *each* segment.
    assert loadgen.tail_percentile(7000) == 99
    assert loadgen.tail_percentile(1000) == 95
    assert loadgen.tail_percentile(999) == 95
    assert loadgen.tail_percentile(200) == 95
    assert loadgen.tail_percentile(150) == 90
    spike = np.r_[np.full(985, 1.0), np.full(15, 100.0)]  # one stalled batch
    assert loadgen.segment_percentile(spike, 99, 5) == 1.0
    assert loadgen.segment_percentile(spike, 99, 1) > 1.0


# --------------------------------------------------------------------- #
# Spans


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None, "op": 1},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0, "op": 1},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0, "op": 1},   # overlaps a
        {"name": "c", "start": 8.0, "end": 12.0, "parent": 0, "op": 1},  # overruns root
        {"name": "leaf", "start": 1.5, "end": 2.0, "parent": 1, "op": 1},
    ]
    # root: 10 - |[1,6] ∪ [8,10]| = 10 - 7 = 3; a: 3 - 0.5; leaves: own length.
    assert self_times(spans) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5])


def test_recorder_nests_and_inherits_op():
    recorder = Recorder()
    with recorder.span("outer", op="burst-3"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert outer["parent"] is None and inner["parent"] == 0
    assert inner["op"] == "burst-3"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    other = Recorder()
    other.add("client.request", 0.0, 1.0, op=0)
    other.extend(recorder.spans)
    assert other.spans[2]["parent"] == 1


# --------------------------------------------------------------------- #
# Wrappers


def test_wrapped_disk_engine_is_bitwise_the_bare_one(built):
    from repro import StopAfterIterations
    from repro.serving import DiskEngine
    from repro.storage import DiskGraphStore, DiskPPVStore

    nodes = data.l1_nodes()[:8]
    stop = StopAfterIterations(data.SERVING["eta"])
    with DiskPPVStore(built.index_path) as ppv_store:
        bare = DiskEngine(
            DiskGraphStore.open(built.cluster_dir), ppv_store,
            delta=data.SERVING["delta"],
        ).query_batch(nodes, stop)
    recorder = Recorder()
    with DiskPPVStore(built.index_path) as ppv_store:
        engine = traced_disk_engine(
            DiskGraphStore.open(built.cluster_dir), ppv_store, recorder,
            data.SERVING["delta"],
        )
        wrapped = engine.query_batch(nodes, stop)
        assert engine.backend == "disk" and engine.num_nodes == built.graph.num_nodes
    for a, b in zip(bare, wrapped):
        assert np.array_equal(a.scores, b.scores)
        assert (a.cluster_faults, a.hub_reads) == (b.cluster_faults, b.hub_reads)
    names = {span["name"] for span in recorder.spans}
    assert names == {"engine.call", "store.ppv_read", "store.cluster_load"}
    call = next(s for s in recorder.spans if s["name"] == "engine.call")
    assert call["size"] == len(nodes)
    assert all(
        s["parent"] is not None for s in recorder.spans if s["name"] != "engine.call"
    )


def test_wrapped_memory_engine_is_bitwise_the_bare_one(built):
    from repro import StopAfterIterations
    from repro.serving import MemoryEngine

    nodes = data.l1_nodes()[:16]
    stop = StopAfterIterations(data.SERVING["eta"])
    bare = MemoryEngine(built.graph, built.index, delta=data.SERVING["delta"])
    wrapped = Timed(
        MemoryEngine(built.graph, built.index, delta=data.SERVING["delta"]),
        Recorder(), ENGINE_SPANS,
    )
    for a, b in zip(bare.query_batch(nodes, stop), wrapped.query_batch(nodes, stop)):
        assert np.array_equal(a.scores, b.scores)
    for a, b in zip(
        bare.query_top_k_batch(nodes[:4], 10, 32),
        wrapped.query_top_k_batch(nodes[:4], 10, 32),
    ):
        assert np.array_equal(a.nodes, b.nodes)
    assert wrapped.cache_token() is not None


# --------------------------------------------------------------------- #
# Reply check


def _served(built, backend):
    from repro.server import protocol

    with data.open_reference(built, backend) as reference:
        specs = [wl.spec_for("ppv", n) for n in data.l1_nodes()[:4]]
        specs.append(wl.spec_for("top_k", data.l1_nodes()[4]))
        results = reference.query_many(specs)
    replies = [
        json.loads(protocol.encode(
            protocol.render_result(spec, result, data.SERVING["top"])
        ))
        for spec, result in zip(specs, results)
    ]
    return specs, results, replies


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_corrupted_reply_is_a_failure(built, backend):
    specs, results, replies = _served(built, backend)
    bitwise = backend == "disk"
    for spec, result, reply in zip(specs, results, replies):
        assert wl.reply_matches(reply, spec, result, bitwise)
        node, score = reply["top"][0]
        corruptions = [
            {**reply, "top": [[node, score * (1 + 1e-9)]] + reply["top"][1:]},
            {**reply, "top": reply["top"][:-1]},
            {**reply, "top": [[(node + 1) % 4000, score]] + reply["top"][1:]},
            {**reply, "iterations": reply["iterations"] + 1},
        ]
        for corrupted in corruptions:
            assert not wl.reply_matches(corrupted, spec, result, bitwise)


def test_check_replies_counts_a_corrupted_reply(built):
    specs, results, replies = _served(built, "disk")
    workload = wl.WORKLOADS["shard2_tcp_unique"]
    requests = [("ppv", n) for n in data.l1_nodes()[:4]]
    phase = loadgen.Phase(
        due=np.zeros(4), sent=np.zeros(4), done=np.ones(4),
        ok=np.array([True, True, True, False]), iterations=np.full(4, 2),
    )
    for position in range(4):
        phase.kept[position] = {"id": position, "ok": True,
                                "result": replies[position]}
    phase.kept[2]["result"] = {**replies[2], "l1_error": 0.0}
    phase.kept[3] = {"id": 3, "ok": False, "error": {"code": "internal"}}
    measurement = wl.Measurement(
        workload, wl.Stream(warm=[], open=[], offsets=np.empty(0), closed=requests),
        phases={"closed": phase},
    )
    with data.open_reference(built, "disk") as reference:
        # Three ok replies compared, one of them corrupted; the refused
        # one is the phase's own failure, not the check's.
        assert wl.check_replies(measurement, reference) == (3, 1)


# --------------------------------------------------------------------- #
# Generator honesty


def _phase(count, **overrides):
    phase = loadgen.Phase(
        due=np.zeros(count), sent=np.zeros(count), done=np.ones(count),
        ok=np.ones(count, dtype=bool), iterations=np.zeros(count, dtype=np.int64),
        started=0.0, finished=10.0, cpu_seconds=1.0,
    )
    for key, value in overrides.items():
        setattr(phase, key, value)
    return phase


def test_saturated_generator_fails_the_run():
    workload = wl.WORKLOADS["mem_tcp_unique"]
    stream = wl.Stream(warm=[], open=[], offsets=np.empty(0), closed=[])
    fine = wl.Measurement(workload, stream, phases={"closed": _phase(100)})
    wl.check_generator(fine)
    busy = wl.Measurement(
        workload, stream, phases={"closed": _phase(100, cpu_seconds=8.5)}
    )
    with pytest.raises(wl.InvalidRun, match="bottleneck"):
        wl.check_generator(busy)


def test_growing_backlog_fails_the_run():
    workload = wl.WORKLOADS["mem_tcp_zipf_open"]
    stream = wl.Stream(warm=[], open=[], offsets=np.empty(0), closed=[])
    steady = _phase(400, backlog=np.full(400, 3.0))
    wl.check_generator(wl.Measurement(
        workload, stream, phases={"open": steady, "closed": _phase(10)}
    ))
    growing = _phase(400, backlog=np.arange(400, dtype=float))
    with pytest.raises(wl.InvalidRun, match="backlog"):
        wl.check_generator(wl.Measurement(
            workload, stream, phases={"open": growing, "closed": _phase(10)}
        ))


def test_open_loop_latency_counts_from_the_due_time():
    phase = _phase(
        2, due=np.array([0.0, 1.0]), sent=np.array([0.5, 1.0]),
        done=np.array([1.0, 1.25]),
    )
    assert phase.latencies_ms(from_due=True).tolist() == [1000.0, 250.0]
    assert phase.latencies_ms(from_due=False).tolist() == [500.0, 250.0]
    assert phase.late_ms == 250.0


# --------------------------------------------------------------------- #
# The contract file


def test_benchmark_json_matches_the_code():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/ledger"]
    assert contract["run_seconds"] == wl.NOMINAL_SECONDS
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == list(ledger_run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == list(layers.PER_LAYER)
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
