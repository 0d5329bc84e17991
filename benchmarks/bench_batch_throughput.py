"""Batch serving throughput: queries/sec vs batch size, batch vs scalar.

The batched engine replaces the per-hub splice loop with two sparse
matrix products and runs iteration 0 as one multi-source push, so its
advantage grows with batch size.  This bench records queries/sec for the
scalar loop (``FastPPV.query`` per query) against ``BatchFastPPV`` at
increasing batch sizes, plus the parallel offline build, and asserts the
headline acceptance: >= 3x throughput at batch size 64 at full scale.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.common import BENCH_SCALE, emit
from repro import (
    BatchFastPPV,
    FastPPV,
    StopAfterIterations,
    build_index,
    select_hubs,
    social_graph,
)
from repro.experiments.report import Table

DELTA = 1e-4
ONLINE_EPSILON = 1e-5
BATCH_SIZES = (1, 8, 16, 64)


@pytest.fixture(scope="module")
def setup():
    num_nodes = max(1200, int(10000 * BENCH_SCALE))
    num_hubs = max(120, int(1000 * BENCH_SCALE))
    graph = social_graph(num_nodes=num_nodes, seed=11)
    hubs = select_hubs(graph, num_hubs=num_hubs)
    serial_index = build_index(graph, hubs)
    parallel_index = build_index(graph, hubs, workers=4)
    rng = np.random.default_rng(0)
    queries = rng.choice(graph.num_nodes, size=max(BATCH_SIZES), replace=False)
    return graph, serial_index, parallel_index, queries


def _best_rate(run, size: int, repetitions: int = 3) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return size / best


def test_batch_throughput(benchmark, setup):
    graph, index, parallel_index, queries = setup
    stop = StopAfterIterations(2)
    scalar = FastPPV(graph, index, delta=DELTA, online_epsilon=ONLINE_EPSILON)
    batch = BatchFastPPV(
        graph, index, delta=DELTA, online_epsilon=ONLINE_EPSILON
    )
    batch.splice  # build the matrix lowering outside the timed region

    table = Table(
        title=f"Batch throughput ({graph.num_nodes} nodes, "
        f"{index.num_hubs} hubs, eta=2, delta={DELTA})",
        headers=["batch", "scalar q/s", "batch q/s", "speedup"],
    )
    speedup_at_max = 0.0
    for size in BATCH_SIZES:
        workload = [int(q) for q in queries[:size]]
        scalar_rate = _best_rate(
            lambda: [scalar.query(q, stop=stop) for q in workload], size
        )
        batch_rate = _best_rate(
            lambda: batch.query_many(workload, stop=stop), size
        )
        speedup = batch_rate / scalar_rate
        if size == max(BATCH_SIZES):
            speedup_at_max = speedup
        table.add_row(size, f"{scalar_rate:.0f}", f"{batch_rate:.0f}",
                      f"{speedup:.2f}x")

    build_table = Table(
        title="Offline build (same hub set)",
        headers=["workers", "seconds"],
    )
    build_table.add_row(1, f"{index.stats.build_seconds:.2f}")
    build_table.add_row(4, f"{parallel_index.stats.build_seconds:.2f}")
    emit("batch_throughput", table, build_table)

    # Equivalence at the largest batch: the speed must come for free.
    workload = [int(q) for q in queries]
    batch_results = batch.query_many(workload, stop=stop)
    for query, result in zip(workload, batch_results):
        reference = scalar.query(query, stop=stop)
        np.testing.assert_allclose(result.scores, reference.scores, atol=1e-12)
        assert result.iterations == reference.iterations
        assert result.hubs_expanded == reference.hubs_expanded

    # Headline acceptance at full scale; reduced-scale smoke runs (CI)
    # only require the batch path to not be slower.
    floor = 3.0 if BENCH_SCALE >= 0.4 else 1.0
    assert speedup_at_max >= floor, (
        f"batch speedup {speedup_at_max:.2f}x below {floor}x at batch "
        f"{max(BATCH_SIZES)}"
    )

    benchmark(lambda: batch.query_many(workload, stop=stop))
