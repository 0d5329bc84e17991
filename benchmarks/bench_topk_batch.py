"""Certified top-k serving throughput: batched vs scalar certificates.

The certified top-k rule iterates per query until the phi-gap certificate
fires, so different queries need different iteration counts — the batch
engine retires each query the moment its certificate holds while the rest
keep iterating.  This bench records queries/sec for the scalar
``query_top_k`` loop against ``BatchFastPPV.query_top_k_many`` at
increasing batch sizes, plus how early certificates fire (mean iterations
and the L1 error still outstanding at stop — the point of bound-based
top-k: ranking needs far less work than scoring).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.common import BENCH_SCALE, emit
from repro import (
    BatchFastPPV,
    FastPPV,
    build_index,
    query_top_k,
    select_hubs,
    social_graph,
)
from repro.experiments.report import Table

K = 10
MAX_ITERATIONS = 40
BATCH_SIZES = (1, 8, 16, 64)


@pytest.fixture(scope="module")
def setup():
    num_nodes = max(1200, int(8000 * BENCH_SCALE))
    num_hubs = max(120, int(800 * BENCH_SCALE))
    graph = social_graph(num_nodes=num_nodes, seed=11)
    hubs = select_hubs(graph, num_hubs=num_hubs)
    # clip=0 + delta=0: sound certificates (see repro.core.topk).
    index = build_index(graph, hubs, clip=0.0)
    rng = np.random.default_rng(0)
    queries = rng.choice(graph.num_nodes, size=max(BATCH_SIZES), replace=False)
    return graph, index, queries


def _best_rate(run, size: int, repetitions: int = 3) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return size / best


def test_topk_batch_throughput(benchmark, setup):
    graph, index, queries = setup
    scalar = FastPPV(graph, index, delta=0.0)
    batch = BatchFastPPV(graph, index, delta=0.0)
    batch.splice  # build the matrix lowering outside the timed region

    table = Table(
        title=f"Certified top-{K} throughput ({graph.num_nodes} nodes, "
        f"{index.num_hubs} hubs, delta=0)",
        headers=["batch", "scalar q/s", "batch q/s", "speedup",
                 "mean iters", "certified"],
    )
    speedup_at_max = 0.0
    for size in BATCH_SIZES:
        workload = [int(q) for q in queries[:size]]
        scalar_rate = _best_rate(
            lambda: [
                query_top_k(scalar, q, k=K, max_iterations=MAX_ITERATIONS)
                for q in workload
            ],
            size,
        )
        batch_rate = _best_rate(
            lambda: batch.query_top_k_many(
                workload, k=K, max_iterations=MAX_ITERATIONS
            ),
            size,
        )
        results = batch.query_top_k_many(
            workload, k=K, max_iterations=MAX_ITERATIONS
        )
        mean_iters = float(np.mean([r.iterations for r in results]))
        certified = sum(r.certified for r in results)
        speedup = batch_rate / scalar_rate
        if size == max(BATCH_SIZES):
            speedup_at_max = speedup
        table.add_row(
            size, f"{scalar_rate:.0f}", f"{batch_rate:.0f}",
            f"{speedup:.2f}x", f"{mean_iters:.1f}", f"{certified}/{size}",
        )
    emit("topk_batch", table)

    # Equivalence at the largest batch: same certificates, same work.
    workload = [int(q) for q in queries]
    batch_results = batch.query_top_k_many(
        workload, k=K, max_iterations=MAX_ITERATIONS
    )
    for query, result in zip(workload, batch_results):
        reference = query_top_k(scalar, query, k=K,
                                max_iterations=MAX_ITERATIONS)
        assert result.certified == reference.certified
        assert result.iterations == reference.iterations
        if reference.certified:
            assert set(result.nodes.tolist()) == set(reference.nodes.tolist())
        np.testing.assert_allclose(result.scores, reference.scores, atol=1e-12)

    # Headline acceptance at full scale; reduced-scale smoke runs (CI)
    # only require the batch path to not be slower.
    floor = 2.0 if BENCH_SCALE >= 0.4 else 0.9
    assert speedup_at_max >= floor, (
        f"batched top-k speedup {speedup_at_max:.2f}x below {floor}x at "
        f"batch {max(BATCH_SIZES)}"
    )

    benchmark(
        lambda: batch.query_top_k_many(workload, k=K,
                                       max_iterations=MAX_ITERATIONS)
    )
