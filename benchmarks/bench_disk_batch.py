"""Disk-engine batching: cluster faults and hub reads per query vs batch.

A per-query loop over the disk engine pays its I/O per query: every
cluster a prime subgraph overlaps is faulted in, and every spliced hub
costs one index read.  ``DiskFastPPV.query_many`` amortises both — a
scheduling wave drains one cluster for every query that needs it, and
each hub payload is read once per batch — so physical I/O per query
falls as the batch grows while the returned scores stay bitwise
identical to serving each query alone.  The I/O table is also written
to ``benchmarks/results/BENCH_disk_batch.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.common import BENCH_SCALE, emit, emit_json
from repro import StopAfterIterations, build_index, select_hubs, social_graph
from repro.experiments.report import Table
from repro.storage import (
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    cluster_graph,
    save_index,
)

BATCH_SIZES = (1, 4, 16)
NUM_CLUSTERS = 10


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("disk_batch_bench")
    num_nodes = max(800, int(2500 * BENCH_SCALE))
    num_hubs = max(120, int(400 * BENCH_SCALE))
    graph = social_graph(num_nodes=num_nodes, seed=4)
    hubs = select_hubs(graph, num_hubs=num_hubs)
    index = build_index(graph, hubs, epsilon=1e-6)
    index_path = root / "index.fppv"
    save_index(index, index_path)
    assignment = cluster_graph(graph, NUM_CLUSTERS, seed=1)
    rng = np.random.default_rng(0)
    queries = [
        int(q)
        for q in rng.choice(graph.num_nodes, size=max(BATCH_SIZES),
                            replace=False)
    ]
    return root, graph, assignment, index_path, queries


def test_disk_batch_io(setup):
    root, graph, assignment, index_path, queries = setup
    stop = StopAfterIterations(2)

    # Per-query-loop baseline: sequential serving against one (warm) store.
    scalar_store = DiskGraphStore(graph, assignment, root / "scalar")
    with DiskPPVStore(index_path) as ppv_store:
        engine = DiskFastPPV(scalar_store, ppv_store, delta=0.0)
        for query in queries:
            engine.query(query, stop=stop)
        scalar_faults = scalar_store.faults / len(queries)
        scalar_reads = ppv_store.reads / len(queries)

    table = Table(
        title=f"Disk I/O per query ({graph.num_nodes} nodes, "
        f"{NUM_CLUSTERS} clusters, eta=2)",
        headers=["batch", "faults/query", "hub reads/query", "ms/query"],
    )
    table.add_row("scalar", f"{scalar_faults:.1f}", f"{scalar_reads:.1f}", "-")

    faults_at_max = float("inf")
    io_rows = []
    for size in BATCH_SIZES:
        workload = queries[:size]
        store = DiskGraphStore(graph, assignment, root / f"batch{size}")
        with DiskPPVStore(index_path) as ppv_store:
            batch = DiskFastPPV(store, ppv_store, delta=0.0)
            results = batch.query_many(workload, stop=stop)
            faults = store.faults / size
            reads = ppv_store.reads / size
        seconds = max(r.seconds for r in results)
        if size == max(BATCH_SIZES):
            faults_at_max = faults
        io_rows.append(
            {
                "batch": size,
                "faults_per_query": faults,
                "hub_reads_per_query": reads,
                "ms_per_query": seconds / size * 1000,
            }
        )
        table.add_row(
            size, f"{faults:.1f}", f"{reads:.1f}",
            f"{seconds / size * 1000:.1f}",
        )
    emit("disk_batch_io", table)
    emit_json(
        "disk_batch",
        {
            "io": {
                "num_nodes": graph.num_nodes,
                "num_clusters": NUM_CLUSTERS,
                "scalar_faults_per_query": scalar_faults,
                "scalar_hub_reads_per_query": scalar_reads,
                "batched": io_rows,
            }
        },
    )

    # Acceptance: at batch 16 the whole batch must fault strictly less
    # than 16 independent cold queries would.
    single_store = DiskGraphStore(graph, assignment, root / "single")
    with DiskPPVStore(index_path) as ppv_store:
        single = DiskFastPPV(single_store, ppv_store, delta=0.0)
        single.query(queries[0], stop=stop)
    single_faults = single_store.faults
    assert faults_at_max * max(BATCH_SIZES) < max(BATCH_SIZES) * single_faults
    assert faults_at_max < scalar_faults
