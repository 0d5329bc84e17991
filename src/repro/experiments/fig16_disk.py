"""Fig. 16: disk-based online query processing.

Sweeps the number of clusters and reports, per query: cluster faults,
time, and the memory need (largest cluster as a fraction of the graph).
Expected shape (Sect. 6.4.2): faults grow with cluster count, query time
stays roughly stable, memory need shrinks.

Both sweeps run the paper's deployment explicitly: the graph store's
pool holds one largest cluster (``k`` of them in the budget ablation)
and the PPV store's pool 0 bytes, so every hub record a query needs is
read (Sect. 6.3.1).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.index import PPVIndex
from repro.core.query import StopAfterIterations
from repro.experiments.report import Table
from repro.graph.digraph import DiGraph
from repro.storage.clustering import cluster_graph
from repro.storage.disk_engine import DiskFastPPV, DiskGraphStore
from repro.storage.ppv_store import DiskPPVStore, save_index
from repro.storage.residency import StoredBytes


@dataclass
class DiskSweepPoint:
    """Results at one cluster count."""

    num_clusters: int
    faults_per_query: float
    ms_per_query: float
    memory_need: float  # largest cluster / total graph size


def run_disk_sweep(
    graph: DiGraph,
    index: PPVIndex,
    cluster_counts: Sequence[int] = (10, 15, 25, 35, 50),
    queries: Sequence[int] | None = None,
    eta: int = 2,
    seed: int = 0,
    workdir: str | None = None,
) -> list[DiskSweepPoint]:
    """Sweep cluster counts over the same query set.

    ``workdir`` (a scratch directory) defaults to a fresh temp dir; the
    cluster files and the serialised index live there for the duration.
    """
    if queries is None:
        rng = np.random.default_rng(seed)
        queries = rng.choice(graph.num_nodes, size=30, replace=False).tolist()
    scratch = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp())
    index_path = scratch / "index.fppv"
    save_index(index, index_path)

    points = []
    for num_clusters in cluster_counts:
        assignment = cluster_graph(graph, num_clusters, seed=seed)
        faults, ms = _serve_paper(
            graph, assignment, scratch / f"clusters_{num_clusters}", 1,
            index_path, queries, eta, fault_budget=None,
        )
        points.append(
            DiskSweepPoint(
                num_clusters=num_clusters,
                faults_per_query=faults,
                ms_per_query=ms,
                memory_need=assignment.largest_fraction(graph),
            )
        )
    return points


def _serve_paper(
    graph, assignment, directory, clusters, index_path, queries, eta,
    fault_budget,
) -> tuple[float, float]:
    """Serve ``queries`` one by one on the paper's deployment — a graph
    pool of ``clusters`` largest clusters, a 0-byte PPV pool — and
    return physical faults and milliseconds per query.  The faults are
    the store's own counter, which (unlike a result's deterministic
    drain count) credits residency carried over between queries."""
    largest = DiskGraphStore(graph, assignment, directory).largest_cluster_bytes
    graph_store = DiskGraphStore.open(
        directory, pool=StoredBytes(clusters * largest)
    )
    with DiskPPVStore(index_path, pool=StoredBytes(0)) as ppv_store:
        engine = DiskFastPPV(graph_store, ppv_store, fault_budget=fault_budget)
        seconds = [
            engine.query(int(query), stop=StopAfterIterations(eta)).seconds
            for query in queries
        ]
    return graph_store.faults / len(queries), float(np.mean(seconds)) * 1000.0


@dataclass
class BudgetSweepPoint:
    """Results at one memory budget: a graph-store pool of
    ``clusters`` largest clusters."""

    clusters: int
    faults_per_query: float
    ms_per_query: float


def run_budget_sweep(
    graph: DiGraph,
    index: PPVIndex,
    num_clusters: int = 25,
    budgets: Sequence[int] = (1, 2, 4, 8),
    queries: Sequence[int] | None = None,
    eta: int = 2,
    seed: int = 0,
    workdir: str | None = None,
) -> list[BudgetSweepPoint]:
    """Ablation: memory budget vs cluster faults (fixed clustering).

    ``budgets`` count largest clusters: budget ``k`` is a graph-store
    pool of ``k * largest_cluster_bytes``.  The paper's deployment holds
    one; this sweep quantifies what additional memory buys.
    """
    if queries is None:
        rng = np.random.default_rng(seed)
        queries = rng.choice(graph.num_nodes, size=20, replace=False).tolist()
    scratch = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp())
    index_path = scratch / "index.fppv"
    save_index(index, index_path)
    assignment = cluster_graph(graph, num_clusters, seed=seed)

    # No fault-budget truncation here: the ablation measures the
    # *demand* for swaps, which truncation would mask.
    return [
        BudgetSweepPoint(budget, *_serve_paper(
            graph, assignment, scratch / f"clusters_b{budget}", budget,
            index_path, queries, eta, fault_budget=10**9,
        ))
        for budget in budgets
    ]


def budget_table(points: list[BudgetSweepPoint], dataset: str) -> Table:
    """The memory-budget ablation table."""
    table = Table(
        title=f"Ablation ({dataset}) — memory budget vs cluster faults",
        headers=["Budget (largest clusters)", "# Faults per query", "Time per query (ms)"],
    )
    for point in points:
        table.add_row(
            point.clusters, point.faults_per_query, point.ms_per_query
        )
    return table


def fig16_table(points: list[DiskSweepPoint], dataset: str) -> Table:
    """Disk-based online processing (Fig. 16)."""
    table = Table(
        title=f"Fig. 16 ({dataset}) — disk-based online query processing",
        headers=[
            "# Clusters",
            "# Faults per query",
            "Time per query (ms)",
            "Memory need (%)",
        ],
    )
    for point in points:
        table.add_row(
            point.num_clusters,
            point.faults_per_query,
            point.ms_per_query,
            point.memory_need * 100.0,
        )
    return table
