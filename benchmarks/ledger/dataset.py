"""The ledger's one dataset and the in-process references built on it.

Every workload serves the same graph, index, cluster store and 2-shard
partition, written under one work directory by :func:`build`.  The
parameters live in :data:`DATASET` and are stamped into every record so a
number is never read at the wrong size.

Sizing (see README.md, "Why this size"): ISSUE 11 sized a 20000-node /
1000-hub / 12-cluster dataset and told the builder to shrink it for all
workloads before letting a run drop below 1000 timed TCP samples or 200
disk bursts inside the driver's time cap.  At 20000 nodes the disk
backend serves 22 bursts-of-8 queries/s on the 2-core host (200 bursts =
73 s); the figures below bring 200 bursts to ~15 s while keeping the hub
share at the 10 % the repo's other serving benches use and the cluster
count above the router's residency budget (8), so the sharded workload
still fetches clusters after warm-up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATASET = {
    "name": "social4k",
    "num_nodes": 4000,
    "graph_seed": 11,
    "num_hubs": 400,
    "epsilon": 1e-6,
    "num_clusters": 10,
    "cluster_seed": 1,
    "num_shards": 2,
    "popularity_seed": 11,
}

SERVING = {"delta": 1e-4, "eta": 2, "top": 10, "top_k": 10}
"""Serving parameters used everywhere (CLI flags and in-process calls)."""

L1_SAMPLE = 32
"""Fixed ``ppv`` queries per workload whose served scores are compared
with ``exact_ppv`` (the accuracy half of the record)."""


@dataclass
class Dataset:
    """What :func:`build` leaves behind: live objects, paths, stage times."""

    graph: object
    index: object
    assignment: object
    graph_path: Path
    index_path: Path
    cluster_dir: Path
    shard_root: Path
    index_bytes: int
    stage_seconds: dict


def build(workdir: Path) -> Dataset:
    """Generate the graph, build and save the index, write the cluster
    store and the shard partition under ``workdir``; time each stage."""
    from repro import build_index, select_hubs, social_graph
    from repro.graph.io import write_edge_list
    from repro.sharding import partition_index
    from repro.storage import DiskGraphStore, cluster_graph, save_index

    workdir.mkdir(parents=True, exist_ok=True)
    graph_path = workdir / "graph.txt"
    index_path = workdir / "index.fppv"
    cluster_dir = workdir / "clusters"
    shard_root = workdir / "shards"
    marks = [time.perf_counter()]

    graph = social_graph(
        num_nodes=DATASET["num_nodes"], seed=DATASET["graph_seed"]
    )
    write_edge_list(graph, graph_path)
    marks.append(time.perf_counter())

    hubs = select_hubs(graph, num_hubs=DATASET["num_hubs"])
    index = build_index(graph, hubs, epsilon=DATASET["epsilon"])
    marks.append(time.perf_counter())

    index_bytes = save_index(index, index_path)
    assignment = cluster_graph(
        graph, DATASET["num_clusters"], seed=DATASET["cluster_seed"]
    )
    DiskGraphStore(graph, assignment, cluster_dir)
    marks.append(time.perf_counter())

    partition_index(
        graph, index, DATASET["num_shards"], shard_root, assignment=assignment
    )
    marks.append(time.perf_counter())

    stages = ("graph_s", "index_build_s", "store_write_s", "partition_s")
    return Dataset(
        graph=graph,
        index=index,
        assignment=assignment,
        graph_path=graph_path,
        index_path=index_path,
        cluster_dir=cluster_dir,
        shard_root=shard_root,
        index_bytes=index_bytes,
        stage_seconds={
            stage: marks[i + 1] - marks[i] for i, stage in enumerate(stages)
        },
    )


def popularity_order() -> np.ndarray:
    """Rank → node: the fixed popularity permutation the Zipf stream
    draws from.  Part of the dataset (not of ``--seed``), so every seed
    sees the same hot set and only the draws differ."""
    rng = np.random.default_rng(DATASET["popularity_seed"])
    return rng.permutation(DATASET["num_nodes"])


def l1_nodes() -> list[int]:
    """The fixed accuracy sample: every ``num_nodes / 32``-th node."""
    step = DATASET["num_nodes"] // L1_SAMPLE
    return [step * k + 5 for k in range(L1_SAMPLE)]


def open_reference(dataset: Dataset, backend: str):
    """A cache-less in-process ``PPVService`` on ``backend`` — the
    reference every served reply is compared with."""
    from repro.serving import PPVService
    from repro.storage import DiskGraphStore

    if backend == "memory":
        return PPVService.open(
            dataset.index, graph=dataset.graph, delta=SERVING["delta"],
            cache_size=0,
        )
    return PPVService.open(
        str(dataset.index_path), backend="disk",
        graph_store=DiskGraphStore.open(dataset.cluster_dir),
        delta=SERVING["delta"], cache_size=0,
    )


def l1_error(dataset: Dataset, reference) -> float:
    """Mean L1 distance between served and exact scores over the fixed
    sample (served in one ``query_many`` burst, so it repeats exactly)."""
    from repro import StopAfterIterations
    from repro.core.exact import exact_ppv_matrix
    from repro.serving import QuerySpec

    nodes = l1_nodes()
    stop = StopAfterIterations(SERVING["eta"])
    served = reference.query_many([QuerySpec(n, stop=stop) for n in nodes])
    exact = exact_ppv_matrix(dataset.graph, nodes, alpha=dataset.index.alpha)
    return float(
        np.mean([
            np.abs(result.scores - exact[row]).sum()
            for row, result in enumerate(served)
        ])
    )
