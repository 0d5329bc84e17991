"""Offline partitioning: split a built index across hub shards.

The unit of partitioning is the **PPR cluster**
(:mod:`repro.storage.clustering`), not the individual hub: a cluster's
nodes — and therefore its hubs — always land on the same shard, so a
shard owns whole regions of the graph and the cluster residency of the
prime-subgraph push stays shard-local.  Clusters are assigned to shards
greedily (largest cluster first onto the least-loaded shard), which is
deterministic and keeps shards balanced by node count.

One partition root looks like::

    root/
      shard_map.json          # the global partition manifest
      shard_00/
        shard.json            # this shard's coordinates (self-describing)
        index.fppv            # sub-index: the shard's hubs' prime PPVs
        graph/                # partial DiskGraphStore: the shard's clusters
      shard_01/
        ...

Each ``index.fppv`` is an ordinary
:class:`~repro.storage.ppv_store.DiskPPVStore` file whose directory
lists only the owned hubs (``num_nodes`` stays global), and each
``graph/`` is an ordinary :class:`~repro.storage.disk_engine.
DiskGraphStore` directory built with the ``clusters=`` subset (labels
and ``num_clusters`` stay global).  A shard process therefore reuses
the existing store readers unchanged; nothing about the on-disk formats
is shard-specific beyond which records are present.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core.index import PPVIndex
from repro.storage.clustering import ClusterAssignment, cluster_graph
from repro.storage.disk_engine import DiskGraphStore
from repro.storage.ppv_store import save_index

SHARD_MAP_NAME = "shard_map.json"
SHARD_META_NAME = "shard.json"


def shard_dir_name(shard: int) -> str:
    """Directory name of one shard under the partition root."""
    return f"shard_{shard:02d}"


def assign_clusters(
    sizes: "np.ndarray | list[int]", num_shards: int
) -> list[int]:
    """Greedy balanced cluster→shard assignment.

    Clusters are placed largest first onto the currently least-loaded
    shard (ties: lowest shard id), which is the classic LPT heuristic —
    deterministic, and within 4/3 of the optimal makespan.  Returns the
    shard id of every cluster.
    """
    sizes = [int(size) for size in sizes]
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if num_shards > len(sizes):
        raise ValueError(
            f"cannot split {len(sizes)} clusters across {num_shards} "
            "shards; lower --shards or raise the cluster count"
        )
    order = sorted(range(len(sizes)), key=lambda c: (-sizes[c], c))
    loads = [0] * num_shards
    shards = [0] * len(sizes)
    for cluster in order:
        shard = min(range(num_shards), key=lambda s: (loads[s], s))
        shards[cluster] = shard
        loads[shard] += sizes[cluster]
    return shards


def partition_index(
    graph,
    index: PPVIndex,
    num_shards: int,
    root: "str | os.PathLike[str]",
    *,
    assignment: ClusterAssignment | None = None,
    num_clusters: int | None = None,
    seed: int = 0,
) -> dict:
    """Split ``index`` (and the graph) into ``num_shards`` shard dirs.

    Parameters
    ----------
    graph:
        The graph the index was built on.
    index:
        The built :class:`~repro.core.index.PPVIndex`.
    num_shards:
        How many shards to produce (each becomes one serving process
        group).
    root:
        Partition root directory (created if needed).
    assignment:
        A :class:`~repro.storage.clustering.ClusterAssignment` to reuse
        — pass the one an existing disk deployment was built with so
        the sharded and unsharded stores segment identically.  When
        omitted, one is computed with ``cluster_graph(graph,
        num_clusters, seed=seed)``.
    num_clusters:
        Cluster count when computing a fresh assignment (default
        ``max(8, 2 * num_shards)``).

    Returns the manifest dict (also written to ``shard_map.json``).
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if assignment is None:
        if num_clusters is None:
            num_clusters = max(8, 2 * num_shards)
        assignment = cluster_graph(graph, num_clusters, seed=seed)
    cluster_shards = assign_clusters(assignment.sizes(), num_shards)

    labels = assignment.labels
    hubs = index.hubs.tolist()
    hub_shards = {
        hub: cluster_shards[int(labels[hub])] for hub in hubs
    }

    shards_meta = []
    for shard in range(num_shards):
        shard_dir = root / shard_dir_name(shard)
        shard_dir.mkdir(parents=True, exist_ok=True)
        owned_clusters = [
            cluster
            for cluster, owner in enumerate(cluster_shards)
            if owner == shard
        ]
        owned_hubs = [hub for hub in hubs if hub_shards[hub] == shard]

        # Sub-index: owned entries only, hub mask full-length so
        # num_nodes stays global in the .fppv header.  Not kept: its
        # block is a copy of part of the index's.
        sub_mask = np.zeros(index.hub_mask.size, dtype=bool)
        sub_mask[owned_hubs] = True
        index_bytes = save_index(
            PPVIndex(
                alpha=index.alpha,
                epsilon=index.epsilon,
                clip=index.clip,
                hub_mask=sub_mask,
                entries={hub: index.get(hub) for hub in owned_hubs},
            ),
            shard_dir / "index.fppv",
        )

        store = DiskGraphStore(
            graph, assignment, shard_dir / "graph", clusters=owned_clusters
        )
        graph_bytes = store.total_bytes

        meta = {
            "shard": shard,
            "num_shards": num_shards,
            "num_nodes": int(graph.num_nodes),
            "num_clusters": int(assignment.num_clusters),
            "alpha": index.alpha,
            "epsilon": index.epsilon,
            "clip": index.clip,
            "cluster_shards": cluster_shards,
            "clusters": owned_clusters,
            "hubs": owned_hubs,
            "index_bytes": index_bytes,
            "graph_bytes": graph_bytes,
        }
        (shard_dir / SHARD_META_NAME).write_text(json.dumps(meta))
        shards_meta.append(
            {
                "shard": shard,
                "dir": shard_dir_name(shard),
                "clusters": owned_clusters,
                "hubs": owned_hubs,
                "nodes": int(sum(assignment.sizes()[owned_clusters])),
                "index_bytes": index_bytes,
                "graph_bytes": graph_bytes,
            }
        )

    manifest = {
        "version": 1,
        "num_shards": num_shards,
        "num_nodes": int(graph.num_nodes),
        "num_clusters": int(assignment.num_clusters),
        "num_hubs": len(hubs),
        "alpha": index.alpha,
        "epsilon": index.epsilon,
        "clip": index.clip,
        "cluster_shards": cluster_shards,
        "shards": shards_meta,
    }
    (root / SHARD_MAP_NAME).write_text(json.dumps(manifest))
    return manifest


def load_shard_map(root: "str | os.PathLike[str]") -> dict:
    """Read and sanity-check a partition root's ``shard_map.json``.

    Raises
    ------
    FileNotFoundError
        No manifest at ``root``.
    ValueError
        A manifest that names shard directories which do not exist.
    """
    root = Path(root)
    path = root / SHARD_MAP_NAME
    if not path.exists():
        raise FileNotFoundError(f"no {SHARD_MAP_NAME} under {root}")
    manifest = json.loads(path.read_text())
    for entry in manifest["shards"]:
        shard_dir = root / entry["dir"]
        if not (shard_dir / "index.fppv").exists():
            raise ValueError(f"shard directory {shard_dir} is incomplete")
    return manifest
