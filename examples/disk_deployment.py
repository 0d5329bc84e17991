"""Disk-resident deployment: bounded memory, counted I/O (Sect. 5.3).

The graph is segmented into PPR clusters persisted as files, and the
PPV index lives in a binary file fetched one hub per read.  One pool of
stored bytes (an LRU bounded in bytes) holds what the two stores have
read; here it is given to the graph store alone, so it holds clusters.
Every query reports its cluster drains and index reads, and the stores
count the physical faults and reads — the currency of Fig. 16.

Run with:  python examples/disk_deployment.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import StopAfterIterations, build_index, select_hubs, social_graph
from repro.storage import (
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    StoredBytes,
    cluster_graph,
    save_index,
)


def run(workdir: Path) -> None:
    graph = social_graph(num_nodes=2500, seed=4)
    # A dense hub set keeps prime subgraphs small, so a query's working
    # set spans only a few clusters — the regime Sect. 5.3 targets.
    hubs = select_hubs(graph, 400)
    index = build_index(graph, hubs, epsilon=1e-6)

    index_path = workdir / "index.fppv"
    bytes_written = save_index(index, index_path)
    print(f"index on disk: {bytes_written / 1e6:.2f} MB at {index_path}")

    assignment = cluster_graph(graph, num_clusters=12, seed=1)
    store = DiskGraphStore(graph, assignment, workdir / "clusters")
    print(
        f"graph in {assignment.num_clusters} clusters; largest = "
        f"{store.largest_cluster_bytes / 1e3:.1f} kB "
        f"({assignment.largest_fraction(graph) * 100:.1f}% of the graph)"
    )

    # A realistic workload has locality: consecutive queries hit the same
    # region (e.g. a user browsing one community).  Larger pools pay off
    # exactly there — the region stays resident across queries.
    rng = np.random.default_rng(0)
    base = int(rng.integers(graph.num_nodes))
    queries = [(base + offset) % graph.num_nodes for offset in range(8)]

    print("\nworkload: 8 queries in one neighbourhood, asked twice")
    for budget in (store.largest_cluster_bytes, 6 * store.largest_cluster_bytes):
        budget_store = DiskGraphStore.open(
            workdir / "clusters", pool=StoredBytes(budget)
        )
        with DiskPPVStore(index_path, pool=StoredBytes(0)) as ppv_store:
            engine = DiskFastPPV(budget_store, ppv_store)
            per_pass = []
            for _ in range(2):
                # Physical faults: the store's counter sees the pool hits
                # (a result's cluster_faults is the budget-independent
                # drain count).
                faults_before = budget_store.faults
                for query in queries:
                    engine.query(int(query), stop=StopAfterIterations(2))
                per_pass.append(
                    (budget_store.faults - faults_before) / len(queries)
                )
        print(
            f"memory budget {budget / 1e3:.1f} kB: "
            f"{per_pass[0]:.1f} faults/query cold, "
            f"{per_pass[1]:.1f} warm"
        )


def main() -> None:
    # The deployment's files live for the run and are removed after it.
    with tempfile.TemporaryDirectory(prefix="fastppv_disk_") as workdir:
        run(Path(workdir))


if __name__ == "__main__":
    main()
