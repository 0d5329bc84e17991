"""Hub-sharded scale-out serving: the router over a partitioned index.

One FastPPV index is split across shard processes (whole PPR clusters
— hence their hubs — per shard, LPT-balanced) and served through a
:class:`~repro.sharding.ShardRouter`: shard processes that only answer
``fetch_hubs`` / ``fetch_cluster``, and a router front-end where the
real disk kernels run, speaking the ordinary JSONL wire protocol.
Results are **bitwise equal** to an unsharded disk deployment of the
same index — certified top-k included — because the identical kernels
see bit-identical data in the identical order.

Shown here:

1. the offline partitioner (``partition_index`` == ``repro
   shard-index``) and its ``shard_map.json`` manifest,
2. a 2-shard router serving plain, multi-source and certified top-k
   queries, checked bitwise against the unsharded deployment,
3. aggregated fleet stats: per-shard fetch counters, merged latency
   histogram, fetch balance,
4. a rolling hot swap across the whole fleet under the same router.

The CLI equivalent:

    repro shard-index graph.txt index.fppv part/ --shards 2
    repro serve graph.txt index.fppv --tcp 127.0.0.1:0 --shard-map part/

Run with:  python examples/sharded_serving.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    PPVService,
    QuerySpec,
    StopAfterIterations,
    build_index,
    select_hubs,
    social_graph,
)
from repro.server import PPVClient, protocol
from repro.sharding import ShardRouter, load_shard_map, partition_index
from repro.storage import DiskGraphStore, cluster_graph, save_index


def main() -> None:
    graph = social_graph(num_nodes=1200, seed=9)
    hubs = select_hubs(graph, num_hubs=120)
    index = build_index(graph, hubs, clip=0.0, epsilon=1e-6)
    assignment = cluster_graph(graph, 8, seed=1)

    rng = np.random.default_rng(3)
    nodes = [int(n) for n in rng.choice(graph.num_nodes, 12, replace=False)]

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        # 1. Partition offline: per-shard DiskPPVStore/DiskGraphStore
        #    directories plus a shard_map.json manifest.
        part = root / "part2"
        partition_index(graph, index, 2, part, assignment=assignment)
        manifest = load_shard_map(part)
        for entry in manifest["shards"]:
            print(f"shard {entry['shard']}: {len(entry['hubs'])} hubs, "
                  f"{entry['nodes']} nodes in clusters {entry['clusters']}")

        # The unsharded reference deployment: same index, same cluster
        # assignment, so the kernels see identical segmentation.
        index_path = root / "index.fppv"
        save_index(index, index_path)
        store_dir = root / "clusters"
        DiskGraphStore(graph, assignment, store_dir)

        specs = [QuerySpec(n, stop=StopAfterIterations(2)) for n in nodes[:4]]
        specs.append(QuerySpec((nodes[4], nodes[5]), weights=(2.0, 1.0)))
        specs.append(QuerySpec(nodes[6], top_k=5))
        with PPVService.open(
            str(index_path), backend="disk",
            graph_store=DiskGraphStore.open(store_dir),
            delta=0.0, cache_size=0,
        ) as reference:
            expected = [
                protocol.render_result(spec, result, top=10)
                for spec, result in zip(
                    specs, reference.query_many(specs)
                )
            ]

        # 2. Serve the partition: shard processes + router front-end.
        with ShardRouter(part, delta=0.0, cache_size=0) as (host, port):
            print(f"router serving on {host}:{port} over "
                  f"{manifest['num_shards']} shards")
            with PPVClient(host, port) as client:
                got = [
                    client.query(nodes[k], eta=2, top=10) for k in range(4)
                ]
                got.append(
                    client.query(
                        [nodes[4], nodes[5]], weights=[2.0, 1.0],
                        eta=2, top=10,
                    )
                )
                topk_spec = specs[-1]
                got.append(
                    client.query(
                        nodes[6], top_k=5, budget=topk_spec.top_k_budget,
                        top=10,
                    )
                )
                assert got == expected  # dict equality == bitwise scores
                print("6 queries (plain, weighted multi-source, certified "
                      "top-k) bitwise equal to the unsharded deployment")

                # 3. Aggregated fleet stats through the stats verb.
                shards = client.stats()["shards"]
                for entry in shards["per_shard"]:
                    print(f"  shard {entry['shard']}: "
                          f"{entry['hub_fetches']} hub fetches, "
                          f"{entry['cluster_fetches']} cluster fetches, "
                          f"{entry['requests_total']} wire requests")
                print(f"  fetch balance {shards['fetch_balance']:.2f} "
                      f"(1.0 = perfect)")

                # 4. Rolling hot swap: a second partition of a richer
                #    index, rolled shard by shard under the gate.
                richer = build_index(
                    graph, select_hubs(graph, num_hubs=180),
                    clip=0.0, epsilon=1e-6,
                )
                part_b = root / "part2b"
                partition_index(
                    graph, richer, 2, part_b, assignment=assignment
                )
                client.swap_index(str(part_b))
                result = client.query(nodes[0], eta=2, top=3)
                print(f"swapped the whole fleet to a 180-hub partition; "
                      f"node {nodes[0]} now tops at "
                      f"{result['top'][0][0]}")


if __name__ == "__main__":
    main()
