"""Cross-process network serving: the TCP front-end over PPVService.

Everything in the other examples happens inside one Python process.
This one puts the service on the network (:mod:`repro.server`): an
asyncio TCP server speaking the versioned JSONL protocol, and plain
blocking clients talking to it from worker threads — the in-process
stand-in for independent client *processes* (the protocol makes no
difference between the two; `repro serve --tcp HOST:PORT` serves the
same wire format from the CLI, from one process whose compiled push
already uses every CPU).

Shown here:

1. concurrent clients whose queries coalesce into shared engine
   batches server-side,
2. pipelined bulk queries over one connection (``query_many``),
3. streaming frames over the wire,
4. a hot index swap under live traffic (zero dropped queries),
5. the ``stats`` verb: service counters + server counters.

Run with:  python examples/network_serving.py
"""

import threading

import numpy as np

from repro import PPVService, QuerySpec, build_index, select_hubs, social_graph
from repro.server import PPVClient, PPVServer
from repro.storage import save_index


def main() -> None:
    graph = social_graph(num_nodes=2000, seed=9)
    hubs = select_hubs(graph, num_hubs=200)
    index = build_index(graph, hubs, clip=0.0, epsilon=1e-6)

    rng = np.random.default_rng(3)
    nodes = [int(n) for n in rng.choice(graph.num_nodes, 24, replace=False)]

    with PPVService.open(index, graph=graph, delta=0.0) as service:
        server = PPVServer(service)
        with server.background() as (host, port):
            print(f"serving on {host}:{port}")

            # 1. Four concurrent clients; their queries coalesce into
            #    shared engine batches through the service's scheduler.
            def client_main(name: str, share) -> None:
                with PPVClient(host, port) as client:
                    for node in share:
                        result = client.query(node, eta=2, top=3)
                        top_node, score = result["top"][0]
                        print(f"  [{name}] node {node:4d} -> top {top_node} "
                              f"(score {score:.4f})")

            threads = [
                threading.Thread(
                    target=client_main, args=(f"client-{k}", nodes[k::4])
                )
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            with PPVClient(host, port) as client:
                # 2. Pipelined bulk queries over one connection.
                results = client.query_many(nodes, window=8, eta=2, top=1)
                print(f"pipelined {len(results)} queries over one connection")

                # 3. Streaming: frames until the top-5 certifies.
                for frame in client.stream(nodes[0], top_k=5):
                    state = "certified" if frame.get("certified") else "..."
                    print(f"  stream iter {frame['iteration']}: "
                          f"L1={frame['l1_error']:.4f} {state}")
                    if frame.get("certified"):
                        break

                # 4. Hot swap to a denser index under the same server.
                richer = build_index(
                    graph, select_hubs(graph, num_hubs=300),
                    clip=0.0, epsilon=1e-6,
                )
                import tempfile
                from pathlib import Path

                with tempfile.TemporaryDirectory() as tmp:
                    path = Path(tmp) / "richer.fppv"
                    save_index(richer, path)
                    client.swap_index(str(path))
                print("swapped to a 300-hub index without dropping a query")

                # 5. Counters.
                stats = client.stats()
                print(f"server answered {stats['server']['responses_total']} "
                      f"requests on {stats['server']['connections_total']} "
                      f"connections; service ran "
                      f"{stats['service']['batches']} engine batches "
                      f"(largest {stats['service']['largest_batch']})")


if __name__ == "__main__":
    main()
