"""Certified top-k serving through the façade, in memory and from disk.

Two serving modes built on the same certificate (Eq. 6's missing-mass
bound), both behind one :class:`~repro.serving.PPVService` API: the
memory backend checks every in-flight query's top-k certificate
vectorised each round and retires queries the moment their top set is
provably exact; the disk backend serves the same workload with cluster
faults and index reads amortised across each coalesced batch — so two
*concurrent* clients share cluster residency instead of thrashing it.

Run with:  python examples/topk_batch_serving.py
"""

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import (
    PPVService,
    QuerySpec,
    build_index,
    select_hubs,
    social_graph,
)
from repro.storage import DiskGraphStore, DiskPPVStore, cluster_graph, save_index


def run(workdir: Path) -> None:
    graph = social_graph(num_nodes=1500, seed=12)
    hubs = select_hubs(graph, num_hubs=150)
    # clip=0 + delta=0: sound certificates (see repro.core.topk).
    index = build_index(graph, hubs, clip=0.0, epsilon=1e-6)

    rng = np.random.default_rng(3)
    queries = [int(q) for q in rng.choice(graph.num_nodes, 12, replace=False)]
    specs = [QuerySpec(q, top_k=5, top_k_budget=40) for q in queries]

    # ---- memory backend: vectorised certificates, per-query retirement --
    with PPVService.open(index, graph=graph, delta=0.0) as service:
        results = service.query_many(specs)
    print("memory backend, certified top-5 per query:")
    print(f"{'query':>7} {'iters':>6} {'L1 err at stop':>15} {'certified':>10}")
    for query, result in zip(queries, results):
        print(
            f"{query:>7} {result.iterations:>6} {result.l1_error:>15.4f} "
            f"{str(result.certified):>10}"
        )
    iters = [r.iterations for r in results]
    print(
        f"\nqueries retire individually: iteration counts span "
        f"{min(iters)}..{max(iters)} — nobody waits for the slowest "
        "certificate.\n"
    )

    # ---- the same workload from a disk-resident deployment ----
    save_index(index, workdir / "index.fppv")
    assignment = cluster_graph(graph, num_clusters=10, seed=1)

    print("disk backend, same top-5 workload:")

    def serve(label, run):
        store = DiskGraphStore(graph, assignment, workdir / label)
        with DiskPPVStore(workdir / "index.fppv") as ppv_store:
            run_results = run(store, ppv_store)
            print(
                f"{label:>10}: {store.faults:>4} cluster faults, "
                f"{ppv_store.reads:>5} hub reads for {len(queries)} queries"
            )
        return run_results

    def sequential_run(store, ppv_store):
        # Two clients served one after the other, each query alone:
        # per-query I/O with nothing to amortise.
        with PPVService.open(
            ppv_store, graph_store=store, delta=0.0, fault_budget=10**9
        ) as service:
            return [service.query(spec) for spec in specs]

    def concurrent_run(store, ppv_store):
        # Two concurrent clients submitting to one service: the
        # scheduler coalesces both bursts into shared cluster-grouped
        # batches, so each wave faults a cluster in once for everybody.
        with PPVService.open(
            ppv_store, graph_store=store, delta=0.0, fault_budget=10**9
        ) as service:
            outcome: dict[int, list] = {}

            def client(which, chunk):
                handles = [service.submit(spec) for spec in chunk]
                outcome[which] = [h.result() for h in handles]

            threads = [
                threading.Thread(target=client, args=(0, specs[:6])),
                threading.Thread(target=client, args=(1, specs[6:])),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return outcome[0] + outcome[1]

    one_by_one = serve("sequential", sequential_run)
    coalesced = serve("concurrent", concurrent_run)
    agree = all(
        set(a.top.tolist()) == set(b.top.tolist())
        for a, b in zip(one_by_one, coalesced)
    )
    print(f"\nsame certified sets either way: {agree}")
    certified_match = sum(
        set(r.top.tolist()) == set(m.top.tolist())
        for r, m in zip(coalesced, results)
        if r.certified
    )
    print(f"certified disk answers matching the memory backend: {certified_match}")


def main() -> None:
    # The deployment's files live for the run and are removed after it.
    with tempfile.TemporaryDirectory(prefix="fastppv_topk_") as workdir:
        run(Path(workdir))


if __name__ == "__main__":
    main()
