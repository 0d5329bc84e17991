"""Serving workloads through the ``PPVService`` façade.

Simulates a multi-user serving scenario: the offline index is built with
parallel workers, then a single :class:`~repro.serving.PPVService` fronts
all traffic — concurrent clients ``submit()`` requests that the
coalescing scheduler drains as engine batches, repeated
queries hit the popularity-aware result cache, and the scores stay
bitwise-equal to calling the batch engine directly.

Run with:  python examples/batch_serving.py
"""

import threading
import time

import numpy as np

from repro import (
    FastPPV,
    PPVService,
    QuerySpec,
    StopAfterIterations,
    build_index,
    select_hubs,
    social_graph,
)


def main() -> None:
    # 1. A graph and a parallel offline build (chunked across workers).
    graph = social_graph(num_nodes=4000, seed=42)
    hubs = select_hubs(graph, num_hubs=400)
    index = build_index(graph, hubs, workers=4)
    print(f"graph: {graph}")
    print(
        f"index: {index.num_hubs} hubs built with 4 workers "
        f"in {index.stats.build_seconds:.2f}s"
    )

    rng = np.random.default_rng(7)
    batch = rng.choice(graph.num_nodes, size=64, replace=False).tolist()
    stop = StopAfterIterations(2)
    specs = [QuerySpec(q, stop=stop) for q in batch]

    with PPVService.open(
        index, graph=graph, delta=1e-4, online_epsilon=1e-5
    ) as service:
        # 2. One burst through the facade: the scheduler drains it as
        #    engine batches (iteration 0 = one multi-source push, every
        #    further iteration = the round's two compiled products).
        started = time.perf_counter()
        results = service.query_many(specs)
        batch_seconds = time.perf_counter() - started
        print(
            f"\nburst of {len(batch)}: {batch_seconds * 1000:.0f} ms "
            f"({len(batch) / batch_seconds:.0f} queries/s), "
            f"mean L1 error {np.mean([r.l1_error for r in results]):.4f}"
        )

        # 3. The same traffic, one query at a time (batches of one).
        engine = FastPPV(graph, index, delta=1e-4, online_epsilon=1e-5)
        started = time.perf_counter()
        single_results = [engine.query(q, stop=stop) for q in batch]
        single_seconds = time.perf_counter() - started
        print(
            f"one at a time: {single_seconds * 1000:.0f} ms "
            f"({len(batch) / single_seconds:.0f} queries/s) "
            f"-> facade speedup {single_seconds / batch_seconds:.1f}x"
        )
        worst = max(
            float(np.abs(b.scores - s.scores).max())
            for b, s in zip(results, single_results)
        )
        print(f"largest score deviation from single queries: {worst:.2e}")

        # ... and the facade adds no numerics of its own: a direct call
        # into the engine's batch path gives bitwise-identical scores.
        direct = engine.query_many(batch, stop=stop)
        bitwise = all(
            np.array_equal(a.scores, b.scores)
            for a, b in zip(results, direct)
        )
        print(f"bitwise-equal to FastPPV.query_many: {bitwise}")

        # 4. Two concurrent clients asking for *fresh* nodes (nothing
        #    cached yet): their submissions coalesce into shared
        #    scheduler drains — and shared engine batches — instead of
        #    interleaving engine calls.
        fresh = [
            int(q)
            for q in rng.choice(graph.num_nodes, size=64, replace=False)
            if q not in set(batch)
        ]

        def client(nodes, sink):
            handles = [service.submit(QuerySpec(q, stop=stop)) for q in nodes]
            sink.extend(h.result() for h in handles)

        before = service.stats()
        a_results: list = []
        b_results: list = []
        half = len(fresh) // 2
        threads = [
            threading.Thread(target=client, args=(fresh[:half], a_results)),
            threading.Thread(target=client, args=(fresh[half:], b_results)),
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seconds = time.perf_counter() - started
        stats = service.stats()
        print(
            f"\ntwo concurrent clients, {half} fresh queries each: "
            f"{seconds * 1000:.0f} ms in {stats.batches - before.batches} "
            f"coalesced batches "
            f"({stats.cache_misses - before.cache_misses} engine-served)"
        )

        # 5. Repeated traffic: completed PPVs come from the popularity-
        #    aware cache (hit counters feed eviction, so the popular
        #    working set survives one-off bursts).
        before = service.stats()
        started = time.perf_counter()
        service.query_many(specs)
        cached_seconds = time.perf_counter() - started
        stats = service.stats()
        print(
            f"\nfirst burst again: {cached_seconds * 1000:.1f} ms "
            f"({stats.cache_hits - before.cache_hits} cache hits / "
            f"{stats.cache_misses - before.cache_misses} misses)"
        )


if __name__ == "__main__":
    main()
