"""Query-family registry: per-family served throughput, coalescing
effectiveness, and equivalence spot-checks.

Three claims for :mod:`repro.serving.families`:

* **Routing is free for PPV.** Serving ``ppv`` through the family
  registry costs no measurable throughput against the direct batch
  engine (the registry adds key-prefixing and dispatch, not numerics).
* **Coalescing helps the new families too.** Same-target ``hitting``
  queries in one coalesced group share a prime-push cache, so the
  coalesced path beats one-at-a-time submission.
* **Equivalence holds at bench scale.** Spot-checked served results
  equal the direct :mod:`repro.core` calls (bitwise for ``hitting``,
  array-equal for ``reachability``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.common import BENCH_QUERIES, BENCH_SCALE, emit, emit_json
from repro import StopAfterIterations, build_index, select_hubs, social_graph
from repro.core.batch import BatchFastPPV
from repro.core.hitting import scheduled_hitting
from repro.core.reachability import reachability_query
from repro.experiments.report import Table
from repro.serving import PPVService, QuerySpec

DELTA = 1e-4


@pytest.fixture(scope="module")
def setup():
    num_nodes = max(800, int(3000 * BENCH_SCALE))
    num_hubs = max(80, int(300 * BENCH_SCALE))
    graph = social_graph(num_nodes=num_nodes, seed=13)
    hubs = select_hubs(graph, num_hubs=num_hubs)
    index = build_index(graph, hubs, epsilon=1e-6)
    rng = np.random.default_rng(7)
    queries = [
        int(q)
        for q in rng.choice(
            graph.num_nodes, size=max(8, BENCH_QUERIES), replace=False
        )
    ]
    return graph, index, queries


def _best_seconds(run, repetitions: int = 3) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_family_throughput_and_equivalence(setup):
    graph, index, queries = setup
    stop = StopAfterIterations(2)
    target = queries[0]

    ppv_specs = [QuerySpec(q, stop=stop) for q in queries]
    # Hitting is the heavyweight family (level-scheduled pushes per
    # query): a small same-target workload is enough to measure the
    # coalesced push-sharing without dominating the bench.
    hit_queries = queries[: max(4, len(queries) // 2)]
    hit_specs = [
        QuerySpec(
            q, family="hitting", params={"target": target, "max_levels": 8}
        )
        for q in hit_queries
    ]
    reach_specs = [
        QuerySpec(q, family="reachability", params={"max_length": 3})
        for q in queries
    ]

    batch = BatchFastPPV(graph, index, delta=DELTA)
    with PPVService.open(
        index, graph=graph, delta=DELTA, cache_size=0
    ) as service:
        service.warm()
        direct_ppv_seconds = _best_seconds(
            lambda: batch.query_many(queries, stop=stop)
        )
        served_ppv_seconds = _best_seconds(
            lambda: service.query_many(ppv_specs)
        )
        hit_loop_seconds = _best_seconds(
            lambda: [service.query(spec) for spec in hit_specs],
            repetitions=2,
        )
        hit_coalesced_seconds = _best_seconds(
            lambda: service.query_many(hit_specs), repetitions=2
        )
        reach_coalesced_seconds = _best_seconds(
            lambda: service.query_many(reach_specs)
        )

        # Equivalence spot-checks ride the timed workloads' specs.
        served_hits = service.query_many(hit_specs[:4])
        for spec, served in zip(hit_specs[:4], served_hits):
            direct = scheduled_hitting(
                graph, spec.nodes[0], target, index.hub_mask, max_levels=8
            )
            assert served.value == direct.value
            assert served.history == direct.history
        served_reach = service.query_many(reach_specs[:4])
        for spec, served in zip(reach_specs[:4], served_reach):
            direct = reachability_query(graph, spec.nodes[0], 3)
            np.testing.assert_array_equal(served.scores, direct.scores)

        families = service.stats().families

    rate = lambda seconds, n=len(queries): n / seconds
    hit_rate = lambda seconds: rate(seconds, len(hit_specs))
    table = Table(
        title=(
            f"Query-family serving ({graph.num_nodes} nodes, "
            f"{index.num_hubs} hubs, {len(queries)} queries/family)"
        ),
        headers=["path", "q/s"],
    )
    table.add_row("ppv, direct batch engine", f"{rate(direct_ppv_seconds):.0f}")
    table.add_row("ppv, served via registry", f"{rate(served_ppv_seconds):.0f}")
    table.add_row("hitting, one at a time", f"{hit_rate(hit_loop_seconds):.1f}")
    table.add_row("hitting, coalesced",
                  f"{hit_rate(hit_coalesced_seconds):.1f}")
    table.add_row("reachability, coalesced",
                  f"{rate(reach_coalesced_seconds):.0f}")
    emit("families", table)
    emit_json(
        "families",
        {
            "families": {
                "num_nodes": graph.num_nodes,
                "num_hubs": int(index.num_hubs),
                "num_queries": len(queries),
                "ppv_direct_qps": rate(direct_ppv_seconds),
                "ppv_served_qps": rate(served_ppv_seconds),
                "hitting_loop_qps": hit_rate(hit_loop_seconds),
                "hitting_coalesced_qps": hit_rate(hit_coalesced_seconds),
                "reachability_coalesced_qps": rate(reach_coalesced_seconds),
                "hitting_coalescing_speedup": (
                    hit_loop_seconds / hit_coalesced_seconds
                ),
            }
        },
    )

    # Acceptance: per-family stats saw every submission, and coalesced
    # hitting is no slower than the one-at-a-time loop (it shares the
    # target's prime pushes across the group).
    assert families["ppv"]["submitted"] >= 3 * len(queries)
    assert families["hitting"]["submitted"] >= len(hit_specs)
    assert families["reachability"]["submitted"] >= len(queries)
    assert hit_coalesced_seconds <= hit_loop_seconds * 1.10, (
        f"coalesced hitting {hit_coalesced_seconds:.3f}s slower than "
        f"one-at-a-time {hit_loop_seconds:.3f}s"
    )
