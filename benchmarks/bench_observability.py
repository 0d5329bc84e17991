"""Observability overhead: what tracing a query costs.

Observability is always on — every ``PPVService`` counts into its
``repro.obs`` registry — so there is one serving path and two ways to
use it:

* **untraced** — no trace field on any query: two histogram records
  per scheduler drain, one labelled counter increment and two latency
  records per query, function-backed metrics read at snapshot time.
* **traced** — every query carries a trace context and the full span
  tree (queue, batch, cache, kernel) is recorded.

Hard acceptance: traced serving is score-identical to untraced.
Lenient gate: traced wall time <= 1.25x untraced (measured 0.98-1.04x
over three runs at scale 0.4 on the development host).  The ``obs=None`` baseline this
file used to carry is gone with the option: it measured the always-on
path at 0.94-0.97x the uninstrumented one, i.e. inside noise.

Configurations are timed interleaved (best-of-N each) so clock drift
and cache warmup hit both alike.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.common import BENCH_SCALE, emit, emit_json
from repro import StopAfterIterations, build_index, select_hubs, social_graph
from repro.experiments.report import Table
from repro.obs import Observability
from repro.serving import PPVService, QuerySpec

DELTA = 1e-4
ONLINE_EPSILON = 1e-5
REPETITIONS = 5
MAX_TRACED_OVERHEAD = 1.25  # traced wall time vs untraced


@pytest.fixture(scope="module")
def setup():
    num_nodes = max(1000, int(4000 * BENCH_SCALE))
    num_hubs = max(100, int(400 * BENCH_SCALE))
    graph = social_graph(num_nodes=num_nodes, seed=11)
    hubs = select_hubs(graph, num_hubs=num_hubs)
    index = build_index(graph, hubs, epsilon=1e-6)
    rng = np.random.default_rng(0)
    queries = [
        int(q)
        for q in rng.choice(graph.num_nodes, size=64, replace=False)
    ]
    return graph, index, queries


def test_tracing_overhead(setup):
    graph, index, queries = setup
    stop = StopAfterIterations(2)
    specs = [QuerySpec(q, stop=stop) for q in queries]

    obs = Observability()
    with PPVService.open(
        index, graph=graph, delta=DELTA, online_epsilon=ONLINE_EPSILON,
        cache_size=0, obs=obs,
    ) as service:
        def run_untraced():
            return service.query_many(specs)

        def run_traced():
            span = obs.tracer.start_span("bench.burst")
            try:
                return service.query_many(
                    [spec.with_trace(span.context()) for spec in specs]
                )
            finally:
                span.end()

        # Traced serving must not change a single score.
        for expected, got in zip(run_untraced(), run_traced()):
            np.testing.assert_array_equal(expected.scores, got.scores)

        best = {"untraced": float("inf"), "traced": float("inf")}
        runs = (("untraced", run_untraced), ("traced", run_traced))
        for _ in range(REPETITIONS):
            for name, run in runs:  # interleaved: noise hits both alike
                started = time.perf_counter()
                run()
                best[name] = min(best[name], time.perf_counter() - started)

    rate = lambda seconds: len(queries) / seconds
    traced_ratio = best["traced"] / best["untraced"]
    table = Table(
        title=f"Observability overhead ({graph.num_nodes} nodes, "
        f"{index.num_hubs} hubs, eta=2, {len(queries)} queries, "
        f"best of {REPETITIONS})",
        headers=["configuration", "q/s", "wall vs untraced"],
    )
    table.add_row("untraced", f"{rate(best['untraced']):.0f}", "1.000")
    table.add_row(
        "traced", f"{rate(best['traced']):.0f}", f"{traced_ratio:.3f}"
    )
    emit("observability_overhead", table)
    emit_json(
        "observability",
        {
            "overhead": {
                "num_nodes": graph.num_nodes,
                "num_hubs": int(index.num_hubs),
                "num_queries": len(queries),
                "repetitions": REPETITIONS,
                "untraced_qps": rate(best["untraced"]),
                "traced_qps": rate(best["traced"]),
                "traced_overhead_ratio": traced_ratio,
                "max_traced_overhead": MAX_TRACED_OVERHEAD,
            }
        },
    )

    assert best["traced"] <= MAX_TRACED_OVERHEAD * best["untraced"], (
        f"traced serving took {traced_ratio:.3f}x the untraced wall time "
        f"(bound {MAX_TRACED_OVERHEAD}x)"
    )
