"""Theorem 2 ablation: measured L1 error vs the analytic bound, plus the
delta / clip sensitivity sweeps."""

import numpy as np
import pytest

from benchmarks.common import BENCH_QUERIES, BENCH_SCALE, emit
from repro import FastPPV, StopAfterIterations, build_index, select_hubs
from repro.experiments import livejournal_graph, make_workload
from repro.experiments.ablation import (
    clip_sweep_table,
    delta_sweep_table,
    error_bound_table,
)


@pytest.fixture(scope="module")
def setup():
    graph = livejournal_graph(scale=BENCH_SCALE)
    workload = make_workload(graph, num_queries=BENCH_QUERIES, seed=0)
    hubs = select_hubs(graph, max(40, int(300 * BENCH_SCALE)))
    index = build_index(graph, hubs)
    return graph, workload, index


def test_error_bound_and_threshold_ablations(benchmark, setup):
    graph, workload, index = setup
    rng = np.random.default_rng(1)
    queries = rng.choice(graph.num_nodes, size=10, replace=False).tolist()

    bound_table = error_bound_table(graph, index, queries, max_eta=8)
    delta_table = delta_sweep_table(graph, workload, index)
    clip_table = clip_sweep_table(
        graph, workload, num_hubs=index.num_hubs, clips=(0.0, 1e-5, 1e-4, 1e-3)
    )
    emit("ablation_error_bound", bound_table, delta_table, clip_table)

    # Theorem 2 must hold for every k: measured error <= bound.
    for row in bound_table.rows:
        k, measured, bound, _ = row
        assert measured <= bound + 1e-9, f"bound violated at k={k}"
    # And the measured error must decay monotonically.
    errors = [row[1] for row in bound_table.rows]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    # Timing record: the error-bound evaluation itself is trivial; bench
    # the eta=4, delta=0 query that dominates the ablation.
    engine = FastPPV(graph, index, delta=0.0)
    stop = StopAfterIterations(4)
    benchmark(lambda: engine.query(int(queries[0]), stop=stop))
