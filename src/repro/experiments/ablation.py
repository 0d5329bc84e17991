"""Ablations beyond the paper's figures.

Three design knobs the paper fixes by fiat get sensitivity sweeps here:

* ``delta`` — the border-hub expansion threshold (Sect. 5.2 fixes 0.005);
* ``clip`` — the storage clip (Sect. 6 fixes 1e-4);
* the Theorem 2 bound — measured error vs the analytic
  ``(1 - alpha)^(k+2)`` envelope.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.batch import FastPPV
from repro.core.errors import l1_error_bound
from repro.core.hubs import select_hubs
from repro.core.index import PPVIndex, build_index
from repro.core.query import StopAfterIterations
from repro.experiments.report import Table
from repro.experiments.runner import run_fastppv
from repro.experiments.workloads import Workload
from repro.graph.digraph import DiGraph
from repro.graph.pagerank import global_pagerank


def delta_sweep_table(
    graph: DiGraph,
    workload: Workload,
    index: PPVIndex,
    deltas: Sequence[float] = (0.0, 1e-4, 1e-3, 5e-3, 2e-2),
    eta: int = 2,
) -> Table:
    """Sensitivity of accuracy/time to the delta threshold."""
    table = Table(
        title="Ablation — border-hub threshold delta",
        headers=["delta", "Kendall", "Precision", "L1 sim", "Time (ms)"],
    )
    for delta in deltas:
        outcome = run_fastppv(
            graph, workload, num_hubs=index.num_hubs, eta=eta, delta=delta,
            index=index,
        )
        table.add_row(
            delta,
            outcome.accuracy.kendall,
            outcome.accuracy.precision,
            outcome.accuracy.l1_similarity,
            outcome.online_ms_per_query,
        )
    return table


def clip_sweep_table(
    graph: DiGraph,
    workload: Workload,
    num_hubs: int,
    clips: Sequence[float] = (0.0, 1e-5, 1e-4, 1e-3),
    eta: int = 2,
) -> Table:
    """Sensitivity of space/accuracy to the storage clip threshold."""
    pagerank = global_pagerank(graph, alpha=workload.alpha)
    hubs = select_hubs(graph, num_hubs, alpha=workload.alpha, pagerank=pagerank)
    table = Table(
        title="Ablation — storage clip threshold",
        headers=["clip", "Space (MB)", "Kendall", "Precision", "L1 sim"],
    )
    for clip in clips:
        index = build_index(graph, hubs, alpha=workload.alpha, clip=clip)
        outcome = run_fastppv(
            graph, workload, num_hubs=num_hubs, eta=eta, index=index
        )
        table.add_row(
            clip,
            index.stats.megabytes,
            outcome.accuracy.kendall,
            outcome.accuracy.precision,
            outcome.accuracy.l1_similarity,
        )
    return table


def error_bound_table(
    graph: DiGraph,
    index: PPVIndex,
    queries: Sequence[int],
    max_eta: int = 8,
) -> Table:
    """Measured query-time L1 error vs the Theorem 2 bound."""
    engine = FastPPV(graph, index, delta=0.0)
    errors = np.zeros(max_eta + 1)
    for query in queries:
        result = engine.query(int(query), stop=StopAfterIterations(max_eta))
        history = result.error_history
        padded = history + [history[-1]] * (max_eta + 1 - len(history))
        errors += np.asarray(padded[: max_eta + 1])
    errors /= len(queries)
    table = Table(
        title="Ablation — measured L1 error vs Theorem 2 bound",
        headers=["k", "Measured error", "Bound (1-alpha)^(k+2)", "Slack factor"],
    )
    for k in range(max_eta + 1):
        bound = l1_error_bound(k, index.alpha)
        slack = bound / errors[k] if errors[k] > 0 else float("inf")
        table.add_row(k, float(errors[k]), bound, slack)
    return table
