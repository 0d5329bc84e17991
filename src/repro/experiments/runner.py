"""Uniform method drivers: build offline, run the workload, score it.

All three methods (FastPPV and the two baselines) are reduced to a common
:class:`MethodOutcome` so the figure drivers can tabulate them side by
side, the way the paper's Figs. 6-7 do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.hubrank import HubRankP
from repro.baselines.montecarlo import MonteCarlo
from repro.core.hubs import HubPolicy, select_hubs
from repro.core.index import PPVIndex, build_index
from repro.core.query import DEFAULT_DELTA, StopAfterIterations
from repro.experiments.workloads import Workload
from repro.serving import PPVService, QuerySpec
from repro.graph.digraph import DiGraph
from repro.metrics.suite import AccuracyReport, evaluate_accuracy


@dataclass
class MethodOutcome:
    """One method's full offline + online accounting over a workload."""

    method: str
    accuracy: AccuracyReport
    online_ms_per_query: float
    offline_seconds: float
    offline_megabytes: float
    online_work_per_query: float = 0.0
    """Mean scale-independent work units per query (edges traversed plus
    index entries touched); see ``QueryResult.work_units``."""

    def row(self) -> list[object]:
        """Tabular form: method, four metrics, online ms, offline s/MB."""
        return [
            self.method,
            self.accuracy.kendall,
            self.accuracy.precision,
            self.accuracy.rag,
            self.accuracy.l1_similarity,
            self.online_ms_per_query,
            self.offline_seconds,
            self.offline_megabytes,
        ]


def _score_workload(
    workload: Workload, run_workload
) -> tuple[AccuracyReport, float, float]:
    """Run the workload and score it; return (accuracy, ms/query,
    work/query).

    ``run_workload`` takes the whole query array and returns per-query
    results, so each method times its own execution path (FastPPV's is
    one coalesced batch through the serving façade).
    """
    reports = []
    started = time.perf_counter()
    results = run_workload(workload.queries)
    elapsed = time.perf_counter() - started
    for exact, result in zip(workload.exact, results):
        reports.append(evaluate_accuracy(exact, result.scores))
    mean_work = float(np.mean([r.work_units for r in results]))
    return (
        AccuracyReport.average(reports),
        elapsed / len(workload) * 1000.0,
        mean_work,
    )


DEFAULT_ONLINE_EPSILON = 1e-6
"""Query-time prime-push cut-off used by the experiment drivers (coarser
than the offline 1e-8: negligible accuracy impact, ~3x lower latency)."""


def run_fastppv(
    graph: DiGraph,
    workload: Workload,
    num_hubs: int,
    eta: int = 2,
    delta: float = DEFAULT_DELTA,
    policy: HubPolicy = HubPolicy.EXPECTED_UTILITY,
    pagerank: np.ndarray | None = None,
    index: PPVIndex | None = None,
    online_epsilon: float = DEFAULT_ONLINE_EPSILON,
    workers: int = 1,
) -> MethodOutcome:
    """Build (or reuse) a FastPPV index and score the workload.

    Passing a prebuilt ``index`` skips the offline phase (its recorded
    stats are reported instead) — used by the sweeps that vary only online
    parameters.  The online phase runs through the serving façade
    (:class:`~repro.serving.PPVService` over the memory backend, which
    drains the workload as one coalesced batch through the batch
    engine); ``workers`` parallelises the offline build.
    """
    if index is None:
        hubs = select_hubs(
            graph, num_hubs, policy=policy, alpha=workload.alpha, pagerank=pagerank
        )
        index = build_index(graph, hubs, alpha=workload.alpha, workers=workers)
    stop = StopAfterIterations(eta)
    with PPVService.open(
        index, graph=graph, delta=delta, online_epsilon=online_epsilon
    ) as service:
        accuracy, online_ms, work = _score_workload(
            workload,
            lambda qs: service.query_many(
                [QuerySpec(int(q), stop=stop) for q in qs]
            ),
        )
    return MethodOutcome(
        method="FastPPV",
        accuracy=accuracy,
        online_ms_per_query=online_ms,
        offline_seconds=index.stats.build_seconds,
        offline_megabytes=index.stats.megabytes,
        online_work_per_query=work,
    )


def run_hubrank(
    graph: DiGraph,
    workload: Workload,
    num_hubs: int,
    push_threshold: float,
    pagerank: np.ndarray | None = None,
) -> MethodOutcome:
    """Build HubRankP and score the workload."""
    engine = HubRankP(
        graph,
        num_hubs=num_hubs,
        push_threshold=push_threshold,
        alpha=workload.alpha,
        pagerank=pagerank,
    )
    accuracy, online_ms, work = _score_workload(
        workload, lambda qs: [engine.query(int(q)) for q in qs]
    )
    return MethodOutcome(
        method="HubRankP",
        accuracy=accuracy,
        online_ms_per_query=online_ms,
        offline_seconds=engine.offline_stats.build_seconds,
        offline_megabytes=engine.offline_stats.megabytes,
        online_work_per_query=work,
    )


def run_montecarlo(
    graph: DiGraph,
    workload: Workload,
    num_hubs: int,
    samples_per_query: int,
    pagerank: np.ndarray | None = None,
    seed: int = 0,
) -> MethodOutcome:
    """Build MonteCarlo fingerprints and score the workload."""
    engine = MonteCarlo(
        graph,
        num_hubs=num_hubs,
        samples_per_query=samples_per_query,
        alpha=workload.alpha,
        seed=seed,
        pagerank=pagerank,
    )
    accuracy, online_ms, work = _score_workload(
        workload, lambda qs: [engine.query(int(q)) for q in qs]
    )
    return MethodOutcome(
        method="MonteCarlo",
        accuracy=accuracy,
        online_ms_per_query=online_ms,
        offline_seconds=engine.offline_stats.build_seconds,
        offline_megabytes=engine.offline_stats.megabytes,
        online_work_per_query=work,
    )
