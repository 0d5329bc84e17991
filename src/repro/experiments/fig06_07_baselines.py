"""Figs. 5-7: accuracy-moderated comparison of FastPPV vs the baselines.

One shared run produces the data for three of the paper's exhibits:

* Fig. 5 — the configuration table (inputs);
* Fig. 6 — accuracy of the three methods under each configuration;
* Fig. 7 — online time per query, offline space, offline time.
"""

from __future__ import annotations

from repro.experiments.configs import CONFIGS, Config
from repro.experiments.datasets import dblp_graph, livejournal_graph
from repro.experiments.report import Table
from repro.experiments.runner import (
    MethodOutcome,
    run_fastppv,
    run_hubrank,
    run_montecarlo,
)
from repro.experiments.workloads import make_workload
from repro.graph.pagerank import global_pagerank

METHODS = ("FastPPV", "HubRankP", "MonteCarlo")


def run_baseline_comparison(
    scale: float = 1.0,
    num_queries: int = 40,
    configs: dict[str, Config] | None = None,
    seed: int = 0,
) -> dict[str, list[MethodOutcome]]:
    """Run all three methods under every configuration.

    Returns ``config name -> [FastPPV, HubRankP, MonteCarlo] outcomes``.
    """
    if configs is None:
        configs = CONFIGS
    graphs = {}
    workloads = {}
    pageranks = {}
    for config in configs.values():
        if config.dataset not in graphs:
            if config.dataset == "dblp":
                graph = dblp_graph(scale=scale).graph
            else:
                graph = livejournal_graph(scale=scale)
            graphs[config.dataset] = graph
            workloads[config.dataset] = make_workload(
                graph, num_queries=num_queries, seed=seed
            )
            pageranks[config.dataset] = global_pagerank(graph)

    results: dict[str, list[MethodOutcome]] = {}
    for name, config in configs.items():
        graph = graphs[config.dataset]
        workload = workloads[config.dataset]
        pagerank = pageranks[config.dataset]
        results[name] = [
            run_fastppv(
                graph,
                workload,
                num_hubs=config.num_hubs,
                eta=config.fastppv_eta,
                delta=config.fastppv_delta,
                pagerank=pagerank,
            ),
            run_hubrank(
                graph,
                workload,
                num_hubs=config.num_hubs,
                push_threshold=config.hubrank_push,
                pagerank=pagerank,
            ),
            run_montecarlo(
                graph,
                workload,
                num_hubs=config.num_hubs,
                samples_per_query=config.montecarlo_samples,
                pagerank=pagerank,
                seed=seed,
            ),
        ]
    return results


def fig5_table(configs: dict[str, Config] | None = None) -> Table:
    """The configuration table (Fig. 5)."""
    if configs is None:
        configs = CONFIGS
    table = Table(
        title="Fig. 5 — accuracy-moderated configurations",
        headers=["Config", "Dataset", "|H|", "HubRankP push", "MonteCarlo N", "FastPPV eta"],
    )
    for config in configs.values():
        table.add_row(
            config.name,
            config.dataset,
            config.num_hubs,
            config.hubrank_push,
            config.montecarlo_samples,
            config.fastppv_eta,
        )
    return table


def fig6_table(results: dict[str, list[MethodOutcome]]) -> Table:
    """Accuracy of every method under every configuration (Fig. 6)."""
    table = Table(
        title="Fig. 6 — accuracy under accuracy-moderated configurations",
        headers=["Config", "Method", "Kendall", "Precision", "RAG", "L1 sim"],
    )
    for name, outcomes in results.items():
        for outcome in outcomes:
            table.add_row(
                name,
                outcome.method,
                outcome.accuracy.kendall,
                outcome.accuracy.precision,
                outcome.accuracy.rag,
                outcome.accuracy.l1_similarity,
            )
    return table


def fig7_tables(results: dict[str, list[MethodOutcome]]) -> tuple[Table, Table, Table]:
    """Online time / offline space / offline time (Fig. 7 a-c)."""
    online = Table(
        title="Fig. 7(a) — online time per query (ms)",
        headers=["Config"] + list(METHODS),
    )
    space = Table(
        title="Fig. 7(b) — offline total space (MB)",
        headers=["Config"] + list(METHODS),
    )
    offline = Table(
        title="Fig. 7(c) — offline total time (s)",
        headers=["Config"] + list(METHODS),
    )
    for name, outcomes in results.items():
        online.add_row(name, *[o.online_ms_per_query for o in outcomes])
        space.add_row(name, *[o.offline_megabytes for o in outcomes])
        offline.add_row(name, *[o.offline_seconds for o in outcomes])
    return online, space, offline


def fig7_work_table(results: dict[str, list[MethodOutcome]]) -> Table:
    """Supplementary: algorithmic work per query (edges + index entries).

    Wall-clock milliseconds at our 200x-reduced scale are dominated by
    per-call constants of vectorised kernels; work units are the
    scale-independent comparison.
    """
    table = Table(
        title="Fig. 7(d, suppl.) — online work units per query",
        headers=["Config"] + list(METHODS),
    )
    for name, outcomes in results.items():
        table.add_row(name, *[o.online_work_per_query for o in outcomes])
    return table
