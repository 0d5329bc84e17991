"""Hub-count auto-configuration (paper's future work #1).

"Automatically determine the optimal number of hubs by correlating with
various graph properties like density and diameter." (Sect. 7.)  We
realise it as a measured probe rather than a closed-form guess: build
candidate indexes along a geometric ladder of hub counts, measure the
mean *online work* (the scale-independent cost of Sect. 5.2:
iteration-0 push edges plus spliced index entries) on a small query
sample, and return the candidate minimising it subject to an optional
offline space budget.

The Sect. 5.1 cost model predicts the trade-off the probe measures:
iteration-0 work shrinks like ``(|V| + |E|) / |H|`` while splice work
grows with the border-hub fan-out, so the work curve is U-shaped (or
saturating) in ``|H|`` and a coarse ladder finds its knee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch import FastPPV
from repro.core.hubs import HubPolicy, select_hubs
from repro.core.index import build_index
from repro.core.query import StopAfterIterations
from repro.graph.digraph import DiGraph
from repro.graph.pagerank import DEFAULT_ALPHA, global_pagerank


@dataclass(frozen=True)
class ProbePoint:
    """Measured cost at one candidate hub count."""

    num_hubs: int
    mean_work: float
    mean_l1_error: float
    index_megabytes: float


@dataclass(frozen=True)
class AutotuneResult:
    """Outcome of :func:`autotune_hub_count`."""

    best_num_hubs: int
    probes: tuple[ProbePoint, ...]


def default_candidates(graph: DiGraph) -> list[int]:
    """A geometric ladder between 0.5% and 25% of the node count."""
    n = graph.num_nodes
    ladder = []
    value = max(1, n // 200)
    while value <= max(1, n // 4):
        ladder.append(value)
        value *= 2
    return ladder or [max(1, n // 4)]


def autotune_hub_count(
    graph: DiGraph,
    candidates: Sequence[int] | None = None,
    num_probe_queries: int = 15,
    eta: int = 2,
    alpha: float = DEFAULT_ALPHA,
    space_budget_mb: float | None = None,
    seed: int = 0,
) -> AutotuneResult:
    """Pick a hub count by probing candidate indexes.

    Parameters
    ----------
    graph:
        The graph to configure for.
    candidates:
        Hub counts to probe; defaults to :func:`default_candidates`.
    num_probe_queries:
        Uniformly sampled queries scored per candidate.
    eta:
        Iteration budget used during probing.
    alpha:
        Teleport probability.
    space_budget_mb:
        If given, candidates whose index exceeds the budget are excluded
        (unless all do, in which case the smallest index wins).
    seed:
        Sampling seed.
    """
    if candidates is None:
        candidates = default_candidates(graph)
    if not candidates:
        raise ValueError("need at least one candidate hub count")
    rng = np.random.default_rng(seed)
    queries = rng.choice(
        graph.num_nodes, size=min(num_probe_queries, graph.num_nodes), replace=False
    )
    pagerank = global_pagerank(graph, alpha=alpha)

    probes = []
    for num_hubs in candidates:
        hubs = select_hubs(
            graph, num_hubs, HubPolicy.EXPECTED_UTILITY, alpha=alpha, pagerank=pagerank
        )
        index = build_index(graph, hubs, alpha=alpha)
        engine = FastPPV(graph, index, online_epsilon=1e-6)
        works = []
        errors = []
        for query in queries:
            result = engine.query(int(query), stop=StopAfterIterations(eta))
            works.append(result.work_units)
            errors.append(result.l1_error)
        probes.append(
            ProbePoint(
                num_hubs=num_hubs,
                mean_work=float(np.mean(works)),
                mean_l1_error=float(np.mean(errors)),
                index_megabytes=index.stats.megabytes,
            )
        )

    eligible = probes
    if space_budget_mb is not None:
        within = [p for p in probes if p.index_megabytes <= space_budget_mb]
        eligible = within or [min(probes, key=lambda p: p.index_megabytes)]
    best = min(eligible, key=lambda p: p.mean_work)
    return AutotuneResult(best_num_hubs=best.num_hubs, probes=tuple(probes))
