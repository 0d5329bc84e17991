"""Index and estimate validation — production debugging aids.

An index file that was built against a different graph snapshot, or
corrupted on disk, produces silently wrong rankings; these checkers turn
such states into actionable reports.  They verify the *mathematical*
invariants of the data structures, not just shapes:

* every hub entry re-derives from a fresh prime push (sampled);
* border masses match their hub scores (``score = alpha * mass``);
* entries respect the clip threshold and are sorted/unique;
* a query result is a monotone under-approximation with a consistent
  error history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.index import PPVIndex
from repro.core.prime import prime_ppv
from repro.core.query import QueryResult
from repro.graph.digraph import DiGraph


@dataclass
class ValidationReport:
    """Outcome of a validation pass."""

    checks: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every check passed."""
        return not self.problems

    def add_problem(self, message: str) -> None:
        """Record a failed check."""
        self.problems.append(message)

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        """Combine two reports."""
        return ValidationReport(
            checks=self.checks + other.checks,
            problems=self.problems + other.problems,
        )


def validate_index_structure(index: PPVIndex) -> ValidationReport:
    """Structural invariants of every entry (cheap, full coverage)."""
    report = ValidationReport()
    mask_hubs = np.flatnonzero(index.hub_mask)
    if not np.array_equal(index.hubs, mask_hubs):
        report.add_problem(
            "hub mask and entry keys disagree: "
            f"{index.num_hubs} entries vs {mask_hubs.size} mask hubs"
        )
    report.checks += 1
    for hub in index.hubs.tolist():
        entry = index.get(hub)
        report.checks += 1
        if entry.nodes.size != np.unique(entry.nodes).size:
            report.add_problem(f"entry {hub}: duplicate support nodes")
        if np.any(np.diff(entry.nodes) <= 0):
            report.add_problem(f"entry {hub}: support not sorted")
        if np.any(entry.scores <= 0.0):
            report.add_problem(f"entry {hub}: non-positive scores stored")
        if index.clip > 0.0 and entry.nodes.size and entry.scores.min() < index.clip:
            report.add_problem(f"entry {hub}: stored score below clip")
        if entry.border_masses.size and entry.border_masses.min() <= 0.0:
            report.add_problem(f"entry {hub}: non-positive border mass")
        for border in entry.border_hubs:
            if not index.hub_mask[int(border)]:
                report.add_problem(
                    f"entry {hub}: border node {int(border)} is not a hub"
                )
        if entry.scores.sum() > 1.0 + 1e-9:
            report.add_problem(f"entry {hub}: scores sum above 1")
    return report


def validate_index_against_graph(
    index: PPVIndex,
    graph: DiGraph,
    sample: int = 8,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> ValidationReport:
    """Recompute sampled hub entries and compare (catches stale indexes).

    With the default clip, recomputation matches stored entries exactly
    (same code path); any mismatch means the index was built from a
    different graph, parameters, or file corruption.
    """
    report = ValidationReport()
    if index.hub_mask.shape != (graph.num_nodes,):
        report.checks += 1
        report.add_problem(
            f"index covers {index.hub_mask.size} nodes, graph has "
            f"{graph.num_nodes}"
        )
        return report
    rng = np.random.default_rng(seed)
    hubs = index.hubs
    chosen = rng.choice(hubs, size=min(sample, hubs.size), replace=False)
    for hub in chosen:
        report.checks += 1
        from repro.core.index import clip_prime_ppv

        fresh = clip_prime_ppv(
            prime_ppv(
                graph,
                int(hub),
                index.hub_mask,
                alpha=index.alpha,
                epsilon=index.epsilon,
            ),
            index.clip,
        )
        stored = index.get(int(hub))
        if not np.array_equal(fresh.nodes, stored.nodes):
            report.add_problem(f"hub {int(hub)}: support set differs from graph")
            continue
        if not np.allclose(fresh.scores, stored.scores, atol=tolerance):
            report.add_problem(f"hub {int(hub)}: scores differ from graph")
        if not np.array_equal(fresh.border_hubs, stored.border_hubs):
            report.add_problem(f"hub {int(hub)}: border hubs differ from graph")
        elif not np.allclose(
            fresh.border_masses, stored.border_masses, atol=tolerance
        ):
            report.add_problem(f"hub {int(hub)}: border masses differ")
    return report


def validate_query_result(result: QueryResult) -> ValidationReport:
    """Internal consistency of a query result."""
    report = ValidationReport()
    report.checks += 1
    if np.any(result.scores < -1e-12):
        report.add_problem("negative scores in estimate")
    total = float(result.scores.sum())
    if total > 1.0 + 1e-9:
        report.add_problem(f"estimate mass {total} exceeds 1")
    if len(result.error_history) != result.iterations + 1:
        report.add_problem(
            f"{len(result.error_history)} error entries for "
            f"{result.iterations} iterations"
        )
    if any(
        later > earlier + 1e-12
        for earlier, later in zip(result.error_history, result.error_history[1:])
    ):
        report.add_problem("error history is not non-increasing")
    if result.error_history and abs(
        result.error_history[-1] - (1.0 - total)
    ) > 1e-9:
        report.add_problem("final error does not match 1 - mass (Eq. 6)")
    return report
