"""Alternative schedule: partition tours by *natural length*.

Scheduled approximation is a principle — partition the tour set, process
partitions in priority order (Sect. 3).  FastPPV's realization partitions
by hub length; the natural strawman partitions by **path length**:
``S^i = {tours of exactly i edges}``, processed ``i = 0, 1, 2, ...``.
That schedule is exactly power iteration viewed as an anytime algorithm:
the increment at level ``i`` is ``alpha (1-alpha)^i (P^T)^i e_q``, its
mass is *fixed* at ``alpha (1-alpha)^i`` (the Theorem 2 proof's ``S^i``
sets), and there is nothing to precompute or reuse.

The ablation this module supports (``benchmarks/bench_ablation_schedule``)
shows what the hub-length realization buys: per *iteration* the
length schedule's error is exactly ``(1-alpha)^(k+1)`` while hub-length
partitions cover many lengths at once (every hub-free tour regardless of
length lands in iteration 0), so FastPPV converges in far fewer — and
index-accelerated — iterations.

Kept in ``src/``: CI's ``benchmarks/bench_ablation_schedule.py`` calls it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.query import QueryResult, QueryState, StopAfterIterations, StoppingCondition
from repro.graph.digraph import DiGraph
from repro.graph.pagerank import DEFAULT_ALPHA


class LengthScheduledPPV:
    """Anytime PPV by path-length partitions (power iteration).

    Shares the incremental/accuracy-aware interface of
    :class:`~repro.core.batch.FastPPV` so the two schedules can be
    compared head-to-head; there is no offline phase.
    """

    def __init__(self, graph: DiGraph, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.graph = graph
        self.alpha = alpha
        self._operator = graph.transition_matrix().T.tocsr()

    def query(
        self,
        query: int,
        stop: StoppingCondition | None = None,
        max_iterations: int = 500,
    ) -> QueryResult:
        """Estimate the PPV of ``query``, one path-length level per
        iteration."""
        if not 0 <= query < self.graph.num_nodes:
            raise ValueError(f"query node {query} out of range")
        if stop is None:
            stop = StopAfterIterations(2)
        started = time.perf_counter()
        term = np.zeros(self.graph.num_nodes)
        term[query] = self.alpha
        estimate = term.copy()
        error_history = [1.0 - float(estimate.sum())]
        iteration = 0

        def state() -> QueryState:
            return QueryState(
                iteration=iteration,
                l1_error=error_history[-1],
                elapsed_seconds=time.perf_counter() - started,
                frontier_size=int(np.count_nonzero(term)),
                scores=estimate,
            )

        while iteration < max_iterations and not stop.should_stop(state()):
            iteration += 1
            term = (1.0 - self.alpha) * (self._operator @ term)
            estimate += term
            error_history.append(1.0 - float(estimate.sum()))

        return QueryResult(
            query=query,
            scores=estimate,
            iterations=iteration,
            error_history=error_history,
            hubs_expanded=0,
            seconds=time.perf_counter() - started,
            work_units=iteration * self.graph.num_edges,
        )


def length_partition_mass(level: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Total reachability of all tours of exactly ``level`` edges.

    The ``sum over t in S^i of R(t) = (1 - alpha)^i alpha`` identity from
    the Theorem 2 proof — on a dangling-free graph the level masses are
    graph-independent.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    return (1.0 - alpha) ** level * alpha
