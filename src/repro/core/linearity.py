"""Multi-node queries via the Linearity Theorem (Jeh & Widom).

The PPV of a weighted query set ``{(q_i, w_i)}`` with ``sum w_i = 1`` is
``sum_i w_i * r_{q_i}`` — so a multi-node query decomposes into single-node
queries, which is why the paper (Sect. 1 and Sect. 6, "Test queries") only
evaluates single-node queries.  This module provides the assembly, split
into two reusable pieces:

* :func:`normalise_weights` — validate and normalise a teleport
  preference vector;
* :func:`combine_results` — fold already-computed single-node
  :class:`~repro.core.query.QueryResult`\\ s into the weighted mixture.

:func:`multi_node_ppv` composes them over single queries; the
:class:`~repro.serving.PPVService` façade uses the same two pieces so a
multi-node :class:`~repro.serving.QuerySpec` is served through whichever
backend (and batch schedule) the service runs on while producing the
identical weighted assembly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.query import QueryResult, StoppingCondition

if TYPE_CHECKING:
    from repro.core.batch import FastPPV


def normalise_weights(
    num_queries: int, weights: Sequence[float] | None
) -> np.ndarray:
    """Teleport weights for ``num_queries`` nodes, normalised to sum to 1.

    ``None`` means uniform preference.  Raises ``ValueError`` on a length
    mismatch, negative entries, an all-zero vector, or a sum that is not
    finite.
    """
    if num_queries == 0:
        raise ValueError("a query needs at least one node")
    if weights is None:
        return np.full(num_queries, 1.0 / num_queries)
    weight_arr = np.asarray(weights, dtype=float)
    if weight_arr.shape != (num_queries,):
        raise ValueError("one weight per query node required")
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        total = weight_arr.sum()
    if np.any(weight_arr < 0.0) or total <= 0.0:
        raise ValueError("weights must be non-negative with positive sum")
    if not np.isfinite(total):
        raise ValueError(f"weights must have a finite sum, not {total}")
    return weight_arr / total


def combine_results(
    queries: Sequence[int],
    weight_arr: np.ndarray,
    results: Sequence[QueryResult],
) -> QueryResult:
    """Weighted Linearity-Theorem mixture of per-node query results.

    ``results[i]`` must be the single-node result of ``queries[i]``;
    ``weight_arr`` is assumed normalised (see :func:`normalise_weights`).
    ``query`` of the returned result is the first node of the set;
    ``error_history`` combines the per-query histories weighted the same
    way (valid since L1 error is linear over the under-approximations).
    When the results carry a disk I/O record, the mixture's is their
    sum (``truncated``: any of them).
    """
    scores = np.zeros_like(results[0].scores)
    for weight, result in zip(weight_arr, results):
        scores += weight * result.scores

    depth = max(len(r.error_history) for r in results)
    combined_history = []
    for level in range(depth):
        error = 0.0
        for weight, result in zip(weight_arr, results):
            history = result.error_history
            error += weight * history[min(level, len(history) - 1)]
        combined_history.append(error)

    combined = QueryResult(
        query=int(queries[0]),
        scores=scores,
        iterations=max(r.iterations for r in results),
        error_history=combined_history,
        hubs_expanded=sum(r.hubs_expanded for r in results),
        seconds=sum(r.seconds for r in results),
        work_units=sum(r.work_units for r in results),
    )
    if results[0].cluster_faults is not None:
        combined.cluster_faults = sum(r.cluster_faults for r in results)
        combined.hub_reads = sum(r.hub_reads for r in results)
        combined.truncated = any(r.truncated for r in results)
    return combined


def multi_node_ppv(
    engine: FastPPV,
    queries: Sequence[int],
    weights: Sequence[float] | None = None,
    stop: StoppingCondition | None = None,
) -> QueryResult:
    """Estimated PPV of a multi-node query.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.batch.FastPPV` engine.
    queries:
        Query node ids (the teleport set).
    weights:
        Teleport preference per node; uniform when omitted.  Normalised to
        sum to 1.
    stop:
        Stopping condition forwarded to each single-node query.

    Returns
    -------
    QueryResult
        The weighted combination (see :func:`combine_results`).
    """
    weight_arr = normalise_weights(len(queries), weights)
    results = [engine.query(int(q), stop=stop) for q in queries]
    return combine_results(queries, weight_arr, results)
