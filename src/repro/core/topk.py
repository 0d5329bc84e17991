"""Certified top-k queries on top of the incremental engine.

The related work (Sect. 2) notes that top-K PPV methods "often rely on
bounds to identify the top K nodes without an actual estimate on node
scores".  Scheduled approximation yields such bounds for free:

* every estimate *under*-approximates (Theorem 1), so ``estimate[p]`` is
  a lower bound on the true score of ``p``;
* the query-time L1 error ``phi`` (Eq. 6) caps the total missing mass,
  so ``estimate[p] + phi`` is an upper bound.

Hence the current top-k is **certified correct as a set** once the k-th
best lower bound exceeds the (k+1)-th best upper bound — i.e. when the
gap between the k-th and (k+1)-th estimates exceeds ``phi``.  The engine
below iterates exactly until that certificate holds (or a budget runs
out), typically far earlier than a fixed accuracy target would require.

The certificate is read off the estimate, so it rides on the one served
result: :func:`top_k_result` fills ``certified`` and ``top`` of a
:class:`~repro.core.query.QueryResult` (memory or disk, single or
multi-node) and keeps every other field, the disk I/O record included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.ranking import top_k_nodes

if TYPE_CHECKING:
    from repro.core.batch import Engine
    from repro.core.query import QueryResult


def _certificate_holds(scores: np.ndarray, k: int, phi: float) -> bool:
    """k-th best lower bound > (k+1)-th best upper bound."""
    if k >= scores.size:
        return True  # the "top-k" is the whole node set
    top = top_k_nodes(scores, k + 1)
    kth = scores[top[k - 1]]
    next_best = scores[top[k]]
    return bool(kth > next_best + phi)


def _certificates_hold_many(
    rows: np.ndarray, k: int, phis: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`_certificate_holds` over stacked score rows.

    The scalar check compares the k-th and (k+1)-th best *values* (the
    tie-break of ``top_k_nodes`` picks which node carries them, never the
    values themselves), so a partial sort per row decides identically.
    """
    num_rows, n = rows.shape
    if k >= n:
        return np.ones(num_rows, dtype=bool)
    part = np.partition(rows, (n - k - 1, n - k), axis=1)
    kth = part[:, n - k]
    next_best = part[:, n - k - 1]
    return kth > next_best + phis


@dataclass(frozen=True)
class StopWhenCertified:
    """Stopping condition: halt once the top-k certificate holds.

    Pure and stateless (a frozen dataclass), so one instance may gate a
    whole batch and completed results may be cached keyed by it.  The
    round loop of :mod:`repro.core.splice` detects :meth:`should_stop_many`
    and evaluates every in-flight query's certificate for the round in
    one vectorised pass; :meth:`should_stop` is the same rule for one
    state.
    """

    k: int
    max_iterations: int

    def should_stop(self, state) -> bool:
        if state.iteration >= self.max_iterations:
            return True
        if state.scores is None:
            return False
        return _certificate_holds(state.scores, self.k, state.l1_error)

    def should_stop_many(
        self,
        iterations: np.ndarray,
        l1_errors: np.ndarray,
        scores: np.ndarray,
    ) -> np.ndarray:
        """Per-row :meth:`should_stop` for stacked live queries.

        ``iterations``/``l1_errors`` are aligned with the rows of
        ``scores``; returns a boolean mask of queries that must stop.
        Decisions are identical to calling :meth:`should_stop` per row.
        """
        return (iterations >= self.max_iterations) | _certificates_hold_many(
            scores, self.k, l1_errors
        )


def top_k_result(result: QueryResult, k: int) -> QueryResult:
    """``result`` with its top-k certificate filled in: ``top`` holds the
    ``k`` best node ids, ``certified`` whether that set is exact.

    Re-evaluates the certificate on the final estimate, so the reported
    ``certified`` flag is sound even when iteration stopped for another
    reason (budget, empty frontier).  Every other field, the disk I/O
    record included, is ``result``'s own.
    """
    return replace(
        result,
        certified=_certificate_holds(result.scores, k, result.l1_error),
        top=top_k_nodes(result.scores, k),
    )


def query_top_k(
    engine: Engine,
    query: int,
    k: int = 10,
    max_iterations: int = 32,
) -> QueryResult:
    """Iterate until the top-k set is certified exact (or budget is hit):
    ``engine.query_top_k_many([query], k, max_iterations)[0]``.

    Runs as a *single* incremental pass: the certificate is evaluated by a
    content-aware stopping condition after every iteration.

    Parameters
    ----------
    engine:
        Either backend's :class:`~repro.core.batch.Engine`.  Use
        ``delta = 0`` for a sound certificate: frontier pruning makes the
        Eq. 6 error slightly optimistic about prunable mass, which is
        fine in practice but weakens the formal guarantee.
    query:
        Query node.
    k:
        Size of the wanted top set.
    max_iterations:
        Budget; if the certificate never fires the result is returned
        uncertified.
    """
    return engine.query_top_k_many([query], k=k, max_iterations=max_iterations)[0]
