"""Error accounting: the Theorem 2 bound and the Eq. 6 query-time error.

Two distinct quantities live here and must not be confused:

* the *query-time* L1 error — computable from the estimate alone because
  FastPPV only under-approximates (Theorem 1) and the exact PPV sums to 1;
* the *a priori* bound ``(1 - alpha)^(k+2)`` on that error after ``k``
  iterations (Theorem 2) — what makes "a few iterations suffice" a theorem
  rather than an observation.
"""

from __future__ import annotations

import numpy as np

from repro.graph.pagerank import DEFAULT_ALPHA


def l1_error_bound(iterations: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Theorem 2: upper bound on the L1 error after ``iterations``.

    ``phi(k) <= (1 - alpha)^(k + 2)`` — decays exponentially, e.g. with
    ``alpha = 0.15``: ``phi(10) <= 0.143``, ``phi(20) <= 0.0280``,
    ``phi(30) <= 0.00552`` (the paper's worked numbers).
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return (1.0 - alpha) ** (iterations + 2)


def query_time_l1_error(estimate: np.ndarray) -> float:
    """Eq. 6: ``phi(k) = 1 - ||estimate||_1``.

    Valid because the scheduled approximation never over-counts a tour
    (Theorem 1) and the exact PPV is a probability distribution.  On graphs
    with dangling nodes the exact PPV sums to slightly less than 1 and this
    becomes a (tight) upper bound.
    """
    return 1.0 - float(np.asarray(estimate).sum())


def realized_l1_error(exact: np.ndarray, estimate: np.ndarray) -> float:
    """The actual ``||exact - estimate||_1`` (needs the ground truth)."""
    return float(np.abs(np.asarray(exact) - np.asarray(estimate)).sum())

