"""Ranking accuracy: Kendall's tau and precision over the top-k nodes.

The paper (following Chakrabarti [6]) focuses on the top 10 nodes because
"users are usually more interested in higher ranked nodes".  Both metrics
compare the approximate ranking against the ranking induced by the exact
PPV.
"""

from __future__ import annotations

import numpy as np


def top_k_nodes(scores: np.ndarray, k: int = 10) -> np.ndarray:
    """Node ids of the ``k`` largest scores, best first, ties by node id.

    The deterministic tie-break matters: approximate vectors contain many
    exactly-equal (often zero) entries, and an unstable order would make
    the metrics noisy.

    Exactly ``np.lexsort((np.arange(n), -scores))[:k]`` — the one ranking
    every served reply and every metric uses — computed by selection:
    the k-th best value comes from ``np.partition`` (O(n)), and only the
    nodes scoring at least that much are sorted.
    """
    scores = np.asarray(scores)
    n = scores.size
    k = max(0, n + k) if k < 0 else min(k, n)  # what ``[:k]`` keeps
    if k == 0:
        return np.empty(0, dtype=np.intp)
    keys = -scores
    candidates = np.arange(n)
    if k < n:
        kth = np.partition(keys, k - 1)[k - 1]
        if kth == kth:  # NaN keys rank last and compare false: keep all
            candidates = np.flatnonzero(keys <= kth)
    # Candidates ascend by id, so a stable sort on the key alone breaks
    # ties by node id.
    return candidates[np.argsort(keys[candidates], kind="stable")[:k]]


def kendall_tau(
    exact: np.ndarray, estimate: np.ndarray, k: int = 10
) -> float:
    """Kendall's tau-b between exact and estimated rankings of the top-k.

    The comparison set is the union of both top-k lists (the convention of
    Fogaras et al. [8] / Chakrabarti [6]): for every pair of nodes in the
    union, the pair is *concordant* if both vectors order it the same way,
    *discordant* if they order it oppositely; pairs tied in either vector
    contribute to the tie corrections of the tau-b denominator.

    Returns a value in ``[-1, 1]``; 1 means identical order.
    """
    exact = np.asarray(exact, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    universe = np.union1d(top_k_nodes(exact, k), top_k_nodes(estimate, k))
    a = exact[universe]
    b = estimate[universe]
    concordant = 0
    discordant = 0
    ties_a = 0
    ties_b = 0
    n = universe.size
    for i in range(n):
        for j in range(i + 1, n):
            da = a[i] - a[j]
            db = b[i] - b[j]
            if da == 0.0 and db == 0.0:
                ties_a += 1
                ties_b += 1
            elif da == 0.0:
                ties_a += 1
            elif db == 0.0:
                ties_b += 1
            elif (da > 0.0) == (db > 0.0):
                concordant += 1
            else:
                discordant += 1
    total = n * (n - 1) // 2
    denom = np.sqrt(float(total - ties_a) * float(total - ties_b))
    if denom == 0.0:
        return 1.0  # everything tied in both: orderings agree vacuously
    return float((concordant - discordant) / denom)


def precision_at_k(exact: np.ndarray, estimate: np.ndarray, k: int = 10) -> float:
    """Fraction of the exact top-k recovered by the estimated top-k."""
    exact_top = set(top_k_nodes(exact, k).tolist())
    estimate_top = set(top_k_nodes(estimate, k).tolist())
    if not exact_top:
        return 1.0
    return len(exact_top & estimate_top) / len(exact_top)
