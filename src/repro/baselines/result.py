"""Common result type for baseline engines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.ranking import top_k_nodes


@dataclass
class BaselineResult:
    """Outcome of one baseline query.

    Mirrors the fields of :class:`repro.core.query.QueryResult` that the
    experiment harness consumes, so FastPPV and the baselines can be
    scored by the same code path.
    """

    query: int
    scores: np.ndarray
    seconds: float
    work_units: int = 0
    """Scale-independent work: edge traversals plus spliced index entries
    (walk steps for MonteCarlo).  See ``QueryResult.work_units``."""

    def top_k(self, k: int = 10, exclude_query: bool = False) -> np.ndarray:
        """Node ids of the ``k`` highest scores, best first, ties by id."""
        scores = self.scores
        if exclude_query:
            scores = scores.copy()
            scores[self.query] = -np.inf
        return top_k_nodes(scores, k)
