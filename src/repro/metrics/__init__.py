"""Accuracy metrics of Sect. 6: two over rankings, two over scores.

All four follow the convention "larger is better":

* :func:`kendall_tau` and :func:`precision_at_k` compare the *ranking* of
  the top-k nodes;
* :func:`rag` (Relative Average Goodness) and :func:`l1_similarity`
  (``1 - L1 error``, the paper's re-presentation of L1 error) compare the
  *scores*.
"""

from repro.metrics.ranking import kendall_tau, precision_at_k, top_k_nodes
from repro.metrics.scores import l1_error, l1_similarity, rag
from repro.metrics.suite import AccuracyReport, evaluate_accuracy

__all__ = [
    "top_k_nodes",
    "kendall_tau",
    "precision_at_k",
    "rag",
    "l1_error",
    "l1_similarity",
    "AccuracyReport",
    "evaluate_accuracy",
]
