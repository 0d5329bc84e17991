"""Unit tests for the four accuracy metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.result import BaselineResult
from repro.core.query import QueryResult
from repro.core.reachability import ReachabilityResult
from repro.metrics import (
    AccuracyReport,
    evaluate_accuracy,
    kendall_tau,
    l1_error,
    l1_similarity,
    precision_at_k,
    rag,
    top_k_nodes,
)
from repro.serving.spec import QuerySnapshot


class TestTopK:
    def test_orders_by_score(self):
        scores = np.array([0.1, 0.5, 0.3])
        assert top_k_nodes(scores, 2).tolist() == [1, 2]

    def test_tie_break_by_id(self):
        scores = np.array([0.5, 0.5, 0.5])
        assert top_k_nodes(scores, 2).tolist() == [0, 1]

    def test_k_larger_than_n(self):
        assert top_k_nodes(np.array([1.0, 2.0]), 10).size == 2


def _full_sort_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The ranking's definition: a full sort, then the first ``k``."""
    return np.lexsort((np.arange(scores.size), -scores))[:k]


# Few distinct values (signed zeros and infinities among them), so
# almost every vector is mostly ties — the k-th value is usually shared.
_TIED_SCORES = st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, np.inf, -np.inf]),
    max_size=24,
).map(lambda values: np.array(values, dtype=np.float64))
_ANY_SCORES = st.lists(
    st.floats(allow_nan=False, width=64), max_size=24
).map(lambda values: np.array(values, dtype=np.float64))


class TestTopKSelectionIsTheFullSort:
    """``top_k_nodes`` selects instead of sorting everything; the order
    it returns — ties by node id included — must be the full sort's."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(scores=st.one_of(_TIED_SCORES, _ANY_SCORES), data=st.data())
    def test_equals_the_lexsort_oracle(self, scores, data):
        n = scores.size
        edge_ks = [0, 1, n - 1, n, n + 5]
        k = data.draw(st.one_of(st.sampled_from(edge_ks), st.integers(-3, n + 5)))
        got = top_k_nodes(scores, k)
        expected = _full_sort_top_k(scores, k)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_all_equal_vectors_rank_by_node_id(self, n):
        for k in (0, 1, n - 1, n, n + 5):
            got = top_k_nodes(np.full(n, 0.5), k)
            assert got.tolist() == _full_sort_top_k(np.full(n, 0.5), k).tolist()
            if k >= 0:
                assert got.tolist() == list(range(min(k, n)))

    def test_nan_scores_rank_last_like_the_full_sort(self):
        scores = np.array([np.nan, 0.5, np.nan, 0.5, 0.1])
        for k in range(7):
            assert (
                top_k_nodes(scores, k).tolist()
                == _full_sort_top_k(scores, k).tolist()
            )

    def test_every_result_ranking_delegates_to_it(self):
        scores = np.array([0.5, 0.0, 0.5, 0.25, 0.0, 0.25, 0.5])
        k, query = 5, 0
        expected = _full_sort_top_k(scores, k).tolist()
        without_query = scores.copy()
        without_query[query] = -np.inf
        expected_excluding = _full_sort_top_k(without_query, k).tolist()
        served = QueryResult(query=query, scores=scores, iterations=0)
        baseline = BaselineResult(query=query, scores=scores, seconds=0.0)
        for result in (served, baseline):
            assert result.top_k(k).tolist() == expected
            assert result.top_k(k, exclude_query=True).tolist() == expected_excluding
        snapshot = QuerySnapshot(
            iteration=0, l1_error=0.0, frontier_size=0, scores=scores
        )
        assert snapshot.top_k(k).tolist() == expected
        reach = ReachabilityResult(
            query=query, max_length=3, alpha=0.15, scores=scores
        )
        assert reach.top_k(k) == [(node, float(scores[node])) for node in expected]
        assert all(
            type(node) is int and type(score) is float
            for node, score in reach.top_k(k)
        )


class TestKendall:
    def test_identical_rankings(self):
        scores = np.array([0.4, 0.3, 0.2, 0.1])
        assert kendall_tau(scores, scores.copy(), k=4) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        exact = np.array([4.0, 3.0, 2.0, 1.0])
        estimate = np.array([1.0, 2.0, 3.0, 4.0])
        assert kendall_tau(exact, estimate, k=4) == pytest.approx(-1.0)

    def test_partial_agreement_between(self):
        exact = np.array([4.0, 3.0, 2.0, 1.0])
        estimate = np.array([4.0, 3.0, 1.0, 2.0])  # one swapped pair
        value = kendall_tau(exact, estimate, k=4)
        assert 0.0 < value < 1.0

    def test_all_tied_estimate(self):
        exact = np.array([0.4, 0.3, 0.2])
        estimate = np.zeros(3)
        # All estimate pairs tied: tau-b denominator collapses on one side.
        value = kendall_tau(exact, estimate, k=3)
        assert -1.0 <= value <= 1.0

    def test_both_constant(self):
        value = kendall_tau(np.ones(3), np.ones(3), k=3)
        assert value == pytest.approx(1.0)

    def test_scale_invariant(self):
        exact = np.array([0.4, 0.3, 0.2, 0.1])
        estimate = np.array([0.39, 0.31, 0.19, 0.11])
        assert kendall_tau(exact, estimate * 10, k=4) == pytest.approx(
            kendall_tau(exact, estimate, k=4)
        )


class TestPrecision:
    def test_perfect(self):
        scores = np.array([0.4, 0.3, 0.2, 0.1])
        assert precision_at_k(scores, scores.copy(), k=2) == 1.0

    def test_disjoint(self):
        exact = np.array([1.0, 1.0, 0.0, 0.0])
        estimate = np.array([0.0, 0.0, 1.0, 1.0])
        assert precision_at_k(exact, estimate, k=2) == 0.0

    def test_half_overlap(self):
        exact = np.array([0.9, 0.8, 0.0, 0.0])
        estimate = np.array([0.9, 0.0, 0.8, 0.0])
        assert precision_at_k(exact, estimate, k=2) == 0.5

    def test_order_within_topk_irrelevant(self):
        exact = np.array([0.9, 0.8, 0.1])
        estimate = np.array([0.8, 0.9, 0.1])
        assert precision_at_k(exact, estimate, k=2) == 1.0


class TestRAG:
    def test_perfect_topk(self):
        scores = np.array([0.4, 0.3, 0.2, 0.1])
        assert rag(scores, scores.copy(), k=2) == pytest.approx(1.0)

    def test_order_within_topk_irrelevant(self):
        exact = np.array([0.4, 0.3, 0.2])
        estimate = np.array([0.3, 0.4, 0.2])
        assert rag(exact, estimate, k=2) == pytest.approx(1.0)

    def test_suboptimal_selection(self):
        exact = np.array([0.5, 0.3, 0.2])
        estimate = np.array([0.5, 0.0, 0.4])  # picks node 2 over node 1
        assert rag(exact, estimate, k=2) == pytest.approx(0.7 / 0.8)

    def test_all_zero_exact(self):
        assert rag(np.zeros(3), np.ones(3), k=2) == 1.0


class TestL1:
    def test_error_and_similarity_complementary(self):
        exact = np.array([0.6, 0.4])
        estimate = np.array([0.5, 0.4])
        assert l1_error(exact, estimate) == pytest.approx(0.1)
        assert l1_similarity(exact, estimate) == pytest.approx(0.9)

    def test_identical(self):
        scores = np.array([0.5, 0.5])
        assert l1_similarity(scores, scores.copy()) == pytest.approx(1.0)


class TestSuite:
    def test_evaluate_accuracy_bundle(self):
        exact = np.array([0.4, 0.3, 0.2, 0.1])
        report = evaluate_accuracy(exact, exact.copy(), k=3)
        assert report.kendall == pytest.approx(1.0)
        assert report.precision == 1.0
        assert report.rag == pytest.approx(1.0)
        assert report.l1_similarity == pytest.approx(1.0)

    def test_as_dict_columns(self):
        report = AccuracyReport(0.9, 0.8, 0.99, 0.95)
        assert list(report.as_dict()) == [
            "Kendall",
            "Precision",
            "RAG",
            "L1 similarity",
        ]

    def test_average(self):
        a = AccuracyReport(1.0, 1.0, 1.0, 1.0)
        b = AccuracyReport(0.0, 0.5, 0.8, 0.6)
        avg = AccuracyReport.average([a, b])
        assert avg.kendall == pytest.approx(0.5)
        assert avg.precision == pytest.approx(0.75)
        assert avg.rag == pytest.approx(0.9)
        assert avg.l1_similarity == pytest.approx(0.8)

    def test_average_empty_rejected(self):
        with pytest.raises(ValueError):
            AccuracyReport.average([])
