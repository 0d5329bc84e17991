"""Unit tests for error bounds (Theorem 2) and query-time error (Eq. 6)."""

import numpy as np
import pytest

from repro import FastPPV, StopAfterIterations
from repro.core.errors import (
    l1_error_bound,
    query_time_l1_error,
    realized_l1_error,
)


class TestTheorem2Bound:
    def test_paper_worked_numbers(self):
        # Sect. 4.1: alpha = 0.15 gives phi(10) <= 0.143, phi(20) <= 0.0280,
        # phi(30) <= 0.00552.
        assert l1_error_bound(10, 0.15) == pytest.approx(0.143, abs=1e-3)
        assert l1_error_bound(20, 0.15) == pytest.approx(0.0280, abs=1e-4)
        assert l1_error_bound(30, 0.15) == pytest.approx(0.00552, abs=1e-5)

    def test_exponential_decay(self):
        bounds = [l1_error_bound(k, 0.15) for k in range(20)]
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(0.85) for r in ratios)

    def test_zero_iterations(self):
        assert l1_error_bound(0, 0.15) == pytest.approx(0.85**2)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            l1_error_bound(-1)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            l1_error_bound(3, alpha=0.0)

    def test_bound_holds_empirically(self, small_social, small_social_index):
        # The realized query-time error must respect the Theorem 2 bound.
        engine = FastPPV(small_social, small_social_index, delta=0.0)
        for eta in range(4):
            result = engine.query(21, stop=StopAfterIterations(eta))
            assert result.l1_error <= l1_error_bound(eta, small_social_index.alpha) + 1e-9


class TestQueryTimeError:
    def test_matches_definition(self):
        estimate = np.array([0.3, 0.2, 0.1])
        assert query_time_l1_error(estimate) == pytest.approx(0.4)

    def test_zero_for_full_distribution(self):
        assert query_time_l1_error(np.array([0.5, 0.5])) == pytest.approx(0.0)


class TestRealizedError:
    def test_basic(self):
        exact = np.array([0.6, 0.4])
        estimate = np.array([0.5, 0.3])
        assert realized_l1_error(exact, estimate) == pytest.approx(0.2)

    def test_agrees_with_query_time_for_underestimates(self):
        exact = np.array([0.7, 0.3])
        estimate = np.array([0.6, 0.2])  # entry-wise below exact
        assert realized_l1_error(exact, estimate) == pytest.approx(
            query_time_l1_error(estimate)
        )
