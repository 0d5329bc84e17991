"""Tests for certified top-k queries."""

import numpy as np
import pytest

from repro import FastPPV, build_index, exact_ppv, select_hubs
from repro.core.query import QueryResult
from repro.core.topk import _certificate_holds, query_top_k
from repro.metrics import top_k_nodes


@pytest.fixture(scope="module")
def engine(small_social, small_social_index):
    # delta=0 for a sound certificate (see module docstring).
    return FastPPV(small_social, small_social_index, delta=0.0)


class TestCertificate:
    def test_holds_with_clear_gap(self):
        scores = np.array([0.5, 0.3, 0.01])
        assert _certificate_holds(scores, k=2, phi=0.1)

    def test_fails_with_narrow_gap(self):
        scores = np.array([0.5, 0.3, 0.25])
        assert not _certificate_holds(scores, k=2, phi=0.1)

    def test_trivial_when_k_covers_graph(self):
        scores = np.array([0.5, 0.3])
        assert _certificate_holds(scores, k=2, phi=0.9)


class TestQueryTopK:
    def test_certified_set_matches_exact(self, engine, small_social):
        for query in (5, 77, 130):
            result = query_top_k(engine, query, k=5, max_iterations=40)
            if not result.certified:
                continue  # budget exhausted (rare) — nothing to verify
            exact = exact_ppv(small_social, query)
            expected = set(top_k_nodes(exact, 5).tolist())
            assert set(result.top.tolist()) == expected

    def test_certifies_somewhere(self, engine, small_social):
        certified = sum(
            query_top_k(engine, q, k=3, max_iterations=40).certified
            for q in range(0, 100, 10)
        )
        assert certified >= 5  # most queries certify within the budget

    def test_result_fields(self, engine):
        result = query_top_k(engine, 9, k=4)
        assert isinstance(result, QueryResult)
        assert result.top.size == 4
        assert result.iterations >= 0
        assert 0.0 <= result.l1_error <= 1.0
        assert result.scores.shape[0] == engine.graph.num_nodes

    def test_fewer_iterations_than_accuracy_target(self, engine):
        # The certificate typically fires long before the error is tiny:
        # the point of bound-based top-k.
        result = query_top_k(engine, 9, k=3, max_iterations=40)
        assert result.certified
        assert result.l1_error > 1e-3  # did NOT need full convergence

    def test_k_larger_than_graph(self, engine, small_social):
        result = query_top_k(engine, 2, k=small_social.num_nodes + 5)
        assert result.certified  # vacuously: the set is everything
        assert result.iterations == 0

    def test_invalid_k(self, engine):
        with pytest.raises(ValueError):
            query_top_k(engine, 2, k=0)

    def test_budget_respected(self, engine):
        result = query_top_k(engine, 9, k=3, max_iterations=1)
        assert result.iterations <= 1
