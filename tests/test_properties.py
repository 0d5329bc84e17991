"""Property-based tests (hypothesis) for core invariants.

Random small graphs exercise the full engine pipeline; each property is
one of the paper's formal claims (Theorems 1-4, Eq. 6) or a structural
invariant of the substrate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FastPPV, StopAfterIterations, build_index, from_edges
from repro.core.errors import l1_error_bound
from repro.core.exact import exact_ppv_dense_solve
from repro.core.prime import prime_ppv
from repro.metrics import kendall_tau, precision_at_k, rag, top_k_nodes

ALPHA = 0.15

# ----------------------------------------------------------------------- #
# Strategies
# ----------------------------------------------------------------------- #

NODE_COUNT = st.integers(min_value=2, max_value=8)


@st.composite
def graphs(draw, dangling_free: bool = True):
    """A random small digraph; dangling-free variants add a Hamilton cycle."""
    n = draw(NODE_COUNT)
    edge_pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(
        st.lists(st.sampled_from(edge_pool), min_size=0, max_size=2 * n)
    )
    if dangling_free:
        edges += [(u, (u + 1) % n) for u in range(n)]
    return from_edges(edges, num_nodes=n)


@st.composite
def graph_with_hubs(draw, dangling_free: bool = True):
    graph = draw(graphs(dangling_free=dangling_free))
    hubs = draw(
        st.lists(
            st.integers(min_value=0, max_value=graph.num_nodes - 1),
            unique=True,
            max_size=graph.num_nodes,
        )
    )
    return graph, sorted(hubs)


@st.composite
def score_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(values)


# ----------------------------------------------------------------------- #
# Engine-level properties (the paper's theorems)
# ----------------------------------------------------------------------- #


class TestEngineProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph_with_hubs())
    def test_full_schedule_recovers_exact_ppv(self, gh):
        """Theorem 1's endpoint: covering all partitions gives the exact PPV."""
        graph, hubs = gh
        index = build_index(graph, hubs, alpha=ALPHA, epsilon=1e-14, clip=0.0)
        engine = FastPPV(graph, index, delta=0.0, max_iterations=300)
        for query in range(graph.num_nodes):
            result = engine.query(query, stop=StopAfterIterations(250))
            expected = exact_ppv_dense_solve(graph, query, alpha=ALPHA)
            np.testing.assert_allclose(result.scores, expected, atol=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(graph_with_hubs(), st.integers(min_value=0, max_value=5))
    def test_monotone_underestimate(self, gh, eta):
        """Theorem 1: estimates grow entry-wise and never exceed exact."""
        graph, hubs = gh
        index = build_index(graph, hubs, alpha=ALPHA, epsilon=1e-12, clip=0.0)
        engine = FastPPV(graph, index, delta=0.0)
        query = 0
        previous = np.zeros(graph.num_nodes)
        exact = exact_ppv_dense_solve(graph, query, alpha=ALPHA)
        for level in range(eta + 1):
            scores = engine.query(query, stop=StopAfterIterations(level)).scores
            assert np.all(scores >= previous - 1e-12)
            assert np.all(scores <= exact + 1e-9)
            previous = scores

    @settings(max_examples=30, deadline=None)
    @given(graph_with_hubs(), st.integers(min_value=0, max_value=6))
    def test_theorem2_bound(self, gh, eta):
        """Theorem 2: query-time L1 error <= (1 - alpha)^(eta + 2)."""
        graph, hubs = gh
        index = build_index(graph, hubs, alpha=ALPHA, epsilon=1e-12, clip=0.0)
        engine = FastPPV(graph, index, delta=0.0)
        result = engine.query(0, stop=StopAfterIterations(eta))
        assert result.l1_error <= l1_error_bound(eta, ALPHA) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(graph_with_hubs())
    def test_eq6_error_identity(self, gh):
        """Eq. 6: query-time error equals 1 - ||estimate||_1 equals the
        true L1 error on dangling-free graphs (no clipping/pruning)."""
        graph, hubs = gh
        index = build_index(graph, hubs, alpha=ALPHA, epsilon=1e-14, clip=0.0)
        engine = FastPPV(graph, index, delta=0.0)
        result = engine.query(0, stop=StopAfterIterations(3))
        exact = exact_ppv_dense_solve(graph, 0, alpha=ALPHA)
        true_error = np.abs(exact - result.scores).sum()
        assert result.l1_error == pytest.approx(true_error, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(graph_with_hubs())
    def test_prime_ppv_is_partition_zero(self, gh):
        """The prime PPV never exceeds the exact PPV (it covers T^0 only),
        and border scores relate to arrival masses by the alpha factor."""
        graph, hubs = gh
        hub_mask = np.zeros(graph.num_nodes, dtype=bool)
        hub_mask[hubs] = True
        for source in range(graph.num_nodes):
            prime = prime_ppv(graph, source, hub_mask, alpha=ALPHA, epsilon=1e-14)
            exact = exact_ppv_dense_solve(graph, source, alpha=ALPHA)
            dense = prime.to_dense(graph.num_nodes)
            assert np.all(dense <= exact + 1e-9)
            for hub, mass in zip(prime.border_hubs, prime.border_masses):
                if int(hub) != source:
                    assert prime.score_of(int(hub)) == pytest.approx(
                        ALPHA * mass, abs=1e-12
                    )


# ----------------------------------------------------------------------- #
# Substrate properties
# ----------------------------------------------------------------------- #


class TestGraphProperties:
    @settings(max_examples=50, deadline=None)
    @given(graphs(dangling_free=False))
    def test_reverse_involution(self, graph):
        reversed_twice = graph.reverse().reverse()
        assert reversed_twice == graph

    @settings(max_examples=50, deadline=None)
    @given(graphs(dangling_free=False))
    def test_reverse_swaps_degrees(self, graph):
        np.testing.assert_array_equal(
            graph.reverse().out_degrees, graph.in_degrees()
        )

    @settings(max_examples=50, deadline=None)
    @given(graphs(dangling_free=False))
    def test_edge_iteration_matches_counts(self, graph):
        edges = list(graph.edges())
        assert len(edges) == graph.num_edges
        assert len(set(edges)) == len(edges)  # builder deduplicates

    @settings(max_examples=50, deadline=None)
    @given(graphs(dangling_free=False))
    def test_transition_matrix_row_sums(self, graph):
        sums = np.asarray(graph.transition_matrix().sum(axis=1)).ravel()
        has_out = graph.out_degrees > 0
        np.testing.assert_allclose(sums[has_out], 1.0, atol=1e-12)
        np.testing.assert_allclose(sums[~has_out], 0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(graphs(dangling_free=True))
    def test_exact_ppv_is_distribution(self, graph):
        scores = exact_ppv_dense_solve(graph, 0, alpha=ALPHA)
        assert scores.min() >= -1e-12
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------- #
# Metric properties
# ----------------------------------------------------------------------- #


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(score_vectors())
    def test_identity_scores_perfect(self, scores):
        assert kendall_tau(scores, scores.copy(), k=5) == pytest.approx(1.0)
        assert precision_at_k(scores, scores.copy(), k=5) == 1.0
        assert rag(scores, scores.copy(), k=5) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(score_vectors(), score_vectors())
    def test_metric_ranges(self, a, b):
        n = min(a.size, b.size)
        a, b = a[:n], b[:n]
        assert -1.0 <= kendall_tau(a, b, k=4) <= 1.0
        assert 0.0 <= precision_at_k(a, b, k=4) <= 1.0
        assert rag(a, b, k=4) >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(score_vectors(), st.integers(min_value=1, max_value=6))
    def test_topk_sorted_by_score(self, scores, k):
        top = top_k_nodes(scores, k)
        values = scores[top]
        assert np.all(np.diff(values) <= 1e-15)

    @settings(max_examples=60, deadline=None)
    @given(score_vectors(), st.floats(min_value=0.1, max_value=10.0))
    def test_metrics_scale_invariant(self, scores, factor):
        noisy = scores * factor
        assert precision_at_k(scores, noisy, k=3) == 1.0
        assert rag(scores, noisy, k=3) == pytest.approx(1.0)


class TestBoundProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=60),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_bound_monotone_in_k(self, k, alpha):
        assert l1_error_bound(k + 1, alpha) <= l1_error_bound(k, alpha)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=60))
    def test_bound_monotone_in_alpha(self, k):
        assert l1_error_bound(k, 0.3) <= l1_error_bound(k, 0.1)


# ----------------------------------------------------------------------- #
# Weighted-graph properties
# ----------------------------------------------------------------------- #


@st.composite
def weighted_graphs(draw):
    """A random small weighted digraph with a dangling-free backbone."""
    n = draw(NODE_COUNT)
    edge_pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(
        st.lists(st.sampled_from(edge_pool), min_size=0, max_size=2 * n)
    )
    edges += [(u, (u + 1) % n) for u in range(n)]
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    from repro.graph.build import from_weighted_edges

    return from_weighted_edges(
        [(s, d, w) for (s, d), w in zip(edges, weights)], num_nodes=n
    )


class TestWeightedProperties:
    @settings(max_examples=40, deadline=None)
    @given(weighted_graphs())
    def test_edge_probabilities_rows_sum_to_one(self, graph):
        probabilities = graph.edge_probabilities
        for node in range(graph.num_nodes):
            start, end = graph.indptr[node], graph.indptr[node + 1]
            if end > start:
                assert probabilities[start:end].sum() == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(weighted_graphs())
    def test_weighted_exact_ppv_is_distribution(self, graph):
        scores = exact_ppv_dense_solve(graph, 0, alpha=ALPHA)
        assert scores.min() >= -1e-12
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(weighted_graphs())
    def test_weighted_full_schedule_recovers_exact(self, graph):
        hubs = [0] if graph.num_nodes > 1 else []
        index = build_index(graph, hubs, alpha=ALPHA, epsilon=1e-14, clip=0.0)
        engine = FastPPV(graph, index, delta=0.0, max_iterations=300)
        result = engine.query(
            graph.num_nodes - 1, stop=StopAfterIterations(250)
        )
        expected = exact_ppv_dense_solve(graph, graph.num_nodes - 1, alpha=ALPHA)
        np.testing.assert_allclose(result.scores, expected, atol=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(weighted_graphs())
    def test_uniform_weights_match_unweighted(self, graph):
        # Replacing all weights by a constant must reproduce the
        # unweighted transition structure exactly.
        from repro.graph.digraph import DiGraph

        flat = DiGraph(graph.indptr, graph.indices)
        constant = DiGraph(
            graph.indptr,
            graph.indices,
            weights=np.full(graph.num_edges, 2.5),
        )
        np.testing.assert_allclose(
            constant.edge_probabilities, flat.edge_probabilities, atol=1e-15
        )


# ----------------------------------------------------------------------- #
# Top-k certificate properties
# ----------------------------------------------------------------------- #


class TestTopKProperties:
    @settings(max_examples=25, deadline=None)
    @given(graph_with_hubs(), st.integers(min_value=1, max_value=4))
    def test_certified_topk_is_exact(self, gh, k):
        from repro.core.topk import query_top_k
        from repro.metrics import top_k_nodes

        graph, hubs = gh
        index = build_index(graph, hubs, alpha=ALPHA, epsilon=1e-14, clip=0.0)
        engine = FastPPV(graph, index, delta=0.0, max_iterations=300)
        result = query_top_k(engine, 0, k=k, max_iterations=200)
        if result.certified:
            exact = exact_ppv_dense_solve(graph, 0, alpha=ALPHA)
            expected = set(top_k_nodes(exact, k).tolist())
            got = set(int(x) for x in result.top.tolist())
            # Ties at the boundary can make several sets "the" top-k; use
            # score comparison instead of id comparison.
            worst_got = min(exact[list(got)])
            best_missed = max(
                (exact[i] for i in range(graph.num_nodes) if i not in got),
                default=-1.0,
            )
            assert worst_got >= best_missed - 1e-9
            del expected
