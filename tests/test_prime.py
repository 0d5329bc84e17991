"""Unit tests for prime subgraphs / prime PPVs (Definition 2)."""

import numpy as np
import pytest

from repro.core.exact import exact_ppv_dense_solve
from repro.core.prime import PrimePPV, prime_ppv
from repro.core.reachability import brute_force_increment
from repro.graph import from_edges
from tests.conftest import A, ALPHA, D, E, FIG3_HUBS, H


def dense_prime(graph, source, hub_mask, **kwargs):
    return prime_ppv(graph, source, hub_mask, **kwargs).to_dense(graph.num_nodes)


class TestPrimePPVCorrectness:
    def test_matches_brute_force_level0(self, fig1_graph, fig1_hub_mask):
        got = dense_prime(fig1_graph, A, fig1_hub_mask, alpha=ALPHA, epsilon=1e-12)
        expected = brute_force_increment(
            fig1_graph, A, set(FIG3_HUBS), 0, max_length=10, alpha=ALPHA
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_matches_brute_force_from_hub_source(self, fig1_graph, fig1_hub_mask):
        # Source is itself a hub: its initial expansion must still happen.
        got = dense_prime(fig1_graph, D, fig1_hub_mask, alpha=ALPHA, epsilon=1e-12)
        expected = brute_force_increment(
            fig1_graph, D, set(FIG3_HUBS), 0, max_length=10, alpha=ALPHA
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_cyclic_hub_absorbs_returning_mass(self):
        # 0 -> 1 -> 0 cycle with node 0 a hub: mass returning to 0 must be
        # scored once and recorded as border mass, not re-expanded.
        graph = from_edges([(0, 1), (1, 0)], num_nodes=2)
        hub_mask = np.array([True, False])
        result = prime_ppv(graph, 0, hub_mask, alpha=ALPHA, epsilon=1e-15)
        # Tours with no interior hubs from 0: (0), (0,1), (0,1,0) — longer
        # ones revisit 0 in the interior.
        r_0 = ALPHA + ALPHA * (1 - ALPHA) ** 2  # (0) and (0,1,0)
        r_1 = ALPHA * (1 - ALPHA)  # (0,1)
        assert result.score_of(0) == pytest.approx(r_0, abs=1e-12)
        assert result.score_of(1) == pytest.approx(r_1, abs=1e-12)
        assert result.border_hubs.tolist() == [0]
        assert result.border_masses[0] == pytest.approx((1 - ALPHA) ** 2, abs=1e-12)

    def test_no_hubs_gives_full_ppv(self, cyclic_graph):
        hub_mask = np.zeros(cyclic_graph.num_nodes, dtype=bool)
        got = dense_prime(cyclic_graph, 0, hub_mask, alpha=ALPHA, epsilon=1e-14)
        expected = exact_ppv_dense_solve(cyclic_graph, 0, alpha=ALPHA)
        np.testing.assert_allclose(got, expected, atol=1e-9)
        assert prime_ppv(
            cyclic_graph, 0, hub_mask, alpha=ALPHA
        ).border_hubs.size == 0

    def test_all_hubs_gives_one_step(self, fig1_graph):
        # Every node a hub: only the trivial tour and direct edges survive.
        hub_mask = np.ones(fig1_graph.num_nodes, dtype=bool)
        result = prime_ppv(fig1_graph, A, hub_mask, alpha=ALPHA, epsilon=1e-14)
        assert result.score_of(A) == pytest.approx(ALPHA)
        for nbr in fig1_graph.out_neighbors(A):
            expected = ALPHA * (1 - ALPHA) / fig1_graph.out_degree(A)
            assert result.score_of(int(nbr)) == pytest.approx(expected)

    def test_border_masses_relate_to_scores(self, fig1_graph, fig1_hub_mask):
        # For a non-source border hub h: score(h) == alpha * border_mass(h).
        result = prime_ppv(fig1_graph, A, fig1_hub_mask, alpha=ALPHA, epsilon=1e-14)
        for hub, mass in zip(result.border_hubs, result.border_masses):
            assert result.score_of(int(hub)) == pytest.approx(ALPHA * mass, abs=1e-12)

    def test_fig3_border_hubs_of_a(self, fig1_graph, fig1_hub_mask):
        # From a, the directly reachable hubs without crossing another hub
        # are b, d and f (g is not a hub, so f->g->d also reaches d).
        result = prime_ppv(fig1_graph, A, fig1_hub_mask, alpha=ALPHA)
        assert result.border_hubs.tolist() == sorted(FIG3_HUBS)


class TestEpsilonTruncation:
    def test_large_epsilon_shrinks_support(self, small_social):
        hub_mask = np.zeros(small_social.num_nodes, dtype=bool)
        fine = prime_ppv(small_social, 0, hub_mask, epsilon=1e-10)
        coarse = prime_ppv(small_social, 0, hub_mask, epsilon=1e-3)
        assert coarse.nodes.size <= fine.nodes.size
        assert coarse.mass <= fine.mass + 1e-12

    def test_truncation_error_small(self, small_social):
        hub_mask = np.zeros(small_social.num_nodes, dtype=bool)
        result = prime_ppv(small_social, 0, hub_mask, epsilon=1e-8)
        # With no hubs, the prime PPV is the full PPV up to truncation.
        assert result.mass == pytest.approx(1.0, abs=1e-3)

    def test_invalid_epsilon(self, fig1_graph, fig1_hub_mask):
        with pytest.raises(ValueError):
            prime_ppv(fig1_graph, A, fig1_hub_mask, epsilon=0.0)


class TestPrimePPVStructure:
    def test_support_sorted_unique(self, small_social_index):
        for hub in small_social_index.hubs.tolist():
            entry = small_social_index.get(hub)
            assert np.all(np.diff(entry.nodes) > 0)
            assert np.all(np.diff(entry.border_hubs) > 0)

    def test_to_dense_and_score_of_agree(self, fig1_graph, fig1_hub_mask):
        result = prime_ppv(fig1_graph, A, fig1_hub_mask, alpha=ALPHA)
        dense = result.to_dense(fig1_graph.num_nodes)
        for node in range(fig1_graph.num_nodes):
            assert dense[node] == pytest.approx(result.score_of(node))

    def test_score_of_missing_is_zero(self, fig1_graph, fig1_hub_mask):
        result = prime_ppv(fig1_graph, E, fig1_hub_mask, alpha=ALPHA)
        # E is dangling: only the trivial tour exists.
        assert result.score_of(A) == 0.0
        assert result.score_of(E) == pytest.approx(ALPHA)

    def test_nbytes_positive(self, fig1_graph, fig1_hub_mask):
        assert prime_ppv(fig1_graph, A, fig1_hub_mask).nbytes > 0

    def test_source_out_of_range(self, fig1_graph, fig1_hub_mask):
        with pytest.raises(ValueError):
            prime_ppv(fig1_graph, 99, fig1_hub_mask)

    def test_wrong_mask_shape(self, fig1_graph):
        with pytest.raises(ValueError):
            prime_ppv(fig1_graph, A, np.zeros(3, dtype=bool))


class TestSingleSourceLockstep:
    """prime_ppv is a wrapper over prime_push_many: the lockstep between
    the scalar and batched kernels is structural, pinned bit-for-bit."""

    def _assert_bitwise_row(self, graph, source, hub_mask, **kwargs):
        from repro.core.prime import prime_push_many

        single = prime_ppv(graph, source, hub_mask, **kwargs)
        scores, border, edges = prime_push_many(
            graph, np.array([source]), hub_mask, **kwargs
        )
        # Exact equality, not allclose: one kernel, one summation order.
        np.testing.assert_array_equal(
            single.to_dense(graph.num_nodes), scores[0]
        )
        dense_border = np.zeros(graph.num_nodes)
        dense_border[single.border_hubs] = single.border_masses
        np.testing.assert_array_equal(dense_border, border[0])
        assert single.edges_touched == int(edges[0])

    def test_fig1_sources_bitwise(self, fig1_graph, fig1_hub_mask):
        for source in (A, D, E, H):
            self._assert_bitwise_row(
                fig1_graph, source, fig1_hub_mask, alpha=ALPHA, epsilon=1e-12
            )

    def test_social_graph_bitwise(self, small_social, small_social_index):
        for source in (0, 57, 200, int(small_social_index.hubs[0])):
            self._assert_bitwise_row(
                small_social, source, small_social_index.hub_mask
            )

    def test_sparse_support_matches_dense_row(self, small_social,
                                              small_social_index):
        result = prime_ppv(small_social, 3, small_social_index.hub_mask)
        assert np.all(result.scores > 0.0)
        assert np.all(np.diff(result.nodes) > 0)
        assert np.all(np.diff(result.border_hubs) > 0)


class TestWorkAccounting:
    def test_edges_touched_positive(self, fig1_graph, fig1_hub_mask):
        result = prime_ppv(fig1_graph, A, fig1_hub_mask, alpha=ALPHA)
        assert result.edges_touched > 0

    def test_more_hubs_less_work(self, small_social):
        from repro.core.hubs import select_hubs

        few = np.zeros(small_social.num_nodes, dtype=bool)
        few[select_hubs(small_social, 10)] = True
        many = np.zeros(small_social.num_nodes, dtype=bool)
        many[select_hubs(small_social, 100)] = True
        source = next(
            q for q in range(small_social.num_nodes) if not many[q]
        )
        work_few = prime_ppv(small_social, source, few).edges_touched
        work_many = prime_ppv(small_social, source, many).edges_touched
        assert work_many <= work_few

    def test_clip_preserves_edges_touched(self, fig1_graph, fig1_hub_mask):
        from repro.core.index import clip_prime_ppv

        raw = prime_ppv(fig1_graph, A, fig1_hub_mask, alpha=ALPHA)
        clipped = clip_prime_ppv(raw, 0.05)
        assert clipped.edges_touched == raw.edges_touched
