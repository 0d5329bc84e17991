"""Tests for the hitting-time generalisation of scheduled approximation.

``scheduled_hitting`` runs every segment through ``prime_push_many`` and
its level loop over arrays; ``TestAgainstOracle`` pins it against the
per-edge dict push and dict level loop it replaced
(``oracles.reference_scheduled_hitting``) and against ``exact_hitting``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import reference_prime_hitting_push, reference_scheduled_hitting

from repro.core import hitting
from repro.core.hitting import exact_hitting, scheduled_hitting
from repro.graph import from_edges
from repro.graph.build import from_weighted_edges
from repro.graph.generators import cycle_graph, path_graph

BETA = 0.85


class TestExactHitting:
    def test_target_is_one(self, cyclic_graph):
        assert exact_hitting(cyclic_graph, 2, 2, BETA) == 1.0

    def test_path_graph_analytic(self):
        # On 0 -> 1 -> 2, f_2(0) = beta^2 exactly.
        graph = path_graph(3)
        assert exact_hitting(graph, 0, 2, BETA) == pytest.approx(BETA**2)
        assert exact_hitting(graph, 1, 2, BETA) == pytest.approx(BETA)

    def test_unreachable_target_zero(self):
        graph = path_graph(3)
        assert exact_hitting(graph, 2, 0, BETA) == pytest.approx(0.0)

    def test_cycle_analytic(self):
        # On a directed 4-cycle, f from distance d is beta^d.
        graph = cycle_graph(4)
        for d in range(1, 4):
            assert exact_hitting(graph, 0, d, BETA) == pytest.approx(BETA**d)

    def test_branching(self):
        # 0 -> {1, 2}, 1 -> 3, 2 -> 3: f_3(0) = beta * beta = beta^2.
        graph = from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        assert exact_hitting(graph, 0, 3, BETA) == pytest.approx(BETA**2)

    def test_invalid_beta(self, cyclic_graph):
        with pytest.raises(ValueError):
            exact_hitting(cyclic_graph, 0, 1, beta=1.0)

    def test_out_of_range(self, cyclic_graph):
        with pytest.raises(ValueError):
            exact_hitting(cyclic_graph, 0, 99)


class TestScheduledHitting:
    def hub_mask(self, graph, hubs):
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[list(hubs)] = True
        return mask

    def test_no_hubs_matches_exact(self, cyclic_graph):
        mask = self.hub_mask(cyclic_graph, [])
        for target in range(cyclic_graph.num_nodes):
            estimate = scheduled_hitting(
                cyclic_graph, 0, target, mask, BETA, epsilon=1e-12
            )
            expected = exact_hitting(cyclic_graph, 0, target, BETA)
            assert estimate.value == pytest.approx(expected, abs=1e-6)

    def test_with_hubs_matches_exact(self, cyclic_graph):
        mask = self.hub_mask(cyclic_graph, [1, 2])
        for query in range(cyclic_graph.num_nodes):
            estimate = scheduled_hitting(
                cyclic_graph, query, 3, mask, BETA, max_levels=80, epsilon=1e-12
            )
            expected = exact_hitting(cyclic_graph, query, 3, BETA)
            assert estimate.value == pytest.approx(expected, abs=1e-6)

    def test_fig1_graph_with_hubs(self, fig1_graph, fig1_hub_mask):
        for target in (2, 4):
            estimate = scheduled_hitting(
                fig1_graph, 0, target, fig1_hub_mask, BETA,
                max_levels=30, epsilon=1e-12,
            )
            expected = exact_hitting(fig1_graph, 0, target, BETA)
            assert estimate.value == pytest.approx(expected, abs=1e-9)

    def test_history_monotone(self, fig1_graph, fig1_hub_mask):
        estimate = scheduled_hitting(
            fig1_graph, 0, 2, fig1_hub_mask, BETA, epsilon=1e-12
        )
        assert all(
            b >= a - 1e-15 for a, b in zip(estimate.history, estimate.history[1:])
        )

    def test_bracket_contains_exact(self, fig1_graph, fig1_hub_mask):
        # value <= exact <= value + remaining_mass after any level budget.
        exact = exact_hitting(fig1_graph, 0, 2, BETA)
        for levels in range(4):
            estimate = scheduled_hitting(
                fig1_graph, 0, 2, fig1_hub_mask, BETA,
                max_levels=levels, epsilon=1e-12,
            )
            assert estimate.value <= exact + 1e-9
            assert estimate.value + estimate.remaining_mass >= exact - 1e-9

    def test_query_equals_target(self, fig1_graph, fig1_hub_mask):
        estimate = scheduled_hitting(fig1_graph, 2, 2, fig1_hub_mask, BETA)
        assert estimate.value == pytest.approx(1.0)

    def test_wrong_mask_shape(self, fig1_graph):
        with pytest.raises(ValueError):
            scheduled_hitting(fig1_graph, 0, 2, np.zeros(3, dtype=bool))

    def test_first_passage_not_full_reachability(self):
        # 0 -> 1 -> 2 -> 1: tours reaching 1 a second time must not count.
        graph = from_edges([(0, 1), (1, 2), (2, 1)])
        mask = np.zeros(3, dtype=bool)
        estimate = scheduled_hitting(graph, 0, 1, mask, BETA, epsilon=1e-12)
        # Only the direct step counts: f_1(0) = beta.
        assert estimate.value == pytest.approx(BETA, abs=1e-9)


@st.composite
def hitting_cases(draw):
    """A small digraph — weighted or not, dangling nodes and cycles both
    likely — with a hub set, a (query, target) pair and cut-offs coarse
    enough that the push drops mass and the level loop prunes."""
    n = draw(st.integers(2, 9))
    edge_pool = [(u, v) for u in range(n) for v in range(n)]  # self-loops too
    edges = draw(st.lists(st.sampled_from(edge_pool), max_size=3 * n))
    if draw(st.booleans()):  # a backbone cycle: no dangling node, deep levels
        edges += [(u, (u + 1) % n) for u in range(n)]
    if draw(st.booleans()):
        weights = draw(
            st.lists(st.floats(0.1, 10.0), min_size=len(edges), max_size=len(edges))
        )
        graph = from_weighted_edges(
            [(u, v, w) for (u, v), w in zip(edges, weights)], num_nodes=n
        )
    else:
        graph = from_edges(edges, num_nodes=n)
    node = st.integers(0, n - 1)
    mask = _mask(n, draw(st.lists(node, min_size=1, max_size=n)))
    return graph, mask, draw(node), draw(node), dict(
        beta=draw(st.sampled_from([0.3, 0.6, 0.85])),
        # Cut-offs no product of betas and degree fractions lands on: a
        # mass *at* a threshold is dropped or kept by its last bit, which
        # any reassociation of the sums (or 1 - (1 - 0.3) != 0.3) flips.
        epsilon=draw(st.sampled_from([0.2137, 0.03119, 1.3171e-3, 1.7093e-6, 1e-12])),
        delta=draw(st.sampled_from([0.0, 3.1417e-3, 0.04321])),
        max_levels=draw(st.integers(0, 12)),
    )


def assert_matches_oracle(graph, mask, query, target, **kwargs):
    """The pinned quantities of one call: the oracle's to 1e-12, the
    level count exactly, the bracket around ``exact_hitting``."""
    estimate = scheduled_hitting(graph, query, target, mask, **kwargs)
    oracle = reference_scheduled_hitting(graph, query, target, mask, **kwargs)
    assert estimate.iterations == oracle.iterations
    assert len(estimate.history) == len(oracle.history)
    assert estimate.value == pytest.approx(oracle.value, abs=1e-12, rel=0)
    assert estimate.remaining_mass == pytest.approx(
        oracle.remaining_mass, abs=1e-12, rel=0
    )
    assert estimate.history == pytest.approx(oracle.history, abs=1e-12, rel=0)
    assert estimate.history[-1] == estimate.value
    exact = exact_hitting(
        graph, query, target, kwargs.get("beta", BETA), tol=1e-15
    )
    assert estimate.value <= exact + 1e-12
    assert exact <= estimate.value + estimate.remaining_mass + 1e-12
    return estimate


def _mask(num_nodes, hubs):
    mask = np.zeros(num_nodes, dtype=bool)
    mask[list(hubs)] = True
    return mask


def _bytes(estimate):
    return np.array(
        [estimate.value, estimate.remaining_mass, *estimate.history]
    ).tobytes()


class TestAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(hitting_cases())
    def test_random_graphs(self, case):
        graph, mask, query, target, kwargs = case
        assert_matches_oracle(graph, mask, query, target, **kwargs)

    @given(hitting_cases())
    def test_segment_is_the_dict_push(self, case):
        # One segment, piece by piece — dropped mass included, which the
        # array code derives from conservation instead of counting.
        graph, mask, source, target, kwargs = case
        assume(source != target)
        barrier = mask.copy()
        barrier[target] = True
        beta, epsilon = kwargs["beta"], kwargs["epsilon"]
        absorbed, dropped, hubs, masses = hitting._prime_segment(
            graph, source, target, barrier, beta, epsilon
        )
        ref_absorbed, ref_border, ref_dropped = reference_prime_hitting_push(
            graph, source, target, mask, beta, epsilon
        )
        assert absorbed == pytest.approx(ref_absorbed, abs=1e-12, rel=0)
        assert dropped == pytest.approx(ref_dropped, abs=1e-12, rel=0)
        assert hubs.tolist() == sorted(ref_border)
        assert masses == pytest.approx(
            [ref_border[hub] for hub in sorted(ref_border)], abs=1e-12, rel=0
        )

    @pytest.mark.parametrize("epsilon", [0.05, 1e-9])
    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    def test_social_graph(self, small_social, small_social_index, epsilon, delta):
        estimate = assert_matches_oracle(
            small_social, small_social_index.hub_mask, 11, 3,
            epsilon=epsilon, delta=delta,
        )
        assert estimate.remaining_mass > 0.0

    def test_query_equals_target(self, fig1_graph, fig1_hub_mask):
        for query in (2, 3):  # a plain node, a hub
            estimate = assert_matches_oracle(fig1_graph, fig1_hub_mask, query, query)
            assert (estimate.value, estimate.remaining_mass) == (1.0, 0.0)
            assert (estimate.iterations, estimate.history) == (0, [1.0])

    def test_target_is_a_hub(self, fig1_graph, fig1_hub_mask):
        estimate = assert_matches_oracle(
            fig1_graph, fig1_hub_mask, 0, 3, epsilon=1e-12
        )
        assert estimate.value > 0.0

    def test_query_is_a_hub_whose_mass_cycles_back(self, cyclic_graph):
        # The unit at hub 0 expands; what returns to 0 is border, and the
        # next level splices 0's own segment.
        estimate = assert_matches_oracle(
            cyclic_graph, _mask(4, [0]), 0, 2, epsilon=1e-12, max_levels=40
        )
        assert estimate.iterations > 1

    def test_unreachable_target(self):
        estimate = assert_matches_oracle(
            path_graph(4), _mask(4, [2]), 1, 0, epsilon=1e-12
        )
        assert estimate.value == 0.0
        assert estimate.remaining_mass == pytest.approx(BETA**2, abs=1e-12)

    def test_hub_with_an_empty_border(self):
        # Hub 1 only leads to the dangling node 2: its segment absorbs
        # nothing, reaches no hub and drops everything it forwards.
        graph = from_edges([(0, 1), (0, 3), (1, 2)], num_nodes=4)
        estimate = assert_matches_oracle(graph, _mask(4, [1]), 0, 3, epsilon=1e-12)
        assert estimate.iterations == 1
        assert estimate.value == pytest.approx(BETA / 2, abs=1e-12)
        assert estimate.remaining_mass == pytest.approx(BETA**2 / 2, abs=1e-12)

    def test_no_hubs_at_all(self, cyclic_graph):
        estimate = assert_matches_oracle(
            cyclic_graph, _mask(4, []), 0, 2, epsilon=1e-3
        )
        assert estimate.iterations == 0 and len(estimate.history) == 1
        assert estimate.remaining_mass > 0.0  # all of it dropped by the push

    def test_out_of_range_and_bad_beta(self, fig1_graph, fig1_hub_mask):
        for query, target in ((0, 8), (8, 0), (0, -1)):
            with pytest.raises(ValueError, match="out of range"):
                scheduled_hitting(fig1_graph, query, target, fig1_hub_mask)
        with pytest.raises(ValueError, match="beta"):
            scheduled_hitting(fig1_graph, 0, 2, fig1_hub_mask, beta=1.0)

    def test_shared_cache_changes_no_bit(self, small_social, small_social_index):
        mask = small_social_index.hub_mask
        cache: dict = {}
        for query in (3, 17, 42, 3):
            shared = scheduled_hitting(small_social, query, 7, mask, push_cache=cache)
            alone = scheduled_hitting(small_social, query, 7, mask)
            assert _bytes(shared) == _bytes(alone)
        assert cache and all(mask[hub] for hub in cache)
