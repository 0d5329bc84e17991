"""Batched certified top-k: property-based and seeded equivalence with the
scalar path, plus the vectorised-stop and wiring contracts."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import ReferenceFastPPV

from repro import (
    FastPPV,
    StopAfterIterations,
    StopAfterTime,
    StopAtL1Error,
    QueryResult,
    StopWhenCertified,
    any_of,
    build_index,
    query_top_k,
    select_hubs,
    social_graph,
)
from repro.core.query import QueryState
from repro.core.topk import _certificate_holds, _certificates_hold_many
from repro.graph.generators import erdos_renyi_graph

DELTAS = (0.0, 1e-4, 5e-3)


@functools.lru_cache(maxsize=None)
def _setup(kind: str, graph_seed: int, delta: float):
    """Graph + index + scalar/batch engine pair (cached across examples)."""
    if kind == "er":
        graph = erdos_renyi_graph(180, 3.0 / 180, seed=graph_seed)
    else:
        graph = social_graph(num_nodes=200, edges_per_node=3, seed=graph_seed)
    hubs = select_hubs(graph, num_hubs=20)
    # clip=0 keeps full prime PPVs so tight certificates stay reachable.
    index = build_index(graph, hubs, clip=0.0)
    scalar = ReferenceFastPPV(graph, index, delta=delta)
    batch = FastPPV(graph, index, delta=delta)
    return graph, index, scalar, batch


def assert_topk_equivalent(scalar_result: QueryResult,
                           batch_result: QueryResult):
    assert batch_result.certified == scalar_result.certified
    assert batch_result.iterations == scalar_result.iterations
    assert batch_result.l1_error == scalar_result.l1_error
    np.testing.assert_array_equal(batch_result.scores, scalar_result.scores)
    if scalar_result.certified:
        # Certified means provably *the* exact top-k set, so both paths
        # must name the same nodes.
        assert set(batch_result.top.tolist()) == set(
            scalar_result.top.tolist()
        )


class TestPropertyBasedEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kind=st.sampled_from(["er", "social"]),
        graph_seed=st.integers(0, 2),
        delta=st.sampled_from(DELTAS),
        k=st.integers(1, 12),
        data=st.data(),
    )
    def test_batch_matches_scalar(self, kind, graph_seed, delta, k, data):
        graph, index, scalar, batch = _setup(kind, graph_seed, delta)
        queries = data.draw(
            st.lists(
                st.integers(0, graph.num_nodes - 1), min_size=1, max_size=10
            )
        )
        if data.draw(st.booleans()):
            # Hub queries take the index-lookup branch of iteration 0.
            queries[0] = int(index.hubs[0])
        max_iterations = data.draw(st.integers(1, 24))
        batch_results = batch.query_top_k_many(
            queries, k=k, max_iterations=max_iterations
        )
        assert len(batch_results) == len(queries)
        for query, batch_result in zip(queries, batch_results):
            scalar_result = query_top_k(
                scalar, query, k=k, max_iterations=max_iterations
            )
            assert_topk_equivalent(scalar_result, batch_result)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 6),
        n=st.integers(2, 30),
        k=st.integers(1, 32),
        seed=st.integers(0, 10**6),
    )
    def test_vectorised_certificate_matches_scalar_rule(self, rows, n, k, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random((rows, n))
        # Inject exact ties sometimes: the rule compares values, so ties
        # must not depend on which node carries them.
        if n >= 4:
            scores[:, 1] = scores[:, 0]
        phis = rng.random(rows) * 0.5
        vector = _certificates_hold_many(scores, k, phis)
        for row in range(rows):
            assert vector[row] == _certificate_holds(
                scores[row], k, float(phis[row])
            )


class TestSeededEquivalence:
    """Deterministic non-hypothesis fallback across batch compositions."""

    @pytest.mark.parametrize("graph_seed,k", [(0, 1), (1, 5), (2, 10)])
    def test_mixed_batches(self, graph_seed, k):
        graph, index, scalar, batch = _setup("social", graph_seed, 0.0)
        rng = np.random.default_rng(graph_seed + 77)
        queries = rng.choice(graph.num_nodes, size=12, replace=False).tolist()
        queries[0] = int(index.hubs[0])
        queries[1] = queries[2]  # duplicate ids share iteration-0 work
        batch_results = batch.query_top_k_many(queries, k=k, max_iterations=40)
        certified = 0
        for query, batch_result in zip(queries, batch_results):
            scalar_result = query_top_k(scalar, query, k=k, max_iterations=40)
            assert_topk_equivalent(scalar_result, batch_result)
            certified += batch_result.certified
        assert certified > 0  # the property must bite somewhere

    def test_retirement_spreads_iterations(self):
        # Queries must retire individually: a batch's iteration counts are
        # per-query, not the max of the batch.
        graph, index, scalar, batch = _setup("social", 0, 0.0)
        results = batch.query_top_k_many(
            list(range(0, 60, 5)), k=5, max_iterations=40
        )
        iteration_counts = {r.iterations for r in results if r.certified}
        assert len(iteration_counts) > 1


class TestStopWhenCertified:
    def test_should_stop_many_matches_should_stop(self):
        rng = np.random.default_rng(3)
        scores = rng.random((5, 40))
        errors = rng.random(5) * 0.2
        iterations = np.array([0, 1, 7, 32, 40], dtype=np.int64)
        stop = StopWhenCertified(k=4, max_iterations=32)
        mask = stop.should_stop_many(iterations, errors, scores)
        for row in range(5):
            state = QueryState(
                iteration=int(iterations[row]),
                l1_error=float(errors[row]),
                elapsed_seconds=0.0,
                frontier_size=1,
                scores=scores[row],
            )
            assert bool(mask[row]) == stop.should_stop(state)

    @pytest.mark.parametrize(
        "stop",
        [
            StopAfterIterations(0),
            StopAfterIterations(7),
            StopAtL1Error(0.1),
            StopAtL1Error(0.0),
            any_of(StopAtL1Error(0.05), StopAfterIterations(32)),
            any_of(StopWhenCertified(k=4, max_iterations=40), StopAtL1Error(0.02)),
            any_of(any_of(StopAfterIterations(1)), StopAtL1Error(0.15)),
        ],
        ids=repr,
    )
    def test_the_other_should_stop_many_match_should_stop(self, stop):
        rng = np.random.default_rng(5)
        scores = rng.random((9, 40))
        errors = np.concatenate((rng.random(6) * 0.2, [0.0, 0.1, 0.05]))
        iterations = np.array([0, 1, 7, 32, 40, 6, 0, 3, 1], dtype=np.int64)
        mask = stop.should_stop_many(iterations, errors, scores)
        assert mask.dtype == np.bool_ and mask.shape == (9,)
        for row in range(9):
            state = QueryState(
                iteration=int(iterations[row]),
                l1_error=float(errors[row]),
                elapsed_seconds=0.0,
                frontier_size=1,
                scores=scores[row],
            )
            assert bool(mask[row]) == stop.should_stop(state)

    def test_any_of_has_no_should_stop_many_when_a_member_lacks_one(self):
        assert any_of(StopAtL1Error(0.1), StopAfterTime(1.0)).should_stop_many is None
        assert getattr(StopAfterTime(1.0), "should_stop_many", None) is None

    def test_budget_exhaustion_stops(self):
        stop = StopWhenCertified(k=3, max_iterations=2)
        mask = stop.should_stop_many(
            np.array([2]), np.array([1.0]), np.ones((1, 10))
        )
        assert bool(mask[0])

    def test_missing_scores_defers(self):
        stop = StopWhenCertified(k=3, max_iterations=10)
        state = QueryState(
            iteration=1, l1_error=0.5, elapsed_seconds=0.0, frontier_size=1
        )
        assert not stop.should_stop(state)


class TestWiring:
    def test_batch_top_k_matches_scalar_reference(self):
        graph, index, scalar, batch = _setup("social", 1, 0.0)
        results = batch.query_top_k_many([3, 9, 9], k=4, max_iterations=32)
        assert all(isinstance(r, QueryResult) for r in results)
        assert [r.top.size for r in results] == [4, 4, 4]
        reference = query_top_k(scalar, 3, k=4, max_iterations=32)
        assert results[0].iterations == reference.iterations
        assert results[0].certified == reference.certified

    def test_top_k_and_stop_are_exclusive(self):
        from repro.serving import QuerySpec

        with pytest.raises(ValueError, match="not both"):
            QuerySpec(3, stop=StopAfterIterations(2), top_k=4)

    def test_invalid_k_rejected(self):
        graph, index, scalar, batch = _setup("social", 1, 0.0)
        with pytest.raises(ValueError):
            batch.query_top_k_many([3], k=0)

    def test_uncertified_when_budget_too_small(self):
        graph, index, scalar, batch = _setup("social", 2, 0.0)
        # A tiny budget on a non-hub query cannot certify unless the gap
        # is already huge at iteration 0; pick a query where it is not.
        for query in range(graph.num_nodes):
            scalar_result = query_top_k(scalar, query, k=5, max_iterations=0)
            if not scalar_result.certified:
                (batch_result,) = batch.query_top_k_many(
                    [query], k=5, max_iterations=0
                )
                assert not batch_result.certified
                assert batch_result.iterations == 0
                break
        else:
            pytest.skip("every query certifies at iteration 0")
