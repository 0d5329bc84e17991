"""Unit and convergence tests for the online engine (Algorithm 2)."""

import time

import numpy as np
import pytest
from oracles import reference_query, scalar_splice_rounds

from repro import (
    FastPPV,
    StopAfterIterations,
    StopAfterTime,
    StopAtL1Error,
    any_of,
    select_hubs,
    social_graph,
)
from repro.core.exact import exact_ppv, exact_ppv_dense_solve
from repro.core.index import build_index
from repro.graph.build import GraphBuilder
from repro.graph.generators import erdos_renyi_graph
from repro.core.query import QueryState
from repro.core.reachability import brute_force_increment
from tests.conftest import A, ALPHA, FIG3_HUBS


@pytest.fixture(scope="module")
def fig1_engine(fig1_graph):
    index = build_index(fig1_graph, FIG3_HUBS, alpha=ALPHA, epsilon=1e-12, clip=0.0)
    return FastPPV(fig1_graph, index, delta=0.0)


@pytest.fixture(scope="module")
def cyclic_engine(cyclic_graph):
    index = build_index(cyclic_graph, [0, 2], alpha=ALPHA, epsilon=1e-14, clip=0.0)
    return FastPPV(cyclic_graph, index, delta=0.0)


class TestConvergence:
    def test_exact_on_acyclic_example(self, fig1_engine, fig1_graph):
        result = fig1_engine.query(A, stop=StopAfterIterations(10))
        expected = exact_ppv(fig1_graph, A, alpha=ALPHA)
        np.testing.assert_allclose(result.scores, expected, atol=1e-12)

    def test_converges_on_cyclic_graph(self, cyclic_engine, cyclic_graph):
        for query in range(cyclic_graph.num_nodes):
            result = cyclic_engine.query(query, stop=StopAfterIterations(80))
            expected = exact_ppv_dense_solve(cyclic_graph, query, alpha=ALPHA)
            np.testing.assert_allclose(result.scores, expected, atol=1e-8)

    def test_query_at_hub_node(self, cyclic_engine, cyclic_graph):
        # Query is itself a hub: iteration 0 loads from the index and the
        # trivial-tour correction must keep the result exact.
        result = cyclic_engine.query(0, stop=StopAfterIterations(80))
        expected = exact_ppv_dense_solve(cyclic_graph, 0, alpha=ALPHA)
        np.testing.assert_allclose(result.scores, expected, atol=1e-8)

    def test_increment_matches_brute_force(self, fig1_engine, fig1_graph):
        previous = np.zeros(fig1_graph.num_nodes)
        for level in range(3):
            result = fig1_engine.query(A, stop=StopAfterIterations(level))
            increment = result.scores - previous
            expected = brute_force_increment(
                fig1_graph, A, set(FIG3_HUBS), level, max_length=12, alpha=ALPHA
            )
            np.testing.assert_allclose(increment, expected, atol=1e-12)
            previous = result.scores

    def test_social_graph_convergence(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index, delta=0.0)
        expected = exact_ppv(small_social, 11, alpha=small_social_index.alpha)
        result = engine.query(11, stop=StopAfterIterations(30))
        assert np.abs(result.scores - expected).sum() < 0.02


class TestTheorem1Monotonicity:
    def test_scores_monotone_in_iterations(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        previous = None
        for eta in range(4):
            scores = engine.query(7, stop=StopAfterIterations(eta)).scores
            if previous is not None:
                assert np.all(scores >= previous - 1e-15)
            previous = scores

    def test_never_exceeds_exact(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index, delta=0.0)
        exact = exact_ppv(small_social, 3, alpha=small_social_index.alpha)
        result = engine.query(3, stop=StopAfterIterations(5))
        assert np.all(result.scores <= exact + 1e-9)


class TestErrorAccounting:
    def test_error_history_decreasing(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        result = engine.query(5, stop=StopAfterIterations(4))
        history = result.error_history
        assert len(history) == result.iterations + 1
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_error_equals_one_minus_mass(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        result = engine.query(5, stop=StopAfterIterations(2))
        assert result.l1_error == pytest.approx(1.0 - result.scores.sum(), abs=1e-12)

    def test_error_matches_true_l1_error(self, small_social, small_social_index):
        # On a dangling-free graph Eq. 6 equals the true L1 error
        # (up to epsilon truncation and delta/clip losses).
        engine = FastPPV(small_social, small_social_index, delta=0.0)
        exact = exact_ppv(small_social, 9, alpha=small_social_index.alpha)
        result = engine.query(9, stop=StopAfterIterations(3))
        true_error = np.abs(exact - result.scores).sum()
        assert result.l1_error == pytest.approx(true_error, abs=1e-2)


class TestStoppingConditions:
    def test_stop_after_iterations(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        assert engine.query(2, stop=StopAfterIterations(0)).iterations == 0
        assert engine.query(2, stop=StopAfterIterations(2)).iterations == 2

    def test_stop_at_l1_error(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index, delta=0.0)
        result = engine.query(2, stop=StopAtL1Error(0.3))
        assert result.l1_error <= 0.3

    def test_stop_after_time_zero_stops_immediately(
        self, small_social, small_social_index
    ):
        engine = FastPPV(small_social, small_social_index)
        result = engine.query(2, stop=StopAfterTime(0.0))
        assert result.iterations == 0

    def test_any_of_composition(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        stop = any_of(StopAtL1Error(1e-9), StopAfterIterations(1))
        result = engine.query(2, stop=stop)
        assert result.iterations <= 1

    def test_default_stop_is_two_iterations(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        assert engine.query(2).iterations == 2

    def test_max_iterations_cap(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index, max_iterations=3)
        result = engine.query(2, stop=StopAtL1Error(0.0))
        assert result.iterations <= 3

    def test_frontier_exhaustion_stops(self, fig1_engine):
        # The acyclic example has maximal hub length 2; asking for 50
        # iterations must terminate after the frontier empties.
        result = fig1_engine.query(A, stop=StopAfterIterations(50))
        assert result.iterations <= 4


class TestDeltaThreshold:
    def test_delta_prunes_hubs(self, small_social, small_social_index):
        eager = FastPPV(small_social, small_social_index, delta=0.0)
        lazy = FastPPV(small_social, small_social_index, delta=0.05)
        q = 13
        assert (
            lazy.query(q, stop=StopAfterIterations(3)).hubs_expanded
            <= eager.query(q, stop=StopAfterIterations(3)).hubs_expanded
        )

    def test_delta_only_reduces_mass(self, small_social, small_social_index):
        eager = FastPPV(small_social, small_social_index, delta=0.0)
        lazy = FastPPV(small_social, small_social_index, delta=0.05)
        q = 13
        assert (
            lazy.query(q, stop=StopAfterIterations(3)).scores.sum()
            <= eager.query(q, stop=StopAfterIterations(3)).scores.sum() + 1e-12
        )

    def test_negative_delta_rejected(self, small_social, small_social_index):
        with pytest.raises(ValueError):
            FastPPV(small_social, small_social_index, delta=-0.1)


class TestQueryResult:
    def test_top_k(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        result = engine.query(4)
        top = result.top_k(10)
        assert top.size == 10
        assert top[0] == 4  # the query node dominates its own PPV
        scores = result.scores[top]
        assert np.all(np.diff(scores) <= 1e-15)

    def test_top_k_exclude_query(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        top = engine.query(4).top_k(10, exclude_query=True)
        assert 4 not in top.tolist()

    def test_on_iteration_callback(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        states: list[QueryState] = []
        engine.query(6, stop=StopAfterIterations(2), on_iteration=states.append)
        assert len(states) == 3  # iteration 0, 1, 2
        assert [s.iteration for s in states] == [0, 1, 2]
        assert states[-1].l1_error <= states[0].l1_error

    def test_seconds_recorded(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        assert engine.query(6).seconds > 0.0


class TestValidation:
    def test_query_out_of_range(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        with pytest.raises(ValueError):
            engine.query(small_social.num_nodes)

    def test_mismatched_index_rejected(self, small_social, fig1_graph):
        index = build_index(fig1_graph, FIG3_HUBS)
        with pytest.raises(ValueError, match="different graph"):
            FastPPV(small_social, index)


class TestScalarSpliceRounds:
    """The one scalar Algorithm-2 loop, parameterised by ``fetch``."""

    def test_fetches_exactly_the_gated_hubs(self, small_social,
                                            small_social_index):
        index = small_social_index
        hub = int(index.hubs[0])
        base = index.get(hub)
        delta = 0.005
        fetched = []

        def fetch(h):
            fetched.append(h)
            return index.get(h)

        estimate = base.to_dense(small_social.num_nodes)
        frontier = dict(
            zip(base.border_hubs.tolist(), base.border_masses.tolist())
        )
        gated = [h for h, m in frontier.items() if index.alpha * m > delta]
        iterations, errors, expanded, work = scalar_splice_rounds(
            estimate, frontier, StopAfterIterations(1), index.alpha, delta,
            64, fetch, time.perf_counter(),
        )
        assert iterations == 1 and len(errors) == 2
        assert fetched == gated  # frontier order, one fetch per gated hub
        assert expanded == len(gated)
        assert work == sum(
            index.get(h).nodes.size + index.get(h).border_hubs.size
            for h in gated
        )
        # FastPPV.query equals this loop over index.get, bit for bit.
        reference = FastPPV(small_social, index, delta=delta).query(
            hub, stop=StopAfterIterations(1)
        )
        np.testing.assert_array_equal(estimate, reference.scores)
        assert errors == reference.error_history


def _with_sinks(graph, extra: int = 3):
    """``graph`` plus ``extra`` zero-out-degree nodes fed by node 0."""
    builder = GraphBuilder(num_nodes=graph.num_nodes + extra)
    for src in range(graph.num_nodes):
        for dst in graph.out_neighbors(src).tolist():
            builder.add_edge(src, dst)
    for sink in range(graph.num_nodes, graph.num_nodes + extra):
        builder.add_edge(0, sink)
    return builder.build()


def _setup(kind: str):
    """A graph with zero-out-degree nodes, its index, and seeded queries:
    hubs, pushed non-hubs and every sink."""
    if kind == "social":
        graph = _with_sinks(social_graph(num_nodes=160, edges_per_node=3, seed=4))
    else:
        graph = _with_sinks(erdos_renyi_graph(150, 2.0 / 150, seed=8))
    index = build_index(graph, select_hubs(graph, num_hubs=18))
    sinks = np.nonzero(np.diff(graph.indptr) == 0)[0]
    non_hubs = np.nonzero(~index.hub_mask)[0]
    rng = np.random.default_rng(11)
    queries = (
        index.hubs[:3].tolist()
        + rng.choice(non_hubs, size=5, replace=False).tolist()
        + sinks.tolist()
    )
    return graph, index, queries


class _CountingStop:
    """A stateful user condition: stops on its ``limit``-th consultation,
    logging every state it is shown."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.seen: list = []

    def should_stop(self, state) -> bool:
        self.seen.append(_observed(state))
        return len(self.seen) >= self.limit


def _observed(state):
    """Everything of a ``QueryState`` but the clock, as comparable values."""
    return (
        state.iteration,
        state.l1_error,
        state.frontier_size,
        state.scores.tobytes(),
    )


STOP_FACTORIES = [
    lambda: StopAfterIterations(0),
    lambda: StopAfterIterations(2),
    lambda: StopAfterIterations(6),
    lambda: StopAtL1Error(0.02),
    lambda: any_of(StopAfterIterations(3), StopAtL1Error(0.05)),
    lambda: StopAfterTime(1e9),
    lambda: _CountingStop(3),
]



def _outcome(run, query, stop):
    """A query's every field, the states ``on_iteration`` saw and, for a
    stateful condition, the states it was consulted with."""
    states = []
    result = run(
        query, stop=stop, on_iteration=lambda s: states.append(_observed(s))
    )
    return (
        result.query,
        result.scores.tobytes(),
        result.iterations,
        result.error_history,
        result.hubs_expanded,
        result.work_units,
        states,
        getattr(stop, "seen", None),
    )


class TestBatchOfOneIsTheReference:
    """``FastPPV.query`` — the batch of one — is the scalar statement of
    Algorithm 2 (``oracles.reference_query``) in every field, bit for
    bit.  (The ``native`` id is the compiled kernels' row from when a
    numpy row ran beside it.)"""

    @pytest.mark.parametrize("kernels", ["native"])
    @pytest.mark.parametrize("kind", ["social", "er"])
    def test_every_field_matches(self, kernels, kind):
        graph, index, queries = _setup(kind)
        checked = 0
        for delta in (0.0, 1e-4, 5e-3):
            for max_iterations in (64, 4):
                engine = FastPPV(
                    graph, index, delta=delta, max_iterations=max_iterations
                )
                for make_stop in STOP_FACTORIES:
                    for query in queries:
                        got = _outcome(engine.query, query, make_stop())
                        want = _outcome(
                            lambda *a, **k: reference_query(engine, *a, **k),
                            query,
                            make_stop(),
                        )
                        assert got == want, (delta, max_iterations, query)
                        checked += 1
        assert checked == 6 * len(STOP_FACTORIES) * len(queries)

    def test_caps_and_stateful_stops_take_effect(self):
        # The cases above are not vacuous: the cap binds, the stateful
        # condition ends a query early, and sinks never iterate.
        graph, index, queries = _setup("social")
        engine = FastPPV(graph, index, delta=0.0, max_iterations=4)
        capped = engine.query(queries[3], stop=StopAfterTime(1e9))
        assert capped.iterations == 4
        counted = engine.query(queries[3], stop=_CountingStop(3))
        assert counted.iterations == 2
        sink = engine.query(queries[-1], stop=StopAfterIterations(5))
        assert sink.iterations == 0 and sink.work_units == 0
