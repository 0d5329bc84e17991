"""Online incremental query processing (Algorithm 2, Theorem 4).

The engine estimates a PPV partition by partition: iteration 0 is the
query's own prime PPV (``T^0``); iteration ``i`` splices the prime PPVs of
the hubs on the current frontier into the estimate, covering exactly the
tours of hub length ``i``.  Because every increment only *adds*
probability mass, the running L1 error is ``1 - ||estimate||_1`` (Eq. 6)
and can gate a user-chosen stopping condition at query time — the paper's
"accuracy-aware" property.

Splice bookkeeping (the Theorem 4 recursion) works on **arrival masses**:
``frontier[h]`` holds the probability of reaching ``h`` through tours of
hub length ``i - 1`` *without stopping*.  Expanding ``h`` adds
``frontier[h] * r^0_h`` to the increment and feeds
``frontier[h] * border_mass_h`` into the next frontier.  This form is
equivalent to Eq. 12's ``(1/alpha) r^{i-1}(h) * r^0_h`` but excludes the
zero-length trivial tour inside ``r^0_h(h)`` that Eq. 12, read literally,
would double-count (see the module docstring of :mod:`repro.core.prime`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.core.index import PPVIndex
from repro.core.prime import PrimePPV, prime_ppv
from repro.metrics.ranking import top_k_nodes

DEFAULT_DELTA = 0.005
"""Border-hub expansion threshold of Algorithm 2, line 9 (Sect. 5.2)."""


@dataclass(frozen=True)
class QueryState:
    """What a stopping condition can look at after each iteration.

    ``scores`` is the live estimate (a read view, not a copy) so that
    content-aware conditions — e.g. the certified top-k of
    :mod:`repro.core.topk` — can run in a single incremental pass.
    """

    iteration: int
    l1_error: float
    elapsed_seconds: float
    frontier_size: int
    scores: "np.ndarray | None" = None


class StoppingCondition(Protocol):
    """Decides whether to run another iteration (Sect. 5.2, input ``S``)."""

    def should_stop(self, state: QueryState) -> bool:
        """Return ``True`` to stop *before* the next iteration runs."""
        ...


@dataclass(frozen=True)
class StopAfterIterations:
    """Run exactly ``eta`` incremental iterations beyond iteration 0.

    ``eta = 0`` returns the bare prime PPV of the query; the paper's
    default is ``eta = 2``.
    """

    eta: int

    def should_stop(self, state: QueryState) -> bool:
        return state.iteration >= self.eta


@dataclass(frozen=True)
class StopAtL1Error:
    """Stop once the query-time L1 error (Eq. 6) is below ``target``."""

    target: float

    def should_stop(self, state: QueryState) -> bool:
        return state.l1_error <= self.target


@dataclass(frozen=True)
class StopAfterTime:
    """Stop once ``seconds`` of wall-clock time have elapsed."""

    seconds: float

    def should_stop(self, state: QueryState) -> bool:
        return state.elapsed_seconds >= self.seconds


@dataclass(frozen=True)
class _AnyOf:
    conditions: tuple[StoppingCondition, ...]

    def should_stop(self, state: QueryState) -> bool:
        return any(c.should_stop(state) for c in self.conditions)


def any_of(*conditions: StoppingCondition) -> StoppingCondition:
    """Stop as soon as any of the given conditions stops.

    E.g. ``any_of(StopAtL1Error(0.01), StopAfterTime(0.05))`` reproduces
    "accuracy requirement or time limit, whichever first".
    """
    return _AnyOf(tuple(conditions))


@dataclass
class QueryResult:
    """Outcome of one FastPPV query.

    Attributes
    ----------
    query:
        The query node.
    scores:
        Dense estimated PPV (length ``n``).  Monotonically below the exact
        PPV entry-wise (Theorem 1).
    iterations:
        Number of incremental iterations performed (0 = prime PPV only).
    error_history:
        Query-time L1 error after iteration 0, 1, ..., ``iterations``
        (Eq. 6: ``1 - ||estimate||_1``).
    hubs_expanded:
        Total prime PPVs spliced across all iterations.
    seconds:
        Wall-clock query time.
    work_units:
        Scale-independent work: edge traversals of the iteration-0 prime
        push plus index entries touched by splices.  Reported alongside
        wall-clock time because at our reduced graph scale constant
        factors (numpy batch kernels) can dominate milliseconds.
    """

    query: int
    scores: np.ndarray
    iterations: int
    error_history: list[float] = field(default_factory=list)
    hubs_expanded: int = 0
    seconds: float = 0.0
    work_units: int = 0

    @property
    def l1_error(self) -> float:
        """Query-time L1 error of the final estimate."""
        return self.error_history[-1]

    def top_k(self, k: int = 10, exclude_query: bool = False) -> np.ndarray:
        """Node ids of the ``k`` highest scores, best first.

        Ties break by node id; ``exclude_query`` drops the query node
        itself (useful for recommendation scenarios).
        """
        scores = self.scores
        if exclude_query:
            scores = scores.copy()
            scores[self.query] = -np.inf
        return top_k_nodes(scores, k)


def scalar_splice_rounds(
    estimate: np.ndarray,
    frontier: dict[int, float],
    stop: StoppingCondition,
    alpha: float,
    delta: float,
    max_iterations: int,
    fetch: Callable[[int], PrimePPV],
    started: float,
    on_iteration: Callable[[QueryState], None] | None = None,
) -> tuple[int, list[float], int, int]:
    """Algorithm 2's incremental rounds for one query, hub by hub.

    The scalar statement of the algorithm: ``estimate`` (iteration 0
    already applied) is mutated in place, ``frontier`` maps border hubs
    to arrival masses, and ``fetch`` resolves a hub to its prime PPV —
    ``index.get`` for :class:`FastPPV`, a store's ``get`` when the disk
    equivalence suite runs this loop as the bitwise oracle of
    :func:`repro.core.splice.splice_rounds_exact`.  ``on_iteration`` is
    invoked with the :class:`QueryState` once per executed iteration,
    iteration 0 included.

    Returns ``(iterations, error_history, hubs_expanded, work_units)``
    where ``work_units`` counts the index entries the splices touched.
    """
    error_history = [1.0 - float(estimate.sum())]
    hubs_expanded = 0
    iteration = 0
    work_units = 0

    def current_state() -> QueryState:
        return QueryState(
            iteration=iteration,
            l1_error=error_history[-1],
            elapsed_seconds=time.perf_counter() - started,
            frontier_size=len(frontier),
            scores=estimate,
        )

    if on_iteration is not None:
        on_iteration(current_state())

    while (
        frontier
        and iteration < max_iterations
        and not stop.should_stop(current_state())
    ):
        iteration += 1
        next_frontier: dict[int, float] = {}
        for hub, mass in frontier.items():
            if alpha * mass <= delta:
                continue
            entry = fetch(hub)
            estimate[entry.nodes] += mass * entry.scores
            # Remove the zero-length "trivial tour" inside r^0_hub(hub):
            # the tour that merely *arrives* at the hub was already
            # scored by the previous increment (see module docstring).
            estimate[hub] -= alpha * mass
            hubs_expanded += 1
            work_units += entry.nodes.size + entry.border_hubs.size
            for border, border_mass in zip(
                entry.border_hubs.tolist(), entry.border_masses.tolist()
            ):
                next_frontier[border] = (
                    next_frontier.get(border, 0.0) + mass * border_mass
                )
        frontier = next_frontier
        error_history.append(1.0 - float(estimate.sum()))
        if on_iteration is not None:
            on_iteration(current_state())
    return iteration, error_history, hubs_expanded, work_units


class FastPPV:
    """The FastPPV online engine (Algorithm 2).

    Parameters
    ----------
    graph:
        The graph queries run against.
    index:
        Offline-precomputed hub prime PPVs
        (:func:`repro.core.index.build_index`).
    delta:
        Border-hub expansion threshold: a frontier hub is expanded only if
        its current increment score ``alpha * arrival_mass`` exceeds
        ``delta`` (Algorithm 2, line 9).
    max_iterations:
        Hard safety cap on incremental iterations regardless of the
        stopping condition.
    online_epsilon:
        Reachability cut-off for the *query-time* prime push (iteration 0
        of a non-hub query).  Defaults to the index's offline epsilon; a
        coarser value trades a little iteration-0 mass (visible through
        the query-time error) for lower latency.
    """

    def __init__(
        self,
        graph,
        index: PPVIndex,
        delta: float = DEFAULT_DELTA,
        max_iterations: int = 64,
        online_epsilon: float | None = None,
    ) -> None:
        if index.hub_mask.shape != (graph.num_nodes,):
            raise ValueError("index was built for a different graph size")
        if delta < 0.0:
            raise ValueError("delta must be non-negative")
        self.graph = graph
        self.index = index
        self.delta = delta
        self.max_iterations = max_iterations
        self.online_epsilon = (
            online_epsilon if online_epsilon is not None else index.epsilon
        )

    # ------------------------------------------------------------------ #

    def _prime_of_query(self, query: int) -> PrimePPV:
        """Iteration 0: load the query's prime PPV or push it on the fly."""
        if query in self.index:
            return self.index.get(query)
        return prime_ppv(
            self.graph,
            query,
            self.index.hub_mask,
            alpha=self.index.alpha,
            epsilon=self.online_epsilon,
        )

    def query(
        self,
        query: int,
        stop: StoppingCondition | None = None,
        on_iteration: Callable[[QueryState], None] | None = None,
    ) -> QueryResult:
        """Estimate the PPV of ``query`` incrementally.

        Parameters
        ----------
        query:
            Query node id.
        stop:
            Stopping condition; defaults to the paper's
            ``StopAfterIterations(2)``.
        on_iteration:
            Optional callback invoked with the :class:`QueryState` after
            every iteration (iteration 0 included) — handy for tracing the
            anytime behaviour.

        Returns
        -------
        QueryResult
        """
        if not 0 <= query < self.graph.num_nodes:
            raise ValueError(f"query node {query} out of range")
        if stop is None:
            stop = StopAfterIterations(2)
        started = time.perf_counter()

        base = self._prime_of_query(query)
        estimate = base.to_dense(self.graph.num_nodes)
        frontier: dict[int, float] = dict(
            zip(base.border_hubs.tolist(), base.border_masses.tolist())
        )
        iteration, error_history, hubs_expanded, work_units = (
            scalar_splice_rounds(
                estimate,
                frontier,
                stop,
                self.index.alpha,
                self.delta,
                self.max_iterations,
                self.index.get,
                started,
                on_iteration=on_iteration,
            )
        )
        if query not in self.index:
            work_units += base.edges_touched

        return QueryResult(
            query=query,
            scores=estimate,
            iterations=iteration,
            error_history=error_history,
            hubs_expanded=hubs_expanded,
            seconds=time.perf_counter() - started,
            work_units=work_units,
        )
