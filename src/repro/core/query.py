"""The vocabulary of online query processing (Algorithm 2, Theorem 4).

The engine (:class:`repro.core.batch.FastPPV`) estimates a PPV partition
by partition: iteration 0 is the query's own prime PPV (``T^0``);
iteration ``i`` splices the prime PPVs of the hubs on the current
frontier into the estimate, covering exactly the tours of hub length
``i``.  Because every increment only *adds* probability mass, the running
L1 error is ``1 - ||estimate||_1`` (Eq. 6) and can gate a user-chosen
stopping condition at query time — the paper's "accuracy-aware" property.

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

import operator
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.core.topk import StopWhenCertified, top_k_result
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

    def should_stop_many(self, iterations, l1_errors, scores) -> np.ndarray:
        return iterations >= self.eta


@dataclass(frozen=True)
class StopAtL1Error:
    """Stop once the query-time L1 error (Eq. 6) is below ``target``."""

    target: float

    def should_stop(self, state: QueryState) -> bool:
        return state.l1_error <= self.target

    def should_stop_many(self, iterations, l1_errors, scores) -> np.ndarray:
        return l1_errors <= self.target


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

    @property
    def should_stop_many(self):
        """The members' ``should_stop_many`` or-ed together, or ``None``
        when a member has none (the round loop then asks per state)."""
        members = [getattr(c, "should_stop_many", None) for c in self.conditions]
        if any(member is None for member in members):
            return None

        def should_stop_many(iterations, l1_errors, scores) -> np.ndarray:
            stopping = np.zeros(len(iterations), dtype=bool)
            for member in members:
                stopping |= member(iterations, l1_errors, scores)
            return stopping

        return should_stop_many


def any_of(*conditions: StoppingCondition) -> StoppingCondition:
    """Stop as soon as any of the given conditions stops.

    E.g. ``any_of(StopAtL1Error(0.01), StopAfterTime(0.05))`` reproduces
    "accuracy requirement or time limit, whichever first".
    """
    return _AnyOf(tuple(conditions))


@dataclass
class QueryResult:
    """Outcome of one FastPPV query: the one result every PPV path serves,
    on both backends and for both the ``ppv`` and ``top_k`` families.

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
    cluster_faults, hub_reads, truncated:
        The disk I/O record of Fig. 16 (``None`` on memory results):
        the faults a dedicated one-cluster-budget store would have paid
        (= the prime push's drain steps), the hub records the query
        requested, and whether the fault budget cut the push short.
        Deterministic: independent of the batch the query was served in
        and of the stores' pool.
    certified, top:
        The top-k certificate (``None`` unless the result came from
        :func:`~repro.core.topk.top_k_result`): whether ``top``, the
        top-k node ids by estimated score (best first), provably equals
        the exact top-k set.
    """

    query: int
    scores: np.ndarray
    iterations: int
    error_history: list[float] = field(default_factory=list)
    hubs_expanded: int = 0
    seconds: float = 0.0
    work_units: int = 0
    cluster_faults: int | None = None
    hub_reads: int | None = None
    truncated: bool | None = None
    certified: bool | None = None
    top: np.ndarray | None = None

    @property
    def l1_error(self) -> float:
        """Query-time L1 error of the final estimate."""
        return self.error_history[-1]

    @property
    def result(self) -> "QueryResult":
        """This result itself.

        Read-only, and only for the frozen performance ledger, which
        reads ``r.result.iterations`` (``benchmarks/ledger/workloads.py``);
        it goes with ROADMAP item 1(e).
        """
        return self

    @property
    def nodes(self) -> "np.ndarray | None":
        """``top`` under its old name.

        Read-only, and only for the frozen performance ledger's
        self-test, which reads ``a.nodes`` off top-k results
        (``benchmarks/ledger/selftest_ledger.py``); it goes with ROADMAP
        item 1(e).
        """
        return self.top

    def copy(self) -> "QueryResult":
        """A copy that shares no buffer with this result.

        Built field by field rather than through ``dataclasses.replace``,
        which walks the field list on every call: the popularity cache
        copies on every hit and every insert.
        """
        return QueryResult(
            query=self.query,
            scores=self.scores.copy(),
            iterations=self.iterations,
            error_history=list(self.error_history),
            hubs_expanded=self.hubs_expanded,
            seconds=self.seconds,
            work_units=self.work_units,
            cluster_faults=self.cluster_faults,
            hub_reads=self.hub_reads,
            truncated=self.truncated,
            certified=self.certified,
            top=None if self.top is None else self.top.copy(),
        )

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


def query_ids(queries: Sequence[int], num_nodes: int) -> list[int]:
    """``queries`` as ``int`` node ids: ``TypeError`` for a non-integer
    (``operator.index``: ``3.7`` is refused, not truncated), ``ValueError``
    for an id outside ``[0, num_nodes)``."""
    ids = [operator.index(q) for q in queries]
    for q in ids:
        if not 0 <= q < num_nodes:
            raise ValueError(f"query node {q} out of range")
    return ids


class BatchOfOne:
    """``query`` and ``query_top_k_many`` for an engine whose
    ``query_many(queries, stop, on_iteration)`` reports
    ``on_iteration(position, state)``."""

    def query(
        self,
        query: int,
        stop: StoppingCondition | None = None,
        on_iteration: Callable[[QueryState], None] | None = None,
    ):
        """Estimate the PPV of ``query``: ``query_many([query])[0]``, with
        ``on_iteration`` (if given) called with each iteration's
        :class:`QueryState` alone, iteration 0 included."""
        callback = None
        if on_iteration is not None:
            callback = lambda _position, state: on_iteration(state)
        return self.query_many([query], stop=stop, on_iteration=callback)[0]

    def query_top_k_many(
        self,
        queries: Sequence[int],
        k: int = 10,
        max_iterations: int = 32,
        on_iteration: "Callable[[int, QueryState], None] | None" = None,
    ) -> "list[QueryResult]":
        """Certified top-k for a whole batch of queries, preserving order.

        Batch-retirement contract
        -------------------------
        The batch runs in lock-step rounds, but every query carries its
        *own* top-k certificate (the phi-gap rule of
        :mod:`repro.core.topk`): after each round the certificates of all
        in-flight queries are checked in one vectorised pass
        (:meth:`~repro.core.topk.StopWhenCertified.should_stop_many`),
        and a query **retires from the batch the moment its certificate
        fires** — it stops consuming rounds while uncertified neighbours
        keep iterating towards ``max_iterations``.  Each query therefore
        performs exactly as many incremental iterations as
        :func:`~repro.core.topk.query_top_k` alone would (same certified
        sets, same per-query iteration counts).  The result carries the
        engine's own record (the disk I/O record on the disk engine).

        Certificate soundness follows
        :func:`~repro.core.topk.query_top_k`: build the engine with
        ``delta = 0`` for a formally sound certificate (a positive
        ``delta`` makes the Eq. 6 error slightly optimistic about pruned
        mass; a truncated disk push stays sound because its missing mass
        is part of the Eq. 6 error the certificate already budgets for).

        Parameters
        ----------
        queries:
            Query node ids (duplicates allowed).
        k:
            Size of the wanted top set.
        max_iterations:
            Per-query certificate budget; queries whose certificate never
            fires within it are returned with ``certified=False``.
        on_iteration:
            Optional ``(position, state)`` callback, as in ``query_many``.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        stop = StopWhenCertified(k=k, max_iterations=max_iterations)
        results = self.query_many(queries, stop=stop, on_iteration=on_iteration)
        return [top_k_result(result, k) for result in results]
