"""The online engines: Algorithm 2 over a batch of queries at once.

:class:`Engine` is what both backends are, and what ``PPVService``
serves: it owns the one ``query_many`` — validate the ids, cut the
batch into memory-bounded chunks, and per chunk ask the engine for its
iteration 0 and hand that to :func:`splice_batch` — plus the batch of
one (``query(q)`` is ``query_many([q])[0]``), certified top-k and the
three serving calls.  An engine defines only its validation and its
iteration 0 (``_iteration0(ids) -> (starts, block, ensure)``):

* :class:`FastPPV` (memory) runs one multi-source prime push
  (:func:`repro.core.prime.prime_push_many`) for all non-hub queries of
  the chunk, with the per-round dispatch cost paid once per chunk
  instead of once per query; a hub query reads its own row of the
  index's :class:`~repro.core.splice.SpliceBlock`, which holds every
  hub.  Duplicate query ids share a single push.  The push's rows run
  on this process's CPUs (:func:`repro.native.push_threads`), with the
  same bytes at every thread count.
* :class:`~repro.storage.disk_engine.DiskFastPPV` drains its cluster
  waves and reads the hub records its PPV store's block lacks.

:func:`splice_batch` is the batch driver both backends share (the
paper's disk algorithm of Sect. 5.3 is Algorithm 2 with the graph and
the hub records paged in): it takes each query's iteration 0 as a
:class:`Start` — a hub query's own row of the block, or a pushed
query's score row and frontier — runs the incremental iterations
(:func:`repro.core.splice.splice_rounds_exact`, the one round loop) and
builds the :class:`~repro.core.query.QueryResult` s.

Equivalence contract
--------------------
The rounds accumulate in the order of the paper's per-hub statement of
Algorithm 2 (``tests/oracles.py::reference_query``), and every row of
iteration 0's push is its query's lone push in any batch, chunk, order
or thread count, so each query of any batch is bitwise that
statement: ``scores``, ``error_history``, ``iterations``,
``hubs_expanded``, ``work_units`` and the states passed to
``on_iteration``, for any stopping condition that does not consult
wall-clock time.  ``seconds`` is per-query wall-clock
*within the chunk* (time from chunk start until the query finalised)
and ``elapsed_seconds`` in :class:`~repro.core.query.QueryState` is
shared chunk time — for a batch of one, the query's own clock.

Stopping conditions are shared across a batch, so in a batch of more
than one they must be stateless (all built-in conditions are frozen
dataclasses; see :func:`batch_safe`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro import native
from repro.core.index import PPVIndex
from repro.core.query import (
    DEFAULT_DELTA,
    QueryResult,
    QueryState,
    StopAfterIterations,
    StopAtL1Error,
    StoppingCondition,
    _AnyOf,
    query_ids,
)
from repro.core.prime import prime_push_many
from repro.core.splice import SpliceBlock, splice_rounds_exact
from repro.core.topk import StopWhenCertified, top_k_result

BatchCallback = Callable[[int, QueryState], None]
"""Per-query iteration callback: ``(position_in_batch, state)``.

Invoked once per executed iteration per query (iteration 0 included),
mirroring :meth:`FastPPV.query`'s ``on_iteration`` — the first argument
is the query's position in the ``queries`` sequence, so duplicate query
ids remain distinguishable.
"""

_CHUNK_ELEMENT_BUDGET = 1 << 22
"""Target elements (~32 MB of float64) per dense working matrix: a batch
is served in chunks of :func:`_chunk_size` queries, so large graphs are
processed in memory-bounded slices rather than one ``batch x n``
allocation."""


def _chunk_size(num_nodes: int) -> int:
    """Queries per chunk on a graph of ``num_nodes``: each dense matrix
    near ``_CHUNK_ELEMENT_BUDGET`` elements, at least 16 queries and at
    most 512 (512 at 4 000 nodes)."""
    return max(16, min(512, _CHUNK_ELEMENT_BUDGET // max(1, num_nodes)))


class Start(NamedTuple):
    """One query's iteration 0, as :func:`splice_batch` takes it.

    ``scores`` is ``None`` for a hub query: its estimate and frontier
    are its own row of the batch's block
    (:meth:`~repro.core.splice.SpliceBlock.prime_of`).  A pushed query
    carries its dense score row (copied, never written), its frontier
    ``(hubs, masses)`` in the order the rounds take it and the push's
    edge traversals.  ``io`` is the query's disk I/O record
    ``(cluster_faults, hub_reads, truncated)``, ``None`` on memory.
    """

    scores: "np.ndarray | None" = None
    hubs: "np.ndarray | None" = None
    masses: "np.ndarray | None" = None
    edges: int = 0
    io: "tuple[int, int, bool] | None" = None


def splice_batch(
    ids: list[int],
    starts: Sequence[Start],
    block: SpliceBlock,
    ensure: Callable[[np.ndarray], None],
    stop: StoppingCondition,
    delta: float,
    max_iterations: int,
    started: float,
    on_iteration: BatchCallback | None = None,
) -> list[QueryResult]:
    """Algorithm 2 for the batch ``ids`` from its iteration 0,
    ``starts`` (aligned with ``ids``): stack the estimates and frontiers,
    run :func:`~repro.core.splice.splice_rounds_exact` over ``block``
    (``ensure`` makes the hubs a round lacks resident) and return one
    :class:`~repro.core.query.QueryResult` per query, in order.

    ``work_units`` is the push's edges plus the index entries the splices
    touched; a start with an I/O record adds its ``hubs_expanded`` to
    ``hub_reads``.  ``seconds`` runs from ``started``.
    """
    estimates = np.zeros((len(ids), block.num_nodes))
    frontiers: list[tuple[np.ndarray, np.ndarray]] = []
    for position, (q, start) in enumerate(zip(ids, starts)):
        if start.scores is None:
            nodes, scores, hubs, masses = block.prime_of(q)
            estimates[position, nodes] = scores
            frontiers.append((hubs, masses))
        else:
            estimates[position] = start.scores
            frontiers.append((start.hubs, start.masses))
    rounds = splice_rounds_exact(
        estimates, frontiers, stop, block.alpha, delta, max_iterations,
        block, ensure, started, on_iteration=on_iteration,
    )
    results = []
    for position, (q, start, (iterations, errors, expanded, work, seconds)) in (
        enumerate(zip(ids, starts, rounds))
    ):
        io = {}
        if start.io is not None:
            faults, reads, truncated = start.io
            io = dict(
                cluster_faults=faults, hub_reads=reads + expanded, truncated=truncated
            )
        results.append(
            QueryResult(
                query=q,
                # Copy out of the shared batch matrix so one retained
                # result cannot pin the whole (batch, n) buffer.
                scores=estimates[position].copy(),
                iterations=iterations,
                error_history=errors,
                hubs_expanded=expanded,
                seconds=seconds,
                work_units=start.edges + work,
                **io,
            )
        )
    return results


def batch_safe(stop: StoppingCondition) -> bool:
    """Whether batching cannot change what ``stop`` means per query.

    Only the pure, stateless built-ins qualify
    (:class:`StopAfterIterations`, :class:`StopAtL1Error`,
    :class:`~repro.core.topk.StopWhenCertified` and ``any_of``
    combinations of them).  :class:`StopAfterTime` reads
    ``QueryState.elapsed_seconds`` — shared batch time in a batch, a
    per-query budget in a batch of one — and arbitrary user conditions
    may be stateful or time-reading in ways that cannot be introspected,
    so :meth:`Engine.query_batch` serves all of those one query at a
    time.  Pass such conditions to :meth:`Engine.query_many` directly to
    opt in to shared-clock, interleaved-evaluation batch semantics.
    """
    if isinstance(stop, (StopAfterIterations, StopAtL1Error, StopWhenCertified)):
        return True
    if isinstance(stop, _AnyOf):
        return all(batch_safe(c) for c in stop.conditions)
    return False


class Engine:
    """What both backends are and what ``PPVService`` serves (see the
    module docstring): everything but validation and iteration 0.

    A subclass sets ``backend``, ``num_nodes``, ``delta`` and
    ``max_iterations`` (through :meth:`__init__`), and defines
    ``_iteration0(ids) -> (starts, block, ensure)`` — one
    :class:`Start` per id, the :class:`~repro.core.splice.SpliceBlock`
    the rounds splice from and the call that makes the hubs a round
    lacks resident — and :meth:`cache_token`.
    """

    backend: str
    """Name of this backend (``"memory"``, ``"disk"``, ...)."""

    num_nodes: int
    """Graph size, for request validation."""

    def __init__(self, num_nodes: int, delta: float, max_iterations: int) -> None:
        if delta < 0.0:
            raise ValueError("delta must be non-negative")
        native.load()  # refuse here, before serving, when the kernels cannot load
        self.num_nodes = num_nodes
        self.delta = delta
        self.max_iterations = max_iterations

    def query_many(
        self,
        queries: Sequence[int],
        stop: StoppingCondition | None = None,
        on_iteration: BatchCallback | None = None,
    ) -> list[QueryResult]:
        """Estimate the PPVs of ``queries``, preserving order.

        Parameters
        ----------
        queries:
            Query node ids (duplicates allowed; they share iteration-0
            work but produce independent results).
        stop:
            Shared stopping condition, evaluated per query after every
            iteration (it sees per-query state, ``scores`` included);
            defaults to the paper's ``StopAfterIterations(2)``.  Must be
            stateless — the same object gates every query.
        on_iteration:
            Optional :data:`BatchCallback` invoked as
            ``on_iteration(position, state)`` after every executed
            iteration of every query (iteration 0 included; the push
            that builds iteration 0 is not observable step by step).
        """
        ids = query_ids(queries, self.num_nodes)
        if stop is None:
            stop = StopAfterIterations(2)
        chunk = _chunk_size(self.num_nodes)
        results: list[QueryResult] = []
        for first in range(0, len(ids), chunk):
            started = time.perf_counter()
            chunk_ids = ids[first : first + chunk]
            callback = on_iteration
            if on_iteration is not None and first:
                callback = lambda local, state, first=first: on_iteration(
                    first + local, state
                )
            results.extend(
                splice_batch(
                    chunk_ids,
                    *self._iteration0(chunk_ids),
                    stop,
                    self.delta,
                    self.max_iterations,
                    started,
                    callback,
                )
            )
        return results

    def query(
        self,
        query: int,
        stop: StoppingCondition | None = None,
        on_iteration: Callable[[QueryState], None] | None = None,
    ) -> QueryResult:
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
        on_iteration: BatchCallback | None = None,
    ) -> list[QueryResult]:
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

        Certificate soundness: build the engine with ``delta = 0`` for a
        formally sound certificate (a positive ``delta`` makes the Eq. 6
        error slightly optimistic about pruned mass; a truncated disk
        push stays sound because its missing mass is part of the Eq. 6
        error the certificate already budgets for).

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

    # ------------------------------------------------------------------ #
    # The serving calls (``PPVService`` and its query families)

    def query_batch(
        self, nodes: Sequence[int], stop: StoppingCondition
    ) -> list[QueryResult]:
        """Serve ``nodes`` as one batch under a shared stopping rule;
        a condition that is not :func:`batch_safe` (time-based or
        user-defined) is served one query at a time, since in a batch
        elapsed time is shared and evaluation interleaves."""
        if not batch_safe(stop):
            return [self.query(node, stop=stop) for node in nodes]
        return self.query_many(nodes, stop=stop)

    def query_top_k_batch(
        self, nodes: Sequence[int], k: int, budget: int
    ) -> list[QueryResult]:
        """Certified top-k for ``nodes`` with per-query retirement."""
        return self.query_top_k_many(nodes, k=k, max_iterations=budget)

    def query_stream(
        self,
        node: int,
        stop: StoppingCondition,
        on_iteration: Callable[[QueryState], None],
    ) -> QueryResult:
        """The batch of one with the per-iteration callback (streaming)."""
        return self.query(node, stop=stop, on_iteration=on_iteration)

    def cache_token(self) -> object:
        """Identity of the index state results were computed from: the
        service drops its popularity cache whenever this object changes
        (compared by ``is``), so cached results never outlive the index
        they came from."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the engine holds (nothing, unless a subclass
        holds connections)."""


class FastPPV(Engine):
    """The FastPPV online engine in memory (Algorithm 2; see the module
    docstring).

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
        of a non-hub query).  Defaults to the index's offline epsilon
        (and follows it through :meth:`replace_index`); a coarser value
        trades a little iteration-0 mass (visible through the query-time
        error) for lower latency.
    """

    backend = "memory"

    def __init__(
        self,
        graph,
        index: PPVIndex,
        delta: float = DEFAULT_DELTA,
        max_iterations: int = 64,
        online_epsilon: float | None = None,
    ) -> None:
        super().__init__(graph.num_nodes, delta, max_iterations)
        self._online_epsilon = online_epsilon
        # Held while the served graph / index / cut-off change and while
        # a chunk reads them, so a batch never blends two indexes.
        self._swap = threading.Lock()
        self.replace_index(index, graph)

    def replace_index(self, index: PPVIndex, graph=None) -> None:
        """Serve ``index`` (e.g. from ``update_index``) from now on.

        Pass ``graph`` too when the update changed the graph itself (the
        usual :func:`repro.core.dynamic.update_index` flow).
        """
        graph = self.graph if graph is None else graph
        if index.hub_mask.shape != (graph.num_nodes,):
            raise ValueError("index was built for a different graph size")
        # The rounds splice every frontier hub from the index's block,
        # so a hub with no entry, or a border hub outside the index,
        # would make a batch silently diverge from the scalar loop.
        if not np.array_equal(index.hubs, np.flatnonzero(index.hub_mask)):
            raise ValueError(
                "index entries do not cover the hub mask; the batch engine "
                "needs a prime PPV stored for every hub"
            )
        _, border_hubs, _ = index.block._borders.csr()
        outside = np.unique(border_hubs[~index.hub_mask[border_hubs]])
        if outside.size:
            raise ValueError(f"border hubs outside the index: {outside.tolist()}")
        with self._swap:
            self.graph, self.index, self.num_nodes = graph, index, graph.num_nodes
            self.online_epsilon = (
                index.epsilon if self._online_epsilon is None else self._online_epsilon
            )

    def cache_token(self) -> object:
        # An index is never edited in place (update_index returns a new
        # one), so its identity is exactly the lifetime of any result
        # computed from it.
        return self.index

    def _iteration0(self, ids):
        """One multi-source push for the chunk's unique non-hub queries;
        a hub query reads its own row of the index's block, where every
        hub is resident, so nothing is ever fetched: a frontier hub
        without a row is refused by the lookup itself."""
        with self._swap:
            graph, index, epsilon = self.graph, self.index, self.online_epsilon
        sources = list(dict.fromkeys(q for q in ids if q not in index))
        scores, border, edges = prime_push_many(
            graph,
            np.asarray(sources, dtype=np.int64),
            index.hub_mask,
            alpha=index.alpha,
            epsilon=epsilon,
        )
        pushed = {}
        for row, q in enumerate(sources):
            # The frontier in PrimePPV's sorted border order.
            hubs = np.nonzero(border[row])[0]
            pushed[q] = Start(scores[row], hubs, border[row, hubs], int(edges[row]))
        starts = [pushed.get(q, Start()) for q in ids]
        return starts, index.block, index.block.rows_of
