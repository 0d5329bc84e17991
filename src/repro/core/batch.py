"""The online engine: Algorithm 2 over a batch of queries at once.

:class:`FastPPV` answers a whole batch of queries in lock-step rounds;
a single query is the batch of one (``query(q)`` is
``query_many([q])[0]``):

* **Iteration 0** runs one multi-source prime push
  (:func:`repro.core.prime.prime_push_many`) for all non-hub queries in
  the batch, with the per-round dispatch cost paid once per batch
  instead of once per query; a hub query loads its prime PPV from the
  index.  Duplicate query ids share a single push.  The push's rows run
  on this process's CPUs (:func:`repro.native.push_threads`), with the
  same bytes at every thread count.
* **The incremental iterations** are
  :func:`repro.core.splice.splice_rounds_exact` — the one round loop —
  over the index's own :class:`~repro.core.splice.SpliceBlock`, which
  holds every hub: the disk engine's rounds with everything resident.

:func:`splice_batch` is the batch driver both backends share (the
paper's disk algorithm of Sect. 5.3 is Algorithm 2 with the graph and
the hub records paged in): it takes each query's iteration 0 as a
:class:`Start` — a hub query's own row of the block, or a pushed
query's score row and frontier — runs the rounds and builds the
:class:`~repro.core.query.QueryResult` s.  :class:`FastPPV` fills it
from ``prime_push_many`` and the index's block; the disk engine
(:mod:`repro.storage.disk_engine`) from its cluster waves and its PPV
store's block of the hub records its pool holds.

Equivalence contract
--------------------
The rounds accumulate in the order of the paper's per-hub statement of
Algorithm 2 (``tests/oracles.py::reference_query``), and every row of
iteration 0's ``prime_push_many`` is its query's lone push in any batch,
order or thread count, so each query of any batch is bitwise that
statement: ``scores``, ``error_history``, ``iterations``,
``hubs_expanded``, ``work_units`` and the states passed to
``on_iteration``, for any stopping condition that does not consult
wall-clock time.  ``seconds`` is per-query wall-clock
*within the batch* (time from batch start until the query finalised)
and ``elapsed_seconds`` in :class:`~repro.core.query.QueryState` is
shared batch time — for a batch of one, the query's own clock.

Stopping conditions are shared across a batch, so in a batch of more
than one they must be stateless (all built-in conditions are frozen
dataclasses; see :func:`batch_safe`).
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro import native
from repro.core.index import PPVIndex
from repro.core.query import (
    DEFAULT_DELTA,
    BatchOfOne,
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
from repro.core.topk import StopWhenCertified

BatchCallback = Callable[[int, QueryState], None]
"""Per-query iteration callback: ``(position_in_batch, state)``.

Invoked once per executed iteration per query (iteration 0 included),
mirroring :meth:`FastPPV.query`'s ``on_iteration`` — the first argument
is the query's position in the ``queries`` sequence, so duplicate query
ids remain distinguishable.
"""

_CHUNK_ELEMENT_BUDGET = 1 << 22
"""Target elements (~32 MB of float64) per dense working matrix; the
default chunk size is derived from this so large graphs are processed in
memory-bounded slices rather than one ``batch x n`` allocation."""


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
    so the serving adapters serve all of those one query at a time.
    Pass such conditions to :meth:`FastPPV.query_many` directly to opt in
    to shared-clock, interleaved-evaluation batch semantics.
    """
    if isinstance(stop, (StopAfterIterations, StopAtL1Error, StopWhenCertified)):
        return True
    if isinstance(stop, _AnyOf):
        return all(batch_safe(c) for c in stop.conditions)
    return False


class FastPPV(BatchOfOne):
    """The FastPPV online engine (Algorithm 2; see module docstring).

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
    chunk_size:
        Maximum queries processed per dense working set; bounds the
        ``chunk_size x num_nodes`` estimate/push matrices.  Defaults to
        a graph-size-aware value keeping each dense matrix around
        ``_CHUNK_ELEMENT_BUDGET`` elements (at least 16 queries, at most
        512).
    """

    def __init__(
        self,
        graph,
        index: PPVIndex,
        delta: float = DEFAULT_DELTA,
        max_iterations: int = 64,
        online_epsilon: float | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if index.hub_mask.shape != (graph.num_nodes,):
            raise ValueError("index was built for a different graph size")
        if delta < 0.0:
            raise ValueError("delta must be non-negative")
        if chunk_size is None:
            chunk_size = max(
                16,
                min(512, _CHUNK_ELEMENT_BUDGET // max(1, graph.num_nodes)),
            )
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
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
        native.load()  # refuse here, before serving, when the kernels cannot load
        self.graph = graph
        self.index = index
        self.delta = delta
        self.max_iterations = max_iterations
        self.online_epsilon = (
            online_epsilon if online_epsilon is not None else index.epsilon
        )
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------ #

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
            iteration; defaults to the paper's ``StopAfterIterations(2)``.
            Must be stateless — the same object gates every query.
        on_iteration:
            Optional :data:`BatchCallback` invoked as
            ``on_iteration(position, state)`` after every executed
            iteration of every query (iteration 0 included).
        """
        ids = query_ids(queries, self.graph.num_nodes)
        if stop is None:
            stop = StopAfterIterations(2)

        results: list[QueryResult] = []
        for start in range(0, len(ids), self.chunk_size):
            results.extend(
                self._run_chunk(
                    ids[start : start + self.chunk_size],
                    start,
                    stop,
                    on_iteration,
                )
            )
        return results

    # ------------------------------------------------------------------ #

    def _run_chunk(
        self,
        ids: list[int],
        first: int,
        stop: StoppingCondition,
        on_iteration: BatchCallback | None,
    ) -> list[QueryResult]:
        """Run the batch rounds for one chunk, ``ids``, which starts at
        position ``first`` of the caller's batch."""
        index = self.index
        started = time.perf_counter()
        # Iteration 0: one multi-source push for the chunk's unique
        # non-hub queries; a hub query reads its own row of the block.
        sources = list(dict.fromkeys(q for q in ids if q not in index))
        scores, border, edges = prime_push_many(
            self.graph,
            np.asarray(sources, dtype=np.int64),
            index.hub_mask,
            alpha=index.alpha,
            epsilon=self.online_epsilon,
        )
        pushed = {}
        for row, q in enumerate(sources):
            # The frontier in PrimePPV's sorted border order.
            hubs = np.nonzero(border[row])[0]
            pushed[q] = Start(scores[row], hubs, border[row, hubs], int(edges[row]))
        callback = None
        if on_iteration is not None:
            callback = lambda local, state: on_iteration(first + local, state)
        return splice_batch(
            ids,
            [pushed.get(q, Start()) for q in ids],
            index.block,
            # Every hub is resident, so nothing is ever fetched: a
            # frontier hub without a row is refused by the lookup itself.
            index.block.rows_of,
            stop,
            self.delta,
            self.max_iterations,
            started,
            callback,
        )
