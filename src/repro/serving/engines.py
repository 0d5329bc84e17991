"""The backend-agnostic ``Engine`` protocol and its two adapters.

There is one engine per backend — the in-memory ``FastPPV`` and the
disk ``DiskFastPPV``; on both, a single query is the batch of one and the
incremental rounds are the same loop
(:func:`repro.core.splice.splice_rounds_exact`).  The serving layer
narrows them to one small protocol (:class:`Engine`): a batch call per
result kind plus a scalar streaming call, with uniform stop-condition
routing (time-based or user-defined conditions are served one query at a
time on every backend) and a ``cache_token`` that tells the service when
cached results went stale.

:meth:`~repro.serving.PPVService.open` builds :class:`MemoryEngine`
(``graph=``) or :class:`DiskEngine` (``graph_store=``) from its
keywords; the shard router's :class:`~repro.sharding.router.RouterEngine`
and the shard's :class:`~repro.sharding.shard.ShardEngine` are built by
:mod:`repro.sharding` directly and handed to ``PPVService``.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.core.batch import FastPPV, batch_safe
from repro.core.index import PPVIndex
from repro.core.query import DEFAULT_DELTA, QueryState, StoppingCondition
from repro.storage.disk_engine import DiskFastPPV
from repro.storage.ppv_store import DiskPPVStore


class Engine(Protocol):
    """What a serving backend must provide to sit behind ``PPVService``.

    The protocol normalises the per-engine query spellings into three
    calls; implementations guarantee that batch results equal the
    underlying engine's own batch call over the same node list (bitwise
    — the service adds no numerical steps of its own).
    """

    backend: str
    """Name of this backend (``"memory"``, ``"disk"``, ...)."""

    num_nodes: int
    """Graph size, for request validation."""

    def query_batch(
        self, nodes: Sequence[int], stop: StoppingCondition
    ) -> list:
        """Serve ``nodes`` as one batch under a shared stopping rule.

        Must serve non-batch-safe conditions (time-based or
        user-defined; see :func:`repro.core.batch.batch_safe`) one query
        at a time so their semantics are preserved.
        """
        ...

    def query_top_k_batch(
        self, nodes: Sequence[int], k: int, budget: int
    ) -> list:
        """Certified top-k for ``nodes`` with per-query retirement."""
        ...

    def query_stream(
        self,
        node: int,
        stop: StoppingCondition,
        on_iteration: Callable[[QueryState], None],
    ):
        """Scalar query with the per-iteration callback (streaming)."""
        ...

    def cache_token(self) -> object:
        """Identity of the index state results were computed from.

        The service drops its popularity cache whenever this object
        changes (compared by ``is``), so cached results never outlive
        the index they came from.
        """
        ...

    def close(self) -> None:
        """Release resources the adapter owns (stores it opened)."""
        ...


class _StopRouting:
    """The three query calls of :class:`Engine`, written once over the
    adapter's ``_engine`` (``query`` / ``query_many`` /
    ``query_top_k_many``)."""

    def query_batch(self, nodes, stop):
        if not batch_safe(stop):
            # Time-based / user-defined conditions are served one query
            # at a time: in a batch, elapsed time is shared and
            # evaluation interleaves, which would silently change what
            # such conditions mean.
            return [self._engine.query(n, stop=stop) for n in nodes]
        return self._engine.query_many(list(nodes), stop=stop)

    def query_top_k_batch(self, nodes, k, budget):
        return self._engine.query_top_k_many(
            list(nodes), k=k, max_iterations=budget
        )

    def query_stream(self, node, stop, on_iteration):
        return self._engine.query(node, stop=stop, on_iteration=on_iteration)


class MemoryEngine(_StopRouting):
    """Adapter: the in-memory ``FastPPV``.

    Batches run the shared round loop over the index's
    :class:`~repro.core.splice.SpliceBlock`; streams and non-batch-safe
    stopping conditions serve one query at a time through the same
    engine — the batch of one.
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
        self._engine_kwargs = {
            "delta": delta,
            "max_iterations": max_iterations,
            "online_epsilon": online_epsilon,
        }
        self.replace_index(index, graph)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def cache_token(self) -> object:
        # An index is never edited in place (update_index returns a new
        # one), so its identity is exactly the lifetime of any result
        # computed from it.
        return self.index

    def replace_index(self, index: PPVIndex, graph=None) -> None:
        """Swap in a new index (e.g. from ``update_index``) in place.

        Pass ``graph`` too when the update changed the graph itself (the
        usual :func:`repro.core.dynamic.update_index` flow).
        """
        self._engine = FastPPV(
            self.graph if graph is None else graph, index, **self._engine_kwargs
        )
        self.graph, self.index = self._engine.graph, index

    def close(self) -> None:  # nothing owned
        pass


class DiskEngine(_StopRouting):
    """Adapter: the disk-resident ``DiskFastPPV`` (Sect. 5.3 deployment).

    Batch calls go through its cluster-grouped push scheduler, so every
    coalesced service batch shares cluster residency across its queries
    — two concurrent callers fault each needed cluster once per wave
    instead of once per caller.  Streams and non-batch-safe stopping
    conditions serve one query at a time through the same engine.
    """

    backend = "disk"

    def __init__(
        self,
        graph_store,
        ppv_store: DiskPPVStore,
        delta: float = DEFAULT_DELTA,
        fault_budget: int | None = None,
        max_iterations: int = 64,
        owns_store: bool = False,
    ) -> None:
        self.graph_store = graph_store
        self.ppv_store = ppv_store
        self._owns_store = owns_store
        self._engine = DiskFastPPV(
            graph_store,
            ppv_store,
            delta=delta,
            fault_budget=fault_budget,
            max_iterations=max_iterations,
        )

    @property
    def num_nodes(self) -> int:
        return self.graph_store.num_nodes

    def cache_token(self) -> object:
        # On-disk indexes are immutable for the life of the store.
        return self.ppv_store

    def close(self) -> None:
        if self._owns_store:
            self.ppv_store.close()
