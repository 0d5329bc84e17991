"""``PPVService`` — the one serving façade over every query engine.

The service owns four things:

* an :class:`~repro.core.batch.Engine` (built from its keywords by
  :meth:`PPVService.open`, or handed to the constructor),
* the :class:`~repro.serving.scheduler.CoalescingScheduler` that admits
  concurrent ``submit()`` traffic and drains it as engine batches,
* the shared :class:`~repro.serving.cache.PopularityCache` (hit-counter
  eviction, invalidated whenever the engine's cache token changes),
* the family router: every spec resolves through the query-family
  registry (:mod:`repro.serving.families`), and the family descriptor
  owns planning (multi-node PPV specs split into single-node
  sub-queries and recombine via the Linearity Theorem), group
  compatibility, execution, and cacheability.  Coalescing only ever
  groups same-family specs, and every cache key carries the family
  name.

Determinism contract
--------------------
The service adds no numerics: every spec's scores are produced by the
underlying engine's own batch call over the coalesced node list, so a
``query_many`` burst returns scores **bitwise identical** to calling the
engine's ``query_many`` directly on the same list.  When independent
clients coalesce, the batch *composition* differs from what either
client would have run alone; scores are schedule-independent on both
backends (bitwise stable by `_PrimePushRun`'s contract on disk, and by
``prime_push_many``'s rows being lone pushes in memory).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.batch import Engine, FastPPV
from repro.core.index import PPVIndex
from repro.core.topk import _certificate_holds, top_k_result
from repro.obs import Observability, cost_counters
from repro.obs.trace import activate as _activate_span
from repro.serving.cache import DEFAULT_CACHE_SIZE, PopularityCache
from repro.serving.families import (
    FamilyTask,
    QueryFamily,
    UnsupportedFamilyError,
    resolve_family,
    supported_families,
)
from repro.serving.scheduler import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY,
    CoalescingScheduler,
)
from repro.serving.spec import QueryHandle, QuerySnapshot, QuerySpec
from repro.storage.disk_engine import DiskFastPPV
from repro.storage.ppv_store import DiskPPVStore

_STREAM_DONE = object()

# What PPVService.open serves, by backend name: the keyword naming it.
_BACKEND_KEYWORDS = {"memory": "graph=", "disk": "graph_store="}


@dataclass(frozen=True)
class ServiceStats:
    """Counters exposed by :meth:`PPVService.stats`.

    ``queue_depth`` / ``in_flight`` snapshot the scheduler's admission
    state (how much backpressure the service is under right now);
    ``latency`` is a :meth:`repro.obs.Histogram.snapshot` of
    submit→resolve times over every resolved handle.

    ``families`` breaks submissions and latency out per query family:
    ``{name: {"submitted": n, "latency": <histogram snapshot>}}`` for
    every family this service has been asked for.

    Every nested structure here is freshly built per call: callers may
    mutate a snapshot freely without corrupting the live histograms.
    """

    submitted: int
    batches: int
    largest_batch: int
    cache_hits: int
    cache_misses: int
    cache_entries: int
    queue_depth: int = 0
    in_flight: int = 0
    latency: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)


class _CancellableStop:
    """Wrap a stopping condition with a client-side cancellation flag.

    Used by streaming: closing the snapshot iterator sets the flag, and
    the engine stops at the next iteration boundary instead of running
    the abandoned query to completion.
    """

    __slots__ = ("_inner", "_cancel")

    def __init__(self, inner, cancel: threading.Event) -> None:
        self._inner = inner
        self._cancel = cancel

    def should_stop(self, state) -> bool:
        return self._cancel.is_set() or self._inner.should_stop(state)


class _BatchJob:
    __slots__ = ("spec", "handle", "span")

    def __init__(self, spec: QuerySpec, handle: QueryHandle, span) -> None:
        self.spec = spec
        self.handle = handle
        # The queue-wait span of a traced request (admission → drain);
        # None when the request is untraced.
        self.span = span


class _StreamJob:
    __slots__ = ("spec", "handle", "out", "cancel", "span")

    def __init__(
        self,
        spec: QuerySpec,
        handle: QueryHandle,
        out: "queue.Queue",
        cancel: threading.Event,
        span,
    ) -> None:
        self.spec = spec
        self.handle = handle
        self.out = out
        self.cancel = cancel
        self.span = span


class PPVService:
    """One serving façade for all FastPPV engines (see module docstring).

    Build it with :meth:`open`; use it as a context manager (or call
    :meth:`close`) so the drain thread and any store it opened are
    released.

    Parameters
    ----------
    engine:
        An :class:`~repro.core.batch.Engine` (or a data-plane
        :class:`~repro.sharding.shard.ShardEngine`).
    cache_size:
        Capacity of the popularity-aware result cache (0 disables it).
    max_batch:
        Requests coalesced into one scheduler drain.
    max_delay:
        Seconds a drain holds its batch open for concurrent arrivals,
        or ``"auto"`` to tune the window from the observed arrival rate
        (see :class:`~repro.serving.scheduler.CoalescingScheduler`).
    fault_plan:
        Tests only: a :class:`repro.faults.FaultPlan` forwarded to the
        scheduler (its ``scheduler.execute`` site).  ``None`` keeps the
        hot path hook-free.
    obs:
        The :class:`repro.obs.Observability` bundle this service counts
        into (a fresh private one when omitted, so ``service.obs``
        always exists).  Its registry is the store behind
        :meth:`stats` — submissions and latency are registry series,
        the scheduler's, cache's and engine's own counters are read
        through it — its tracer continues the trace contexts on
        incoming specs, and threshold-crossing queries land in its
        slow-query log when one is configured.  Closed with the
        service.  Services handed the same bundle count into the same
        series (registration is idempotent), so their ``submitted`` and
        latency read as one total; give each its own bundle to keep
        them apart.
    """

    def __init__(
        self,
        engine: Engine,
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay: "float | str" = DEFAULT_MAX_DELAY,
        fault_plan=None,
        obs=None,
    ) -> None:
        self.engine = engine
        self.obs = obs or Observability()
        registry = self.obs.registry
        self.cache = PopularityCache(cache_size)
        self._cache_token = None
        self._scheduler = CoalescingScheduler(
            self._serve_jobs,
            max_batch=max_batch,
            max_delay=max_delay,
            # Second line of defence: if _serve_jobs itself blows through
            # (its own net failing), the scheduler resolves the batch's
            # handles instead of silently dropping them.
            on_error=self._fail_jobs,
            fault_plan=fault_plan,
            registry=registry,
        )
        self._submitted = registry.counter(
            "repro_queries_submitted_total",
            "Queries admitted, by family.",
            labelnames=("family",),
        )
        self._latency = registry.histogram(
            "repro_request_latency_seconds",
            "Submit-to-resolve latency over every resolved handle.",
        )
        self._family_latency = registry.histogram(
            "repro_family_latency_seconds",
            "Submit-to-resolve latency, by family.",
            labelnames=("family",),
        )
        # The cache and the engine keep counting for themselves; the
        # registry reads them at snapshot time.
        registry.counter_func(
            "repro_cache_hits_total",
            "Result-cache hits.",
            lambda: self.cache.hits,
        )
        registry.counter_func(
            "repro_cache_misses_total",
            "Result-cache misses.",
            lambda: self.cache.misses,
        )
        registry.counter_func(
            "repro_cache_evictions_total",
            "Result-cache evictions.",
            lambda: self.cache.evictions,
        )
        registry.gauge_func(
            "repro_cache_entries",
            "Results currently cached.",
            lambda: len(self.cache),
        )
        self.obs.observe_engine(self.engine)
        # The DiskPPVStore open() made from an .fppv path, closed here.
        self._opened_store: "DiskPPVStore | None" = None
        self._closed = False
        # Live streaming jobs, so close() can cancel them instead of
        # letting an abandoned iterator run its query to completion on
        # the drain thread.
        self._streams_lock = threading.Lock()
        self._active_streams: set[_StreamJob] = set()

    # ------------------------------------------------------------------ #
    # Construction / lifecycle

    @classmethod
    def open(
        cls,
        source,
        backend: str | None = None,
        *,
        graph=None,
        graph_store=None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay: "float | str" = DEFAULT_MAX_DELAY,
        fault_plan=None,
        obs=None,
        **engine_kwargs,
    ) -> "PPVService":
        """Open a service over an index (memory) or stores (disk).

        The keyword picks the backend: ``graph=`` serves ``source`` in
        memory (a :class:`~repro.core.batch.FastPPV`), ``graph_store=``
        from disk (a :class:`~repro.storage.disk_engine.DiskFastPPV`).

        Parameters
        ----------
        source:
            A :class:`~repro.core.index.PPVIndex` (with ``graph=``); or a
            :class:`~repro.storage.ppv_store.DiskPPVStore` or an
            ``.fppv`` path (with ``graph_store=``) — a path is opened
            over ``graph_store``'s pool of stored bytes (one pool per
            deployment), owned and closed by the service.
        backend:
            ``"memory"`` or ``"disk"``; when passed, it must name the
            backend the keywords pick.
        engine_kwargs:
            Forwarded to the engine (``delta``, ``max_iterations``,
            ``online_epsilon`` / ``fault_budget``).
        """
        if backend is not None and backend not in _BACKEND_KEYWORDS:
            raise KeyError(
                f"unknown backend {backend!r}; known: "
                f"{sorted(_BACKEND_KEYWORDS)}"
            )
        if (graph is None) == (graph_store is None):
            raise ValueError(
                "pass exactly one of graph= (memory backend) and "
                "graph_store= (disk backend)"
            )
        name = "memory" if graph is not None else "disk"
        if backend is not None and backend != name:
            raise ValueError(
                f"the {backend} backend takes {_BACKEND_KEYWORDS[backend]}, "
                f"not {_BACKEND_KEYWORDS[name]}"
            )
        opened = None
        if name == "memory":
            if not isinstance(source, PPVIndex):
                raise TypeError(
                    f"the memory backend serves a PPVIndex, not "
                    f"{type(source).__name__}"
                )
            engine = FastPPV(graph, source, **engine_kwargs)
        elif isinstance(source, DiskPPVStore):
            engine = DiskFastPPV(graph_store, source, **engine_kwargs)
        elif isinstance(source, (str, os.PathLike)):
            opened = DiskPPVStore(source, pool=graph_store.pool)
            try:
                engine = DiskFastPPV(graph_store, opened, **engine_kwargs)
            except BaseException:
                opened.close()
                raise
        else:
            raise TypeError(
                f"the disk backend serves a DiskPPVStore or an .fppv path, "
                f"not {type(source).__name__}"
            )
        service = cls(
            engine,
            cache_size=cache_size,
            max_batch=max_batch,
            max_delay=max_delay,
            fault_plan=fault_plan,
            obs=obs,
        )
        service._opened_store = opened
        return service

    def __enter__(self) -> "PPVService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drain pending requests, stop the scheduler, release stores.

        Idempotent.  Live streaming iterators are cancelled first: their
        queries stop at the next iteration boundary (each open stream
        still receives its terminal sentinel, so a consumer blocked on
        the iterator wakes up and finishes cleanly) rather than running
        abandoned work to completion while ``close`` waits.
        """
        with self._streams_lock:
            if self._closed:
                return
            self._closed = True
            for job in self._active_streams:
                job.cancel.set()
        self._scheduler.close()
        self.engine.close()
        if self._opened_store is not None:
            self._opened_store.close()
        self.obs.close()

    # ------------------------------------------------------------------ #
    # Public request API

    def submit(self, spec: QuerySpec | int) -> QueryHandle:
        """Admit a request and return its future immediately.

        Concurrent submissions coalesce into shared engine batches; call
        :meth:`flush` (or just ``handle.result()`` after a
        ``max_delay``) to force the window closed.
        """
        spec = self._as_spec(spec)
        self._validate(spec)
        job = self._batch_job(spec)
        self._scheduler.submit(job)
        return job.handle

    def query(self, spec: QuerySpec | int):
        """Serve one request synchronously (kicks the batch window)."""
        handle = self.submit(spec)
        self._scheduler.kick()
        return handle.result()

    def query_many(self, specs: Sequence[QuerySpec | int]) -> list:
        """Serve a burst of requests, preserving order.

        The burst is admitted atomically, so (up to ``max_batch``) it
        runs as one coalesced drain whose engine batches contain exactly
        these specs' nodes in order — scores bitwise-equal to calling
        the engine's own batch method directly.
        """
        resolved = [self._as_spec(spec) for spec in specs]
        for spec in resolved:
            self._validate(spec)
        jobs = [self._batch_job(spec) for spec in resolved]
        self._scheduler.submit_many(jobs)
        self._scheduler.kick()
        return [job.handle.result() for job in jobs]

    def stream(self, spec: QuerySpec | int) -> Iterator[QuerySnapshot]:
        """Serve one request as a stream of per-iteration snapshots.

        Yields a :class:`~repro.serving.QuerySnapshot` after iteration 0
        and after every incremental iteration, built on the engines'
        ``on_iteration`` contract; for ``top_k`` specs each snapshot
        carries the live certificate status, so accuracy-aware clients
        can act the moment their top set certifies.  Closing the
        iterator early cancels the query at the next iteration boundary.

        Streaming bypasses the result cache (snapshot sequences must
        reflect real execution) and is limited to single-node specs.
        """
        spec = self._as_spec(spec)
        if spec.is_multi:
            raise ValueError(
                "streaming is limited to single-node specs; decompose "
                "multi-node sets client-side via the Linearity Theorem"
            )
        family = self._validate(spec)
        if not family.streamable:
            raise ValueError(
                f"family {spec.family!r} does not stream; use query()"
            )
        handle = QueryHandle(spec)
        out: "queue.Queue" = queue.Queue()
        cancel = threading.Event()
        self._track(handle)
        job = _StreamJob(spec, handle, out, cancel, self._queue_span(spec))
        with self._streams_lock:
            # Checked under the same lock close() takes before
            # cancelling, so a stream can never slip in between close's
            # cancellation sweep and the scheduler actually closing —
            # it either registers in time to be cancelled or raises.
            if self._closed:
                raise RuntimeError("service is closed")
            self._active_streams.add(job)
        try:
            self._scheduler.submit(job)
        except BaseException:
            with self._streams_lock:
                self._active_streams.discard(job)
            raise
        self._scheduler.kick()

        def snapshots() -> Iterator[QuerySnapshot]:
            try:
                while True:
                    item = out.get()
                    if item is _STREAM_DONE:
                        if handle._error is not None:
                            raise handle._error
                        return
                    yield item
            finally:
                cancel.set()

        return snapshots()

    def flush(self, timeout: float | None = None) -> None:
        """Force the coalescing window closed and wait for quiescence."""
        self._scheduler.flush(timeout)

    def update_index(self, index: PPVIndex, graph=None) -> None:
        """Swap in a new index (memory backend) and invalidate the cache.

        The natural partner of :func:`repro.core.dynamic.update_index`,
        which returns a *new* index after a graph change: pass its
        result (and the updated graph) here and the service atomically
        starts serving from it, with every cached PPV from the old index
        dropped.
        """
        replace = getattr(self.engine, "replace_index", None)
        if replace is None:
            raise NotImplementedError(
                f"the {self.engine.backend!r} backend cannot swap indexes "
                "in place"
            )
        self._scheduler.flush()
        replace(index, graph=graph)
        self.cache.clear()

    def swap_path(self, path: str) -> None:
        """Swap the served index to whatever lives at ``path``.

        Engines that know how to reopen themselves from a path (the
        shard router's partition-root swap) do it via their
        ``replace_from_path`` hook; everything else goes through the
        legacy route — load the ``.fppv`` eagerly and
        :meth:`update_index` it — which preserves each backend's
        existing swap semantics (the plain disk backend has no
        ``replace_index`` and keeps refusing with
        ``NotImplementedError``).  Either way in-flight work drains
        first and the result cache is dropped.
        """
        replace = getattr(self.engine, "replace_from_path", None)
        if replace is not None:
            self._scheduler.flush()
            replace(path)
            self.cache.clear()
            return
        from repro.storage.ppv_store import load_index

        self.update_index(load_index(path))

    def _batch_job(self, spec: QuerySpec) -> _BatchJob:
        handle = QueryHandle(spec)
        self._track(handle)
        return _BatchJob(spec, handle, self._queue_span(spec))

    def _queue_span(self, spec: QuerySpec):
        """The admission → drain span of a traced request, else ``None``."""
        if spec.trace is None:
            return None
        return self.obs.tracer.start_span(
            "service.queue", spec.trace, family=spec.family
        )

    def _track(self, handle: QueryHandle) -> None:
        """Count the submission and, when the handle resolves, record
        its submit→resolve latency (total plus the per-family
        breakdown) and feed the slow-query log when one is configured."""
        family = handle.spec.family
        self._submitted.labels(family).inc()
        started = time.monotonic()
        per_family = self._family_latency.labels(family)
        slow_log = self.obs.slow_log

        def record(_handle) -> None:
            elapsed = time.monotonic() - started
            self._latency.record(elapsed)
            per_family.record(elapsed)
            if slow_log is not None and elapsed >= slow_log.threshold:
                slow_log.record(self._slow_entry(handle, elapsed))

        handle.add_done_callback(record)

    def _slow_entry(self, handle: QueryHandle, elapsed: float) -> dict:
        """One slow-query log entry: identity, elapsed time, serving
        breadcrumbs and engine cost counters."""
        spec = handle.spec
        entry: dict = {
            "at": time.time(),
            "family": spec.family,
            "nodes": list(spec.nodes),
            "seconds": elapsed,
        }
        if spec.trace is not None:
            entry["trace"] = spec.trace.trace_id
        if handle._obs is not None:
            entry.update(handle._obs)
        if handle._error is not None:
            entry["error"] = str(handle._error)
        else:
            entry.update(cost_counters(handle._result))
        return entry

    def families(self) -> tuple[str, ...]:
        """Names of the registered families this engine can answer."""
        return supported_families(self.engine)

    def stats(self) -> ServiceStats:
        """A snapshot of the service's serving counters, rendered from
        the registry: ``submitted`` is the sum of the per-family series,
        so the total and its breakdown cannot disagree."""
        families = {
            name: {
                "submitted": count,
                "latency": self._family_latency.labels(name).snapshot(),
            }
            for (name,), count in self._submitted.children().items()
        }
        return ServiceStats(
            submitted=sum(entry["submitted"] for entry in families.values()),
            batches=self._scheduler.batches_served,
            largest_batch=self._scheduler.largest_batch,
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_entries=len(self.cache),
            queue_depth=self._scheduler.queue_depth,
            in_flight=self._scheduler.in_flight,
            latency=self._latency.snapshot(),
            families=families,
        )

    # ------------------------------------------------------------------ #
    # Planning and execution (scheduler thread only)

    def _as_spec(self, spec) -> QuerySpec:
        if isinstance(spec, QuerySpec):
            return spec
        return QuerySpec(spec)

    def _validate(self, spec: QuerySpec) -> QueryFamily:
        """Resolve the spec's family and run admission checks.

        Raises ``UnsupportedFamilyError`` (a ``ValueError``) when the
        engine lacks the family's capability, plain ``ValueError`` for
        unknown families or bad nodes/parameters.
        """
        try:
            family = resolve_family(spec.family)
        except KeyError as error:
            raise ValueError(str(error)) from None
        if not family.supports(self.engine):
            raise UnsupportedFamilyError(
                spec.family, getattr(self.engine, "backend", "?")
            )
        for node in spec.nodes:
            if not 0 <= node < self.engine.num_nodes:
                raise ValueError(f"query node {node} out of range")
        family.validate(spec, self.engine)
        return family

    def _refresh_cache_token(self) -> None:
        token = self.engine.cache_token()
        if token is not self._cache_token:
            if self._cache_token is not None:
                self.cache.clear()
            self._cache_token = token

    def _serve_jobs(self, jobs) -> None:
        """Scheduler drain: plan, group, serve, assemble, complete.

        Must leave **every** job's handle resolved (result or error) no
        matter what fails — an unresolved handle would block its client
        forever — hence the outer safety net below.
        """
        try:
            self._serve_jobs_inner(jobs)
        except BaseException as error:
            self._fail_jobs(jobs, error)

    def _fail_jobs(self, jobs, error: BaseException) -> None:
        """Resolve every unresolved handle in ``jobs`` with ``error``."""
        for job in jobs:
            if not job.handle.done():
                job.handle._set_error(error)
            if isinstance(job, _StreamJob):
                with self._streams_lock:
                    self._active_streams.discard(job)
                job.out.put(_STREAM_DONE)

    def _serve_jobs_inner(self, jobs) -> None:
        self._refresh_cache_token()
        batch_jobs = [job for job in jobs if isinstance(job, _BatchJob)]
        stream_jobs = [job for job in jobs if isinstance(job, _StreamJob)]

        # A coalesced drain serves many requests in one pass, so batch
        # work (grouping, kernels) belongs to no single trace.  Span
        # placement: the first traced job's context adopts the
        # batch-level spans (service.batch + engine.run_group kernels);
        # every traced job keeps its own service.queue/service.cache
        # spans, each stamped with the shared batch size.  The batch
        # span is thread-activated around kernel execution so remote
        # stores and fault sites reach the trace via current_span().
        batch_span = None
        for job in batch_jobs:
            if job.spec.trace is not None:
                batch_span = self.obs.tracer.start_span(
                    "service.batch", job.spec.trace, batch_size=len(jobs)
                )
                break
        try:
            with _activate_span(batch_span):
                self._serve_batch_jobs(batch_jobs, len(jobs), batch_span)
        finally:
            if batch_span is not None:
                batch_span.end()

        for job in stream_jobs:
            self._run_stream(job)

    def _serve_batch_jobs(
        self, batch_jobs, drain_size: int, batch_span
    ) -> None:
        # Group keys are the family's own key prefixed with the family
        # name, so a coalesced drain only ever batches same-family specs
        # together; cache keys get the same prefix, so families can
        # never serve each other's cached results.
        want_cost_info = self.obs.slow_log is not None
        plans: list[tuple[_BatchJob, QueryFamily, list[FamilyTask]]] = []
        groups: dict[
            tuple, tuple[QueryFamily, tuple,
                         list[tuple[QuerySpec, FamilyTask]]]
        ] = {}
        for job in batch_jobs:
            if job.span is not None:
                job.span.end(batch_size=drain_size)
            family = resolve_family(job.spec.family)
            tasks = family.plan(job.spec)
            plans.append((job, family, tasks))
            cache_span = None
            if batch_span is not None and job.spec.trace is not None:
                cache_span = batch_span.child(
                    "service.cache", family=family.name
                )
            cache_hits = 0
            for task in tasks:
                key = family.cache_key(job.spec, task)
                if key is not None:
                    hit = self.cache.get((family.name,) + key)
                    if hit is not None:
                        task.result = hit
                        cache_hits += 1
                        continue
                family_key = family.group_key(job.spec, task)
                full_key = (family.name,) + family_key
                if full_key not in groups:
                    groups[full_key] = (family, family_key, [])
                groups[full_key][2].append((job.spec, task))
            if cache_span is not None:
                cache_span.end(hits=cache_hits, lookups=len(tasks))
            if want_cost_info:
                job.handle._obs = {
                    "batch_size": drain_size,
                    "cache_hits": cache_hits,
                }

        group_errors: dict[tuple, BaseException] = {}
        for full_key, (family, family_key, members) in groups.items():
            kernel_span = None
            if batch_span is not None:
                kernel_span = batch_span.child(
                    "engine.run_group",
                    family=family.name,
                    queries=len(members),
                )
            try:
                with _activate_span(kernel_span):
                    results = family.run_group(
                        self.engine, family_key, members
                    )
            except BaseException as error:
                group_errors[full_key] = error
                continue
            finally:
                if kernel_span is not None:
                    kernel_span.end()
            for (spec, task), result in zip(members, results):
                task.result = result
                cache_key = family.cache_key(spec, task)
                if cache_key is not None:
                    self.cache.put((family.name,) + cache_key, result)

        for job, family, tasks in plans:
            failed = next(
                (
                    group_errors[
                        (family.name,)
                        + family.group_key(job.spec, task)
                    ]
                    for task in tasks
                    if task.result is None
                ),
                None,
            )
            if failed is not None:
                job.handle._set_error(failed)
                continue
            try:
                job.handle._set_result(family.assemble(job.spec, tasks))
            except BaseException as error:
                job.handle._set_error(error)

    def _run_stream(self, job: _StreamJob) -> None:
        """Serve one streaming job, under its own trace span when the
        request was traced (the queue span ends here; a service.stream
        span is activated around the engine call so remote stores and
        fault sites attach to it)."""
        span = None
        if job.span is not None:
            job.span.end()
            span = job.span.tracer.start_span(
                "service.stream", job.spec.trace, family=job.spec.family
            )
        try:
            with _activate_span(span):
                self._run_stream_inner(job)
        finally:
            if span is not None:
                span.end()

    def _run_stream_inner(self, job: _StreamJob) -> None:
        spec = job.spec
        k = spec.top_k
        stop = _CancellableStop(spec.resolved_stop(), job.cancel)

        def on_iteration(state) -> None:
            certified = None
            if k is not None and state.scores is not None:
                certified = _certificate_holds(
                    state.scores, k, state.l1_error
                )
            job.out.put(
                QuerySnapshot(
                    iteration=state.iteration,
                    l1_error=state.l1_error,
                    frontier_size=state.frontier_size,
                    scores=state.scores.copy(),
                    certified=certified,
                )
            )

        try:
            result = self.engine.query_stream(
                spec.nodes[0], stop, on_iteration
            )
            if k is not None:
                result = top_k_result(result, k)
            job.handle._set_result(result)
        except BaseException as error:
            job.handle._set_error(error)
        finally:
            with self._streams_lock:
                self._active_streams.discard(job)
            job.out.put(_STREAM_DONE)
