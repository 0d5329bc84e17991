"""The coalescing micro-batch scheduler behind ``PPVService``.

Concurrent ``submit()`` calls land in one queue; a single drain thread
admits them in arrival order and serves them as **engine batches**: after
the first request of a drain arrives, the scheduler holds the batch open
for up to ``max_delay`` seconds (or until ``max_batch`` requests are
pending, or someone kicks it) so that concurrent callers coalesce into
one call per execution group.  On the disk backend that is what turns two
independent clients from residency-thrashing neighbours into one
cluster-grouped batch — each scheduling wave of
:class:`~repro.storage.disk_engine.DiskFastPPV` faults a cluster in
once and drains every coalesced query that needs it.

All engine work — batch serving *and* streaming queries — runs on the
drain thread, so engines never see concurrent calls and need no locking
of their own: the disk engine's splice block, which outlives its
batches (:mod:`repro.storage.disk_engine`), relies on that.

The scheduler is deliberately engine-agnostic: it moves opaque jobs to an
``execute`` callback (the service's planner) and only owns admission,
batching, flushing and lifecycle.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.obs.metrics import MetricsRegistry

DEFAULT_MAX_BATCH = 64
"""Requests admitted into one drain (engine batches are chunked again
engine-side, so this mainly bounds how long one drain can run)."""

DEFAULT_MAX_DELAY = 0.002
"""Seconds a drain holds the batch open for concurrent arrivals."""

AUTO_DELAY_MIN = 0.0002
"""Floor of the adaptive coalescing window (``max_delay="auto"``)."""

AUTO_DELAY_MAX = DEFAULT_MAX_DELAY
"""Cap of the adaptive coalescing window: ``"auto"`` only ever *shrinks*
the wait below the static default.  A larger cap is a trap for
closed-loop clients (one request in flight each): their inter-arrival
gap includes the window itself, so any cap above the service time
inflates every round-trip to the cap — the window must never exceed a
gap the traffic can close."""

AUTO_DELAY_MULTIPLIER = 4.0
"""The adaptive window spans this many observed inter-arrival gaps, so a
drain typically coalesces a handful of concurrent submitters."""

AUTO_EWMA_ALPHA = 0.2
"""Smoothing factor of the inter-arrival EWMA behind ``"auto"``."""


class CoalescingScheduler:
    """Admission queue + drain thread (see module docstring).

    Parameters
    ----------
    execute:
        ``execute(jobs)`` — serve a list of admitted jobs.  Called on the
        drain thread only.  The service's executor converts failures
        into per-handle errors itself; if ``execute`` raises anyway, the
        batch is *not* silently dropped: ``on_error`` (when given) is
        invoked with the failed batch so every job can be resolved, and
        the error is re-raised out of the next :meth:`flush` — the
        scheduler itself survives and keeps draining.
    max_batch:
        Maximum jobs admitted into one drain.
    max_delay:
        Coalescing window in seconds (0 disables the wait: every drain
        takes whatever is queued the moment it wakes), or the string
        ``"auto"``: the window is tuned continuously from the observed
        arrival rate — an EWMA of submission inter-arrival gaps.  Dense
        traffic holds the window open for
        :data:`AUTO_DELAY_MULTIPLIER` gaps (clamped to
        [:data:`AUTO_DELAY_MIN`, :data:`AUTO_DELAY_MAX`], the cap being
        the static default) so concurrent submitters coalesce; traffic
        arriving slower than the cap waits not at all, because no
        companion would arrive within the window anyway — sparse or
        closed-loop clients get their responses immediately instead of
        taxing every round-trip with the full wait.  A numeric
        ``max_delay`` is entirely unaffected by the estimator.
    on_error:
        Optional ``on_error(jobs, error)`` — called on the drain thread
        when ``execute`` raised, with the batch that failed.  Exceptions
        it raises itself are suppressed (the original error still
        surfaces through :meth:`flush`).
    fault_plan:
        Tests only: a :class:`repro.faults.FaultPlan` whose
        ``scheduler.execute`` site fires on the drain thread just before
        each ``execute(batch)`` call — a raising rule exercises the
        executor-failure path, a delay rule simulates a slow drain.
        ``None`` (the default) keeps the drain loop hook-free.
    registry:
        The :class:`repro.obs.MetricsRegistry` the scheduler reports
        into (a private one when omitted): its admission state (queue
        depth, in-flight jobs, drains served) as function-backed
        gauges/counters, and per-drain batch size and coalescing hold
        time as push histograms (two observations per *drain*, not per
        job).
    """

    def __init__(
        self,
        execute,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay: "float | str" = DEFAULT_MAX_DELAY,
        on_error=None,
        fault_plan=None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if isinstance(max_delay, str):
            if max_delay != "auto":
                raise ValueError(
                    f"max_delay must be a non-negative number or 'auto', "
                    f"not {max_delay!r}"
                )
        elif max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        self._execute = execute
        self._on_error = on_error
        self.fault_plan = fault_plan
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._auto_delay = max_delay == "auto"
        self._ewma_gap: float | None = None
        self._last_arrival: float | None = None
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._thread: threading.Thread | None = None
        self._closed = False
        # A kick covers the jobs admitted before it (by admission count):
        # drains skip the coalescing wait while pre-kick jobs remain, and
        # the kick expires on its own once they are all popped — it can
        # neither leak onto later traffic (the pre-fix bug: a stale flag
        # cleared only on a fully drained queue disabled coalescing for
        # everything arriving during a long burst) nor strand the tail
        # of the kicked burst in a fresh max_delay window.
        self._kick_horizon = 0
        self._jobs_popped = 0
        self._in_flight = 0
        self._error: BaseException | None = None
        self.batches_served = 0
        self.largest_batch = 0
        self.jobs_submitted = 0
        if registry is None:
            registry = MetricsRegistry()
        self._batch_size_hist = registry.histogram(
            "repro_batch_size",
            "Jobs coalesced into one scheduler drain.",
            bounds=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        self._hold_hist = registry.histogram(
            "repro_coalesce_delay_seconds",
            "Seconds each drain held its batch open for stragglers.",
            bounds=(0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1),
        )
        registry.gauge_func(
            "repro_queue_depth",
            "Jobs admitted but not yet popped into a drain.",
            lambda: len(self._queue),
        )
        registry.gauge_func(
            "repro_in_flight",
            "Jobs inside a drain that has not finished executing.",
            lambda: self._in_flight,
        )
        registry.counter_func(
            "repro_batches_served_total",
            "Scheduler drains executed.",
            lambda: self.batches_served,
        )
        registry.gauge_func(
            "repro_largest_batch",
            "Largest drain so far.",
            lambda: self.largest_batch,
        )

    # ------------------------------------------------------------------ #

    def submit(self, job) -> None:
        """Enqueue one job for the next drain."""
        self.submit_many([job])

    def submit_many(self, jobs) -> None:
        """Enqueue several jobs atomically.

        All of them enter the queue under one lock acquisition, so a
        burst submitted together can never be split by a concurrent
        drain waking mid-burst — the foundation of the service's
        determinism guarantee for ``query_many``.
        """
        jobs = list(jobs)
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self._auto_delay:
                self._observe_arrival(time.monotonic())
            self._queue.extend(jobs)
            self.jobs_submitted += len(jobs)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._drain_loop,
                    name="ppv-serving-drain",
                    daemon=True,
                )
                self._thread.start()
            self._cond.notify_all()

    def _observe_arrival(self, now: float) -> None:
        """Feed one submission timestamp into the inter-arrival EWMA.

        Called with the lock held (``"auto"`` mode only).  A whole
        ``submit_many`` burst counts as one arrival: the burst already
        travels together, so only the gap *between* independent
        submitters carries coalescing information.
        """
        if self._last_arrival is not None:
            # Clamp the observation: any gap at or beyond the cap means
            # "too sparse to coalesce" and nothing more — feeding the
            # raw length of an idle spell into the EWMA would keep the
            # window disabled for dozens of arrivals after dense
            # traffic resumes.
            gap = min(now - self._last_arrival, AUTO_DELAY_MAX)
            if self._ewma_gap is None:
                self._ewma_gap = gap
            else:
                self._ewma_gap += AUTO_EWMA_ALPHA * (gap - self._ewma_gap)
        self._last_arrival = now

    def _effective_delay(self) -> float:
        """The coalescing window the next drain should hold open."""
        if not self._auto_delay:
            return self.max_delay
        if self._ewma_gap is None:
            # No gap observed yet: start from the static default.
            return DEFAULT_MAX_DELAY
        if self._ewma_gap >= 0.9 * AUTO_DELAY_MAX:
            # Sparse traffic: no companion would arrive inside the
            # latency budget, so holding the window open only adds
            # latency.  The threshold sits below the cap because
            # observations are clamped *to* the cap — an EWMA fed
            # nothing but clamped gaps approaches AUTO_DELAY_MAX
            # asymptotically and would otherwise never be recognised
            # as sparse after any dense spell.
            return 0.0
        return min(
            AUTO_DELAY_MAX,
            max(AUTO_DELAY_MIN, AUTO_DELAY_MULTIPLIER * self._ewma_gap),
        )

    @property
    def effective_max_delay(self) -> float:
        """The coalescing window currently in force (numeric even in
        ``"auto"`` mode)."""
        with self._cond:
            return self._effective_delay()

    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet popped into a drain."""
        with self._cond:
            return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Jobs popped into a drain that has not finished executing."""
        with self._cond:
            return self._in_flight

    def kick(self) -> None:
        """Close the coalescing window for everything queued so far.

        Drains pop immediately (no ``max_delay`` hold) until every job
        admitted before this call has been served — a burst larger than
        ``max_batch`` goes out back to back — after which the kick
        expires and later submissions coalesce normally again.
        """
        with self._cond:
            self._kick_horizon = max(self._kick_horizon, self.jobs_submitted)
            self._cond.notify_all()

    def _kick_active(self) -> bool:
        # Called with the lock held: pre-kick jobs still unpopped?
        return self._jobs_popped < self._kick_horizon

    def flush(self, timeout: float | None = None) -> None:
        """Kick and block until every queued job has been served.

        Raises
        ------
        TimeoutError
            If the queue did not empty within ``timeout`` seconds.
        BaseException
            A pending executor-level failure (an ``execute`` call that
            raised), re-raised here exactly once instead of being
            swallowed — the jobs of that batch were already resolved
            through ``on_error``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._kick_horizon = max(self._kick_horizon, self.jobs_submitted)
            self._cond.notify_all()
            while self._queue or self._in_flight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("flush timed out")
                # Keep the window closed across drains: a flush means
                # *everything* queued should go out immediately —
                # extend the kick horizon over late arrivals and wake a
                # drain that re-entered a coalescing wait between our
                # wakeups.
                self._kick_horizon = max(
                    self._kick_horizon, self.jobs_submitted
                )
                self._cond.notify_all()
                self._cond.wait(remaining)
            error, self._error = self._error, None
        if error is not None:
            raise error

    def close(self) -> None:
        """Serve whatever is queued, then stop the drain thread.

        Idempotent; further ``submit`` calls raise ``RuntimeError``.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join()

    # ------------------------------------------------------------------ #

    def _drain_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                # Coalescing window: hold the batch open for stragglers
                # unless an unexpired kick covers queued jobs.
                delay = self._effective_delay()
                held_from = time.monotonic()
                if (
                    delay > 0
                    and not self._kick_active()
                    and not self._closed
                ):
                    deadline = time.monotonic() + delay
                    while (
                        len(self._queue) < self.max_batch
                        and not self._kick_active()
                        and not self._closed
                    ):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                batch = []
                while self._queue and len(batch) < self.max_batch:
                    batch.append(self._queue.popleft())
                # The kick horizon expires by itself as pre-kick jobs
                # are popped; nothing to reset here.
                self._jobs_popped += len(batch)
                self._in_flight += len(batch)
            self._batch_size_hist.record(len(batch))
            self._hold_hist.record(time.monotonic() - held_from)
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire("scheduler.execute", jobs=len(batch))
                self._execute(batch)
            except BaseException as error:
                # An executor-level failure must not strand the batch:
                # hand it to on_error so every job gets resolved, and
                # arm the next flush() to re-raise.
                if self._on_error is not None:
                    try:
                        self._on_error(batch, error)
                    except BaseException:  # pragma: no cover - last resort
                        pass
                with self._cond:
                    if self._error is None:
                        self._error = error
            finally:
                with self._cond:
                    self._in_flight -= len(batch)
                    self.batches_served += 1
                    self.largest_batch = max(self.largest_batch, len(batch))
                    self._cond.notify_all()
