"""Deterministic fault injection for the serving/server stack.

A :class:`FaultPlan` is a seedable schedule of failures that tests thread
into the components under test: fail (or delay) the Nth disk read, make
the scheduler's executor raise, tear a server frame mid-write, SIGKILL a
forked server after m requests.  Components accept an optional
``fault_plan`` and call :meth:`FaultPlan.fire` at named **sites**; when
no plan is installed the hook is a single ``is None`` check, so the hot
path is untouched.

Sites wired into the stack
--------------------------
The full registry; components name their sites here so suites can grep
one table instead of the codebase.

=====================  ===================================================
site                   fired …
=====================  ===================================================
``ppv_store.read``     per hub record actually read from disk (the
                       misses of ``get`` / ``get_many``, one per unique hub)
``graph_store.load``   per cluster segment actually loaded from disk
                       (pool misses and shard ``read_segment`` reads)
``scheduler.execute``  per drain, just before the executor runs
``server.request``     per parsed request line, before dispatch
``server.send``        per response frame, before the write
``client.connect``     on :class:`PPVClient` construction
``client.send``        per client request line written
``client.recv``        per client response line read
``router.dispatch``    per shard request a :class:`~repro.sharding.
                       ShardFleet` fans out, before the send
``router.connect``     per shard (re)connection the fleet opens
``shard.recv``         per shard reply the fleet reads (first try and
                       the reconnect retry)
=====================  ===================================================

The three ``router.*``/``shard.*`` sites live on the *router's* fleet
(install the plan via ``RouterEngine(fault_plan=...)``), not on the
per-shard ``PPVClient`` connections — the generic ``client.*`` sites
stay quiet during fan-out so a rule there cannot double-fire.

Rules
-----
:meth:`FaultPlan.on` arms one rule::

    plan = FaultPlan()
    plan.on("ppv_store.read", nth=3)                  # 3rd read raises
    plan.on("scheduler.execute", delay=0.05, times=2) # 2 slow drains
    plan.on("server.send", after=5, torn=True)        # tear frame 6
    plan.on("server.request", after=10, kill=True)    # SIGKILL server

Trigger selection: ``nth=k`` fires on exactly the k-th hit (1-based) of
that site; ``after=m`` fires on every hit past the first m (bounded by
``times``); ``probability=p`` gates each eligible hit on the plan's
seeded RNG, making random-looking schedules reproducible.  A rule
disarms after ``times`` triggers (``times=None`` never disarms).

Trigger action, in order: sleep ``delay`` seconds if given; SIGKILL the
*current process* if ``kill`` (the fault suites arm it in a server that
:class:`~repro.server.pool.ServerPool` forked);
return a truthy :class:`FaultAction` if ``torn`` (the transport caller
writes a truncated frame and drops the connection); otherwise raise
``error`` (default :class:`InjectedFault`).  A pure ``delay`` rule
raises nothing — it only stalls.

Every trigger is recorded in :attr:`FaultPlan.fired` so tests can assert
the schedule actually happened (a fault that never fires is a test that
proves nothing).
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field


class InjectedFault(RuntimeError):
    """The default error raised by a triggered fault rule."""


@dataclass
class FaultAction:
    """What a triggered rule asks its call site to do.

    Only returned (rather than raised) for effects the *caller* must
    implement — currently ``torn`` frame writes.  Truthy so transports
    can write ``if plan.fire(site): <tear>``.
    """

    site: str
    torn: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return True


@dataclass
class FaultRule:
    """One armed fault (see :meth:`FaultPlan.on` for field semantics)."""

    site: str
    nth: int | None = None
    after: int = 0
    probability: float | None = None
    error: "BaseException | type[BaseException] | None" = None
    delay: float = 0.0
    torn: bool = False
    kill: bool = False
    times: int | None = 1
    hits: int = 0
    triggered: int = 0

    def _matches(self, hit: int, rng: random.Random) -> bool:
        if self.times is not None and self.triggered >= self.times:
            return False
        if self.nth is not None:
            if hit != self.nth:
                return False
        elif hit <= self.after:
            return False
        if self.probability is not None and rng.random() >= self.probability:
            return False
        return True


@dataclass
class FiredFault:
    """One recorded trigger: which rule, which hit, caller context."""

    site: str
    rule: FaultRule
    hit: int
    context: dict = field(default_factory=dict)


class FaultPlan:
    """A seedable, thread-safe schedule of injected faults.

    Parameters
    ----------
    seed:
        Seeds the RNG behind ``probability`` rules; two plans built with
        the same seed and rules trigger identically.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._rules: list[FaultRule] = []
        self._site_hits: dict = {}
        self.fired: list[FiredFault] = []

    def on(
        self,
        site: str,
        *,
        nth: int | None = None,
        after: int = 0,
        probability: float | None = None,
        error: "BaseException | type[BaseException] | None" = None,
        delay: float = 0.0,
        torn: bool = False,
        kill: bool = False,
        times: int | None = 1,
    ) -> FaultRule:
        """Arm one rule at ``site`` and return it.

        ``nth`` fires on exactly that hit (1-based); otherwise hits
        past ``after`` are eligible.  ``probability`` gates eligible
        hits on the seeded RNG.  The rule disarms after ``times``
        triggers (``None``: never).  Action on trigger: sleep
        ``delay``; then ``kill`` (SIGKILL own process) or ``torn``
        (return a :class:`FaultAction`) or raise ``error`` (class or
        instance; default :class:`InjectedFault`) — a pure-``delay``
        rule returns ``None`` instead of raising.
        """
        if nth is not None and nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        rule = FaultRule(
            site=site,
            nth=nth,
            after=after,
            probability=probability,
            error=error,
            delay=delay,
            torn=torn,
            kill=kill,
            times=times,
        )
        with self._lock:
            self._rules.append(rule)
        return rule

    def hits(self, site: str) -> int:
        """How many times ``site`` has fired (triggered or not)."""
        with self._lock:
            return self._site_hits.get(site, 0)

    def fire(self, site: str, **context) -> FaultAction | None:
        """Report one hit of ``site``; trigger matching rules.

        Returns a :class:`FaultAction` for caller-implemented effects
        (``torn``), ``None`` when nothing (or only a delay) triggered.
        Raises the rule's error otherwise.  Components guard the call
        with ``if plan is not None`` so an uninstrumented run never
        enters here.
        """
        triggered: list[tuple[FaultRule, int]] = []
        with self._lock:
            hit = self._site_hits.get(site, 0) + 1
            self._site_hits[site] = hit
            for rule in self._rules:
                if rule.site != site:
                    continue
                rule.hits += 1
                if rule._matches(hit, self._rng):
                    rule.triggered += 1
                    self.fired.append(FiredFault(site, rule, hit, context))
                    triggered.append((rule, hit))
        if triggered:
            # Triggered faults show up as events on the active trace
            # span (if any), so an injected failure is visible in the
            # span tree of the query it hit.  Lazy import: repro.faults
            # must stay importable without repro.obs on the path.
            try:
                from repro.obs.trace import current_span
            except ImportError:  # pragma: no cover
                current_span = None
            span = current_span() if current_span is not None else None
            if span is not None:
                for rule, rule_hit in triggered:
                    span.event("fault", site=site, hit=rule_hit)
        action: FaultAction | None = None
        error: BaseException | None = None
        for rule, _ in triggered:
            if rule.delay > 0:
                time.sleep(rule.delay)
            if rule.kill:
                os.kill(os.getpid(), signal.SIGKILL)
            if rule.torn:
                action = FaultAction(site=site, torn=True)
                continue
            if rule.error is None and rule.delay > 0:
                continue  # pure slowdown: stall, don't fail
            if error is None:
                raised = rule.error
                if raised is None:
                    raised = InjectedFault(f"injected fault at {site!r}")
                elif isinstance(raised, type):
                    raised = raised(f"injected fault at {site!r}")
                error = raised
        if error is not None:
            raise error
        return action

    def fired_at(self, site: str) -> list[FiredFault]:
        """The recorded triggers of one site, in order."""
        with self._lock:
            return [record for record in self.fired if record.site == site]


def fire(plan: FaultPlan | None, site: str, **context) -> FaultAction | None:
    """``plan.fire(site)`` guarded for the common ``plan is None`` case."""
    if plan is None:
        return None
    return plan.fire(site, **context)
