"""The serving request model: specs, handles, and streaming snapshots.

A :class:`QuerySpec` is the backend-agnostic description of one request:
which query *family* answers it (``ppv``, ``top_k``, ``hitting``,
``reachability``, or anything registered through
:mod:`repro.serving.families`), which node(s) it is about (multi-node
PPV sets combine via the Linearity Theorem, see
:mod:`repro.core.linearity`), how to stop (a stopping condition or a
certified top-k target), and family-specific parameters.  Specs are
frozen and hashable so they can key caches and group compatible
requests into one engine batch.

A :class:`QueryHandle` is the future returned by
:meth:`~repro.serving.PPVService.submit`: the scheduler completes it
once the coalesced batch containing the spec has run.

A :class:`QuerySnapshot` is one frame of a streaming query
(:meth:`~repro.serving.PPVService.stream`): the per-iteration state of
Algorithm 2, including a stable copy of the partial estimate so
accuracy-aware clients can consume PPVs as they converge.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.linearity import normalise_weights
from repro.core.query import StoppingCondition, StopAfterIterations
from repro.core.topk import StopWhenCertified
from repro.metrics.ranking import top_k_nodes

DEFAULT_ETA = 2
"""Default incremental iterations when a spec names no stopping rule."""

DEFAULT_TOPK_BUDGET = 32
"""Default certificate iteration budget for ``top_k`` specs."""

_BUILTIN_PPV_FAMILIES = ("ppv", "top_k")
"""The two PPV-shaped families: the only ones that take ``stop`` /
``top_k``, and the only ones with no free-form ``params``."""


def integer_field(name: str, value) -> int:
    """``value`` of the request field ``name`` as an ``int``: only an
    ``int`` (not a ``bool``) or a numpy integer is one; ``true``, ``5.0``
    and ``"7"`` are a ``TypeError`` naming the field, never coerced."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f'"{name}" must be an integer, not {value!r}')


def real_field(name: str, value) -> float:
    """``value`` of the request field ``name`` as a finite ``float``: only
    an ``int`` (not a ``bool``), a ``float`` or a numpy number is one;
    ``true``, ``"0.2"``, ``NaN`` and ``Infinity`` are a ``TypeError``
    naming the field, never coerced."""
    if not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise TypeError(f'"{name}" must be a finite real number, not {value!r}')


@dataclass(frozen=True)
class QuerySpec:
    """One serving request, independent of the backend that runs it.

    Parameters
    ----------
    nodes:
        A single node id or a sequence of them.  Multi-node specs are
        decomposed into single-node sub-queries and recombined with the
        Linearity Theorem.
    weights:
        Teleport preference per node (multi-node specs only); uniform
        when omitted.  Normalised to sum to 1 at construction.
    stop:
        Stopping condition shared by every sub-query; defaults to the
        paper's ``StopAfterIterations(2)``.  Mutually exclusive with
        ``top_k``.
    top_k:
        Certified top-k serving: iterate until the top-``top_k`` set is
        provably exact or ``top_k_budget`` iterations are spent.
    top_k_budget:
        Certificate iteration budget (only with ``top_k``).
    family:
        Query-family name.  Defaults to ``"top_k"`` when ``top_k`` is
        given, else ``"ppv"`` — so every pre-family spelling still
        means what it meant.  Naming ``"top_k"`` explicitly requires
        ``top_k``; naming ``"ppv"`` forbids it.  Non-PPV families
        (``hitting``, ``reachability``, registered extensions) take
        neither ``stop`` nor ``top_k``: their knobs go in ``params``.
    params:
        Family-specific parameters as a mapping with hashable values
        (e.g. ``{"target": 7}`` for ``hitting``).  Stored as a sorted
        ``(name, value)`` tuple so specs stay hashable.  The spec does
        not validate parameter *names* — the family does, when the
        service admits the spec.
    """

    nodes: tuple[int, ...]
    weights: tuple[float, ...] | None = None
    stop: StoppingCondition | None = None
    top_k: int | None = None
    top_k_budget: int = DEFAULT_TOPK_BUDGET
    family: str = "ppv"
    params: tuple[tuple[str, object], ...] = ()
    # Observability context (a repro.obs.trace.SpanContext) riding along
    # with the request.  compare=False keeps it out of __eq__/__hash__,
    # so traced and untraced twins still share cache entries and
    # coalescing groups — tracing can never change what is served.
    trace: object | None = field(default=None, compare=False, repr=False)

    def __init__(
        self,
        nodes: int | Sequence[int],
        weights: Sequence[float] | None = None,
        stop: StoppingCondition | None = None,
        top_k: int | None = None,
        top_k_budget: int = DEFAULT_TOPK_BUDGET,
        family: str | None = None,
        params: dict | Sequence[tuple[str, object]] | None = None,
        trace: object | None = None,
    ) -> None:
        if isinstance(nodes, (str, bytes)) or not hasattr(nodes, "__iter__"):
            node_tuple: tuple[int, ...] = (integer_field("node", nodes),)
        else:
            node_tuple = tuple(integer_field("nodes", n) for n in nodes)
        if not node_tuple:
            raise ValueError("a QuerySpec needs at least one node")
        resolved_family = family or (
            "top_k" if top_k is not None else "ppv"
        )
        if resolved_family == "top_k" and top_k is None:
            raise ValueError('family "top_k" needs a top_k value')
        if resolved_family != "top_k" and top_k is not None:
            raise ValueError(
                f"family {resolved_family!r} does not take top_k"
            )
        if resolved_family not in _BUILTIN_PPV_FAMILIES:
            if stop is not None:
                raise ValueError(
                    f"family {resolved_family!r} does not take a stopping "
                    "condition; pass family parameters via params"
                )
        if top_k is not None:
            if stop is not None:
                raise ValueError("pass either stop or top_k, not both")
            if top_k <= 0:
                raise ValueError("top_k must be positive")
            if top_k_budget < 0:
                raise ValueError("top_k_budget must be non-negative")
        param_items = params.items() if isinstance(params, dict) else params
        param_tuple: tuple[tuple[str, object], ...] = ()
        if param_items:
            param_tuple = tuple(
                sorted((str(name), value) for name, value in param_items)
            )
        if param_tuple and resolved_family in _BUILTIN_PPV_FAMILIES:
            raise ValueError(
                f"family {resolved_family!r} takes no params; use "
                "stop/top_k/top_k_budget"
            )
        weight_tuple: tuple[float, ...] | None = None
        if weights is not None:
            weight_tuple = tuple(
                normalise_weights(
                    len(node_tuple),
                    [real_field("weights", w) for w in weights],
                ).tolist()
            )
        object.__setattr__(self, "nodes", node_tuple)
        object.__setattr__(self, "weights", weight_tuple)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "top_k", top_k)
        object.__setattr__(self, "top_k_budget", int(top_k_budget))
        object.__setattr__(self, "family", resolved_family)
        object.__setattr__(self, "params", param_tuple)
        object.__setattr__(self, "trace", trace)

    # ------------------------------------------------------------------ #

    def with_trace(self, trace) -> "QuerySpec":
        """A copy of this spec carrying ``trace`` (a
        :class:`repro.obs.trace.SpanContext` naming the trace to
        continue and the span to parent under).

        The copy is equal to (and hashes like) the original — see the
        ``trace`` field comment — so swapping it in is invisible to the
        cache and the batch grouper.
        """
        clone = copy.copy(self)
        object.__setattr__(clone, "trace", trace)
        return clone

    @property
    def is_multi(self) -> bool:
        """Whether this is a multi-node (Linearity Theorem) query."""
        return len(self.nodes) > 1

    def params_dict(self) -> dict[str, object]:
        """The family parameters as a plain dict."""
        return dict(self.params)

    def param(self, name: str, default=None):
        """One family parameter by name, or ``default``."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def weight_array(self) -> np.ndarray:
        """Normalised teleport weights, materialising the uniform default."""
        if self.weights is None:
            return np.full(len(self.nodes), 1.0 / len(self.nodes))
        return np.asarray(self.weights, dtype=float)

    def resolved_stop(self) -> StoppingCondition:
        """The stopping condition sub-queries actually run with.

        ``top_k`` specs resolve to the certificate rule
        (:class:`~repro.core.topk.StopWhenCertified`); otherwise the
        explicit ``stop`` or the paper's default
        ``StopAfterIterations(2)``.
        """
        if self.top_k is not None:
            return StopWhenCertified(
                k=self.top_k, max_iterations=self.top_k_budget
            )
        if self.stop is not None:
            return self.stop
        return StopAfterIterations(DEFAULT_ETA)

class QueryHandle:
    """Future for a submitted :class:`QuerySpec`.

    Completed by the scheduler once the coalesced batch containing the
    spec has been served; :meth:`result` blocks until then (re-raising
    any execution error).
    """

    __slots__ = ("spec", "_event", "_result", "_error", "_callbacks", "_obs")

    def __init__(self, spec: QuerySpec) -> None:
        self.spec = spec
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None
        self._callbacks: list = []
        # Serving-cost breadcrumbs (batch size, cache hits) filled in by
        # an observability-enabled service for the slow-query log.
        self._obs: dict | None = None

    def done(self) -> bool:
        """Whether the result (or an error) is available."""
        return self._event.is_set()

    def add_done_callback(self, callback) -> None:
        """Call ``callback(handle)`` once the handle resolves.

        Runs on the scheduler's drain thread (or immediately on the
        calling thread when the handle is already done), so callbacks
        must be cheap and must not block — hand off to your own event
        loop, e.g. ``loop.call_soon_threadsafe``.  This is the bridge
        the asyncio TCP server (:mod:`repro.server`) uses to await
        handles without parking a thread per request.  Callback
        exceptions are suppressed: a broken observer must not poison
        the drain thread serving everyone else's batch.
        """
        self._callbacks.append(callback)
        if self._event.is_set():
            self._invoke_callbacks()

    def _invoke_callbacks(self) -> None:
        while True:
            try:
                # pop() is atomic, so a registration racing the resolve
                # fires its callback on exactly one of the two threads.
                callback = self._callbacks.pop(0)
            except IndexError:
                return
            try:
                callback(self)
            except Exception:
                pass

    def result(self, timeout: float | None = None):
        """Block until served and return the backend's result object.

        ``ppv`` and ``top_k`` specs, on either backend: a
        :class:`~repro.core.query.QueryResult` (``top_k``: with
        ``certified`` / ``top`` filled in; disk: with the I/O record
        ``cluster_faults`` / ``hub_reads`` / ``truncated``).  Other
        families: the family's own result.

        Raises
        ------
        TimeoutError
            If ``timeout`` elapses before the batch ran.
        Exception
            Whatever the engine raised while serving the spec.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("query handle not served within timeout")
        if self._error is not None:
            raise self._error
        return self._result

    # Called by the scheduler only.
    def _set_result(self, result) -> None:
        self._result = result
        self._event.set()
        self._invoke_callbacks()

    def _set_error(self, error: BaseException) -> None:
        self._error = error
        self._event.set()
        self._invoke_callbacks()


@dataclass(frozen=True, eq=False)
class QuerySnapshot:
    """One streamed frame of an in-flight query.

    Attributes
    ----------
    iteration:
        Incremental iterations completed (0 = prime PPV only).
    l1_error:
        Query-time L1 error of the partial estimate (Eq. 6).
    frontier_size:
        Hubs on the current frontier.
    scores:
        A *copy* of the partial estimate, safe to keep after the stream
        advances (the engine mutates its buffer in place).
    certified:
        For ``top_k`` specs, whether the top-k certificate held at this
        iteration; ``None`` for plain specs.
    """

    iteration: int
    l1_error: float
    frontier_size: int
    scores: np.ndarray = field(repr=False)
    certified: bool | None = None

    def top_k(self, k: int = 10) -> np.ndarray:
        """Node ids of the ``k`` highest partial scores, best first."""
        return top_k_nodes(self.scores, k)
