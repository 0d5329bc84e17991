"""The query-family registry: every served analysis behind one seam.

The stack's original central assumption — "a query is a PPV request" —
is inverted here: a query is a *family-tagged* :class:`QuerySpec`, and a
:class:`QueryFamily` descriptor tells the stack everything it needs to
serve that family end to end:

* **capability probe** (:meth:`QueryFamily.supports`) — can this engine
  answer the family at all?  The service refuses unsupported specs with
  :class:`UnsupportedFamilyError`, which the TCP front-end and the shard
  router surface as the structured ``unsupported_family`` wire error.
* **spec validation** (:meth:`QueryFamily.validate`) — family-specific
  parameter checks, run at admission on the caller's thread.
* **batch kernel adapter** (:meth:`QueryFamily.plan` /
  :meth:`QueryFamily.group_key` / :meth:`QueryFamily.run_group` /
  :meth:`QueryFamily.assemble`) — how specs decompose into engine
  tasks, which tasks may share one engine batch, and how one coalesced
  group actually executes.
* **cacheability rules** (:meth:`QueryFamily.cache_key`) — which tasks
  the :class:`~repro.serving.cache.PopularityCache` may serve; the
  service prefixes every key with the family name, so families can
  never collide in the cache.
* **wire codec** (:meth:`QueryFamily.decode_request` /
  :meth:`QueryFamily.encode_result`) — the ``query`` verb's request
  fields and response payload for this family.

Registering a family (:func:`register_family`) therefore buys it the
whole serving stack for free: coalescing, popularity caching, the
latency-histogram stats, the TCP server, and capability-aware routing
through the shard router.

Built-ins
---------
``ppv`` and ``top_k`` re-express the original PPV paths — same task
planning, same group keys, same cache keys (modulo the family prefix),
same wire payloads — so their served results stay bitwise equal to
the pre-registry code.  ``hitting``
(:func:`repro.core.hitting.scheduled_hitting`) and ``reachability``
(:func:`repro.core.reachability.reachability_query`) are the first
genuinely new families: both need direct graph access, so they run on
the memory backend and are refused with the structured error elsewhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.batch import batch_safe
from repro.core.hitting import DEFAULT_BETA, scheduled_hitting
from repro.core.linearity import combine_results
from repro.core.prime import _max_rounds
from repro.core.query import (
    QueryResult,
    StopAfterIterations,
    StopAfterTime,
    StopAtL1Error,
    any_of,
)
from repro.core.reachability import (
    DEFAULT_MAX_TOUR_LENGTH,
    reachability_query,
)
from repro.core.topk import top_k_result
from repro.graph.pagerank import DEFAULT_ALPHA
from repro.serving.spec import (
    DEFAULT_TOPK_BUDGET,
    QuerySpec,
    integer_field,
    real_field,
)

MAX_SERVED_TOUR_LENGTH = 12
"""Hard ceiling on served ``reachability`` tour length: enumeration is
exponential, so longer requests are refused at validation."""

MAX_SERVED_HITTING_ROUNDS = 256
MAX_SERVED_HITTING_LEVELS = 64
"""Ceilings on a served ``hitting`` request's push depth
(``_max_rounds(1 - beta, epsilon)``; the defaults need 132) and levels: a
group runs up to ``num_hubs`` such pushes on the one drain thread."""


class UnsupportedFamilyError(ValueError):
    """The engine behind a service cannot answer this query family.

    Carries ``family`` and ``backend`` so transports can render the
    structured ``unsupported_family`` wire error; subclasses
    ``ValueError`` so family-unaware callers still see a plain request
    failure rather than a crash.
    """

    def __init__(self, family: str, backend: str) -> None:
        super().__init__(
            f"backend {backend!r} does not support query family "
            f"{family!r}"
        )
        self.family = family
        self.backend = backend


class FamilyTask:
    """One single-node engine task planned from a spec."""

    __slots__ = ("node", "kind", "stop", "result")

    def __init__(self, node: int, kind: str, stop=None) -> None:
        self.node = node
        self.kind = kind  # "stop" | "topk" | the family's own kinds
        self.stop = stop  # resolved StoppingCondition (kind == "stop")
        self.result = None


def _nodes_from_request(request: dict):
    """The ``node``/``nodes`` field shared by every family's decoder."""
    nodes = request.get("nodes", request.get("node"))
    if nodes is None:
        raise ValueError('request needs "node" or "nodes"')
    return nodes


def ranked_scores(scores: np.ndarray, nodes: np.ndarray) -> list:
    """The wire's ranked list ``[[node, score], ...]`` for ``nodes`` in
    the order given: one gather and one ``tolist`` each, no per-node
    numpy scalar."""
    nodes = np.asarray(nodes, dtype=np.intp)
    return [
        [node, score]
        for node, score in zip(nodes.tolist(), scores[nodes].tolist())
    ]


def _encode_scored(spec: QuerySpec, result: QueryResult, top: int) -> dict:
    """The PPV-shaped response payload (plain and certified top-k).

    Byte-identical to the pre-registry ``render_result``: no ``family``
    key, so existing clients and recorded payloads keep matching.
    """
    payload: dict = {"nodes": list(spec.nodes)}
    if result.cluster_faults is not None:  # the disk I/O record
        payload["cluster_faults"] = result.cluster_faults
        payload["hub_reads"] = result.hub_reads
        if result.truncated:
            payload["truncated"] = True
    payload["iterations"] = int(result.iterations)
    payload["l1_error"] = float(result.l1_error)
    if result.certified is not None:  # certified top-k
        payload["certified"] = bool(result.certified)
        payload["top"] = ranked_scores(result.scores, result.top)
    else:
        payload["top"] = ranked_scores(result.scores, result.top_k(top))
    return payload


def _combine_ppv(spec: QuerySpec, tasks: Sequence[FamilyTask]) -> QueryResult:
    """Multi-node assembly via the Linearity Theorem (both backends)."""
    combined = combine_results(
        spec.nodes, spec.weight_array(), [task.result for task in tasks]
    )
    if spec.top_k is not None:
        return top_k_result(combined, spec.top_k)
    return combined


class QueryFamily:
    """Base descriptor: override the hooks your family needs.

    The defaults give a single-node, parameter-tupled family: one task
    per spec, coalescing and caching keyed by the spec's ``params``,
    request parameters read from the top-level fields named in
    :attr:`PARAM_NAMES`.  A minimal new family implements
    :meth:`run_group` (how a coalesced group executes) and
    :meth:`encode_result` (its wire payload), then registers itself.
    """

    name: str = ""
    streamable: bool = False
    """Whether ``PPVService.stream`` can serve this family (requires
    the engine's per-iteration callback contract, which is PPV-shaped)."""
    PARAM_NAMES: tuple[str, ...] = ()
    """Request fields :meth:`decode_request` lifts into ``params``."""

    def supports(self, engine) -> bool:
        """Whether ``engine`` can answer this family at all."""
        return True

    def validate(self, spec: QuerySpec, engine) -> None:
        """Family-specific admission checks (node range is the
        service's job and already done)."""

    def plan(self, spec: QuerySpec) -> list[FamilyTask]:
        """Decompose a spec into single-node engine tasks."""
        return [FamilyTask(node, self.name) for node in spec.nodes]

    def group_key(self, spec: QuerySpec, task: FamilyTask) -> tuple:
        """Tasks with equal keys may share one engine batch.

        The service prefixes the family name, so families never
        coalesce together regardless of what this returns.
        """
        return spec.params

    def cache_key(self, spec: QuerySpec, task: FamilyTask) -> tuple | None:
        """Popularity-cache key for one task, or ``None`` when the task
        must not be cached.  Prefixed with the family name by the
        service, so families can never alias each other's entries.
        """
        return (task.node,) + spec.params

    def run_group(
        self, engine, family_key: tuple,
        members: Sequence[tuple[QuerySpec, FamilyTask]],
    ) -> list:
        """Execute one coalesced group; one result per member, in order."""
        raise NotImplementedError(
            f"family {self.name!r} does not implement run_group"
        )

    def assemble(self, spec: QuerySpec, tasks: Sequence[FamilyTask]):
        """Fold task results into the spec's final result object."""
        return tasks[0].result

    def decode_request(self, request: dict) -> QuerySpec:
        """Translate a ``query``/``stream`` request into a spec.

        Raises plain ``ValueError``/``TypeError`` on bad fields; the
        protocol layer wraps them into the structured ``invalid`` error.
        """
        params = {
            name: request[name]
            for name in self.PARAM_NAMES
            if request.get(name) is not None
        }
        return QuerySpec(
            _nodes_from_request(request), family=self.name, params=params
        )

    def encode_result(self, spec: QuerySpec, result, top: int) -> dict:
        """The ``query`` verb's response payload for one result."""
        raise NotImplementedError(
            f"family {self.name!r} does not implement encode_result"
        )


class PPVFamily(QueryFamily):
    """Plain PPV under a stopping rule — the stack's original query."""

    name = "ppv"
    streamable = True

    def supports(self, engine) -> bool:
        return callable(getattr(engine, "query_batch", None))

    def plan(self, spec: QuerySpec) -> list[FamilyTask]:
        stop = spec.resolved_stop()
        return [FamilyTask(node, "stop", stop) for node in spec.nodes]

    def group_key(self, spec: QuerySpec, task: FamilyTask) -> tuple:
        try:
            hash(task.stop)
            return ("stop", task.stop)
        except TypeError:
            return ("stop-instance", id(task.stop))

    def cache_key(self, spec: QuerySpec, task: FamilyTask) -> tuple | None:
        try:
            if not batch_safe(task.stop):
                return None
            hash(task.stop)
        except TypeError:
            return None
        return ("stop", task.node, task.stop)

    def run_group(self, engine, family_key, members) -> list:
        nodes = [task.node for _spec, task in members]
        return engine.query_batch(nodes, members[0][1].stop)

    def assemble(self, spec: QuerySpec, tasks):
        if not spec.is_multi:
            return tasks[0].result
        return _combine_ppv(spec, tasks)

    def decode_request(self, request: dict) -> QuerySpec:
        if request.get("top_k") is not None:
            raise ValueError(
                'family "ppv" does not take top_k; use family "top_k"'
            )
        eta = integer_field("eta", request.get("eta", 2))
        if eta < 0:
            raise ValueError(f'"eta" must not be negative, got {eta}')
        conditions = [StopAfterIterations(eta)]
        if request.get("target_error") is not None:
            target = real_field("target_error", request["target_error"])
            conditions.append(StopAtL1Error(target))
        if request.get("time_limit") is not None:
            limit = real_field("time_limit", request["time_limit"])
            conditions.append(StopAfterTime(limit))
        stop = conditions[0] if len(conditions) == 1 else any_of(*conditions)
        return QuerySpec(
            _nodes_from_request(request),
            weights=request.get("weights"),
            stop=stop,
        )

    def encode_result(self, spec: QuerySpec, result, top: int) -> dict:
        return _encode_scored(spec, result, top)


class TopKFamily(QueryFamily):
    """Certified top-k: iterate until the top set is provably exact."""

    name = "top_k"
    streamable = True

    def supports(self, engine) -> bool:
        return callable(getattr(engine, "query_top_k_batch", None))

    def plan(self, spec: QuerySpec) -> list[FamilyTask]:
        if not spec.is_multi:
            return [FamilyTask(spec.nodes[0], "topk", spec.resolved_stop())]
        # Multi-node certified top-k: per-node sub-queries under the
        # certificate rule, combined then re-ranked in assemble().
        stop = spec.resolved_stop()
        return [FamilyTask(node, "stop", stop) for node in spec.nodes]

    def group_key(self, spec: QuerySpec, task: FamilyTask) -> tuple:
        if task.kind == "topk":
            return ("topk", spec.top_k, spec.top_k_budget)
        try:
            hash(task.stop)
            return ("stop", task.stop)
        except TypeError:
            return ("stop-instance", id(task.stop))

    def cache_key(self, spec: QuerySpec, task: FamilyTask) -> tuple | None:
        if task.kind == "topk":
            return ("topk", task.node, spec.top_k, spec.top_k_budget)
        try:
            if not batch_safe(task.stop):
                return None
            hash(task.stop)
        except TypeError:
            return None
        return ("stop", task.node, task.stop)

    def run_group(self, engine, family_key, members) -> list:
        nodes = [task.node for _spec, task in members]
        if family_key[0] == "topk":
            return engine.query_top_k_batch(
                nodes, family_key[1], family_key[2]
            )
        return engine.query_batch(nodes, members[0][1].stop)

    def assemble(self, spec: QuerySpec, tasks):
        if not spec.is_multi:
            return tasks[0].result
        return _combine_ppv(spec, tasks)

    def decode_request(self, request: dict) -> QuerySpec:
        if request.get("top_k") is None:
            raise ValueError('family "top_k" needs a "top_k" field')
        return QuerySpec(
            _nodes_from_request(request),
            weights=request.get("weights"),
            top_k=integer_field("top_k", request["top_k"]),
            top_k_budget=integer_field(
                "budget", request.get("budget", DEFAULT_TOPK_BUDGET)
            ),
        )

    def encode_result(self, spec: QuerySpec, result, top: int) -> dict:
        return _encode_scored(spec, result, top)


class HittingFamily(QueryFamily):
    """Discounted hitting probability to a target node (Sect. 7).

    Served by :func:`repro.core.hitting.scheduled_hitting`, which needs
    the graph and the hub mask in memory — so only the memory backend
    supports it.  Its pushes are batch-of-one ``prime_push_many`` calls,
    the PPV families' kernel; same-``(target, beta, epsilon)`` queries in
    one coalesced group share the hub-rooted ones through a cache that
    lives for that group, so a group pushes from each hub at most once.
    """

    name = "hitting"
    PARAM_NAMES = ("target", "beta", "max_levels", "epsilon", "delta")

    def supports(self, engine) -> bool:
        return (
            getattr(engine, "graph", None) is not None
            and getattr(engine, "index", None) is not None
        )

    def _config(self, spec: QuerySpec, engine=None) -> tuple:
        params = spec.params_dict()
        unknown = set(params) - set(self.PARAM_NAMES)
        if unknown:
            raise ValueError(
                f"unknown hitting parameter(s) {sorted(unknown)}; "
                f"known: {list(self.PARAM_NAMES)}"
            )
        if "target" not in params:
            raise ValueError('family "hitting" needs a "target" node')
        target = integer_field("target", params["target"])
        beta = real_field("beta", params.get("beta", DEFAULT_BETA))
        max_levels = integer_field(
            "max_levels", params.get("max_levels", 16)
        )
        epsilon = real_field("epsilon", params.get("epsilon", 1e-9))
        delta = real_field("delta", params.get("delta", 0.0))
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 <= max_levels <= MAX_SERVED_HITTING_LEVELS:
            raise ValueError(
                f"max_levels must lie in [0, {MAX_SERVED_HITTING_LEVELS}]"
            )
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        rounds = _max_rounds(1.0 - beta, epsilon)
        if rounds > MAX_SERVED_HITTING_ROUNDS:
            raise ValueError(
                f"beta={beta:g} with epsilon={epsilon:g} needs a {rounds}-round "
                f"push; at most {MAX_SERVED_HITTING_ROUNDS} are served"
            )
        if delta < 0.0:
            raise ValueError("delta must be >= 0")
        if engine is not None and not 0 <= target < engine.num_nodes:
            raise ValueError(f"hitting target {target} out of range")
        return (target, beta, max_levels, epsilon, delta)

    def validate(self, spec: QuerySpec, engine) -> None:
        if spec.is_multi:
            raise ValueError(
                'family "hitting" takes a single query node'
            )
        self._config(spec, engine)

    def group_key(self, spec: QuerySpec, task: FamilyTask) -> tuple:
        return self._config(spec)

    def cache_key(self, spec: QuerySpec, task: FamilyTask) -> tuple | None:
        return (task.node,) + self._config(spec)

    def run_group(self, engine, family_key, members) -> list:
        target, beta, max_levels, epsilon, delta = family_key
        # Segments are pure in (hub, target, beta, epsilon): sharing them
        # across the group changes no bit of any member's answer.
        push_cache: dict = {}
        return [
            scheduled_hitting(
                engine.graph,
                task.node,
                target,
                engine.index.hub_mask,
                beta=beta,
                max_levels=max_levels,
                epsilon=epsilon,
                delta=delta,
                push_cache=push_cache,
            )
            for _spec, task in members
        ]

    def encode_result(self, spec: QuerySpec, result, top: int) -> dict:
        return {
            "family": self.name,
            "nodes": list(spec.nodes),
            "target": int(spec.param("target")),
            "value": float(result.value),
            "remaining_mass": float(result.remaining_mass),
            "upper_bound": float(result.value + result.remaining_mass),
            "iterations": int(result.iterations),
            "history": [float(v) for v in result.history],
        }


class ReachabilityFamily(QueryFamily):
    """Truncated-tour PPV (Eq. 1-2) with its truncation certificate.

    The executable-specification enumeration of
    :func:`repro.core.reachability.brute_force_ppv`, served: exponential
    in ``max_length``, so the length is capped at
    :data:`MAX_SERVED_TOUR_LENGTH` and the family only runs where the
    graph is in memory.
    """

    name = "reachability"
    PARAM_NAMES = ("max_length", "alpha")

    def supports(self, engine) -> bool:
        return getattr(engine, "graph", None) is not None

    def _config(self, spec: QuerySpec) -> tuple:
        params = spec.params_dict()
        unknown = set(params) - set(self.PARAM_NAMES)
        if unknown:
            raise ValueError(
                f"unknown reachability parameter(s) {sorted(unknown)}; "
                f"known: {list(self.PARAM_NAMES)}"
            )
        max_length = integer_field(
            "max_length", params.get("max_length", DEFAULT_MAX_TOUR_LENGTH)
        )
        alpha = real_field("alpha", params.get("alpha", DEFAULT_ALPHA))
        if not 0 <= max_length <= MAX_SERVED_TOUR_LENGTH:
            raise ValueError(
                "max_length must lie in "
                f"[0, {MAX_SERVED_TOUR_LENGTH}] (tour enumeration is "
                "exponential)"
            )
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        return (max_length, alpha)

    def validate(self, spec: QuerySpec, engine) -> None:
        if spec.is_multi:
            raise ValueError(
                'family "reachability" takes a single query node'
            )
        self._config(spec)

    def group_key(self, spec: QuerySpec, task: FamilyTask) -> tuple:
        return self._config(spec)

    def cache_key(self, spec: QuerySpec, task: FamilyTask) -> tuple | None:
        return (task.node,) + self._config(spec)

    def run_group(self, engine, family_key, members) -> list:
        max_length, alpha = family_key
        return [
            reachability_query(
                engine.graph, task.node, max_length, alpha=alpha
            )
            for _spec, task in members
        ]

    def encode_result(self, spec: QuerySpec, result, top: int) -> dict:
        return {
            "family": self.name,
            "nodes": list(spec.nodes),
            "max_length": int(result.max_length),
            "alpha": float(result.alpha),
            "truncation_bound": float(result.truncation_bound),
            "top": [list(pair) for pair in result.top_k(top)],
        }


# --------------------------------------------------------------------- #
# Registry

_FAMILIES: dict[str, QueryFamily] = {}


def register_family(family: QueryFamily) -> None:
    """Register (or replace) a family descriptor under its name."""
    if not family.name:
        raise ValueError("a query family needs a non-empty name")
    _FAMILIES[family.name] = family


def resolve_family(name: str) -> QueryFamily:
    """The family registered under ``name``.

    Raises
    ------
    KeyError
        With the list of known families, if ``name`` is unknown.
    """
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown query family {name!r}; registered: "
            f"{sorted(_FAMILIES)}"
        ) from None


def available_families() -> tuple[str, ...]:
    """Names of all registered families, sorted."""
    return tuple(sorted(_FAMILIES))


def supported_families(engine) -> tuple[str, ...]:
    """Names of the registered families ``engine`` can answer, sorted."""
    return tuple(
        name
        for name in available_families()
        if _FAMILIES[name].supports(engine)
    )


register_family(PPVFamily())
register_family(TopKFamily())
register_family(HittingFamily())
register_family(ReachabilityFamily())
