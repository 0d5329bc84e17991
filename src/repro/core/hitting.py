"""Scheduled approximation of discounted hitting probability
(paper's future work #3).

"It is promising to apply the same principle of partitioning and
prioritizing tours to other random walk-based algorithms, such as the
hitting and commute time measures." (Sect. 7.)

We demonstrate on the *discounted hitting probability*

    f_p(q) = E[ beta^tau ],   tau = first time a walk from q reaches p,

a standard proximity measure (Sarkar & Moore use its truncated sibling).
It is a sum over *first-passage* tours — tours from ``q`` whose only
visit to ``p`` is their last node — weighted ``beta^length / prod
out-degrees``.  Exactly like inverse P-distance, the tour set partitions
by hub length, each partition splices from hub-rooted *prime hitting
pushes* (hub-interior-free, ``p``-avoiding segments), and earlier
partitions dominate: the uncovered mass after level ``k`` is at most
``beta^(k+1)`` (each interior hub costs at least one edge).

Because first-passage segments must avoid the target, hub segments are
target-specific and cannot come from the global PPV index; the engine
caches them per query instead.  The point of the module is the
*principle transfer* — incremental anytime refinement with a computable
remaining-mass gauge — not index reuse.

One push kernel.  Such a segment *is* the prime push of
:mod:`repro.core.prime` with ``alpha = 1 - beta`` over the barrier set
``hub_mask | {target}``: it forwards ``beta`` of every expanded unit,
expands its source even when that is a hub, and records what reaches a
barrier node as border arrival mass — at the target column the absorbed
mass, elsewhere the hub border.  So a segment is one batch-of-one
:func:`~repro.core.prime.prime_push_many` call on the compiled rounds.

The push does not report what it cuts off (arrivals below ``epsilon``,
dangling nodes), but mass is conserved: every arrival is border ``B``,
dropped ``D`` or expanded ``E`` and scores ``alpha`` of itself, and what
arrives is the source's unit plus what expansions forward —
``scores.sum() / alpha = B + D + E = 1 + beta * E``, hence
``D = (1 - scores.sum()) / beta - B``.  Mass abandoned unscored at the
round bound enters that divided by ``beta`` (over-counted) and negative
round-off is clamped, so ``D`` is the dropped mass to 1e-15 absolute and,
to that slack, ``value <= f_p(q) <= value + remaining_mass`` stays sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.prime import prime_push_many
from repro.graph.digraph import DiGraph

DEFAULT_BETA = 0.85
"""Discount per step; matches ``1 - alpha`` of the PPV experiments."""


@dataclass
class HittingEstimate:
    """Anytime estimate of the discounted hitting probability.

    Attributes
    ----------
    value:
        Lower bound on ``f_p(q)``, tightening with each iteration.
    remaining_mass:
        Discounted mass still travelling (neither absorbed at the target
        nor dropped): ``value + remaining_mass`` upper-bounds the exact
        answer, so the bracket width is known at query time — the
        accuracy-aware property carried over from PPV.
    iterations:
        Hub-length levels processed.
    history:
        ``value`` after each level.
    """

    value: float
    remaining_mass: float
    iterations: int
    history: list[float] = field(default_factory=list)


def exact_hitting(
    graph: DiGraph,
    query: int,
    target: int,
    beta: float = DEFAULT_BETA,
    tol: float = 1e-12,
    max_iter: int = 1000,
) -> float:
    """Exact ``f_p(q)`` by value iteration on the absorbing chain.

    ``f_p(p) = 1``; for ``q != p``:
    ``f_p(q) = beta * mean over out-neighbours v of f_p(v)`` (dangling
    non-target nodes contribute 0 — the walk dies).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    n = graph.num_nodes
    if not (0 <= query < n and 0 <= target < n):
        raise ValueError("query/target out of range")
    values = np.zeros(n)
    values[target] = 1.0
    indptr, indices = graph.indptr, graph.indices
    out_degrees = graph.out_degrees
    edge_probabilities = graph.edge_probabilities
    for _ in range(max_iter):
        spread = np.zeros(n)
        for node in range(n):
            if node == target or out_degrees[node] == 0:
                continue
            start, end = indptr[node], indptr[node + 1]
            neighbors = indices[start:end]
            spread[node] = beta * float(
                (values[neighbors] * edge_probabilities[start:end]).sum()
            )
        spread[target] = 1.0
        delta = np.abs(spread - values).max()
        values = spread
        if delta < tol:
            break
    return float(values[query])


def _prime_segment(
    graph: DiGraph,
    source: int,
    target: int,
    barrier: np.ndarray,
    beta: float,
    epsilon: float,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Hub-interior-free, target-avoiding discounted push from ``source``:
    ``(absorbed_at_target, dropped_mass, border_hubs, border_masses)``,
    hubs ascending, the dropped mass by conservation (module docstring).
    A batch of one, so no push's bits depend on what else a caller pushed."""
    scores, border, _ = prime_push_many(
        graph, np.array([source]), barrier, alpha=1.0 - beta, epsilon=epsilon
    )
    arrivals = border[0]
    dropped = (1.0 - float(scores[0].sum())) / beta - float(arrivals.sum())
    hubs = np.flatnonzero(arrivals)
    hubs = hubs[hubs != target]
    return float(arrivals[target]), max(0.0, dropped), hubs, arrivals[hubs]


def scheduled_hitting(
    graph: DiGraph,
    query: int,
    target: int,
    hub_mask: np.ndarray,
    beta: float = DEFAULT_BETA,
    max_levels: int = 16,
    epsilon: float = 1e-9,
    delta: float = 0.0,
    push_cache: dict[int, tuple] | None = None,
) -> HittingEstimate:
    """Discounted hitting probability by hub-length-scheduled splicing.

    Level 0 covers first-passage tours with no interior hubs; level ``i``
    splices hub-rooted prime segments (cached per call) onto the level
    ``i-1`` frontier.  Stops when the frontier dies, ``max_levels`` is
    reached, or every frontier mass falls below ``delta``.

    ``push_cache`` shares hub-rooted segments across calls that agree on
    ``(target, beta, epsilon)`` and the graph/hub_mask — entries are pure
    functions of those, so sharing is result-preserving (serving batches
    same-target queries through one cache).
    """
    n = graph.num_nodes
    if hub_mask.shape != (n,):
        raise ValueError("hub_mask must have one entry per node")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if not (0 <= query < n and 0 <= target < n):
        raise ValueError("query/target out of range")
    if query == target:
        return HittingEstimate(1.0, 0.0, 0, [1.0])
    cache = push_cache if push_cache is not None else {}
    barrier = hub_mask.astype(bool)
    barrier[target] = True

    def segment_of(hub: int) -> tuple[float, float, np.ndarray, np.ndarray]:
        if hub not in cache:
            cache[hub] = _prime_segment(graph, hub, target, barrier, beta, epsilon)
        return cache[hub]

    value, dropped, hubs, masses = _prime_segment(
        graph, query, target, barrier, beta, epsilon
    )
    history = [value]
    level = 0
    while hubs.size and level < max_levels:
        level += 1
        live = masses > delta
        dropped += float(masses[~live].sum())
        hubs, masses = hubs[live], masses[live]
        if hubs.size:
            absorbed, lost, reached, arrived = zip(*map(segment_of, hubs.tolist()))
            value += float((masses * np.array(absorbed)).sum())
            dropped += float((masses * np.array(lost)).sum())
            sizes = [border.size for border in reached]
            arrivals = np.bincount(
                np.concatenate(reached),
                weights=np.repeat(masses, sizes) * np.concatenate(arrived),
                minlength=n,
            )
            hubs = np.flatnonzero(arrivals)
            masses = arrivals[hubs]
        history.append(value)
    return HittingEstimate(value, float(masses.sum()) + dropped, level, history)


def scheduled_commute(
    graph: DiGraph,
    a: int,
    b: int,
    hub_mask: np.ndarray,
    beta: float = DEFAULT_BETA,
    max_levels: int = 16,
    epsilon: float = 1e-9,
) -> HittingEstimate:
    """Discounted commute probability ``E[beta^(tau_ab + tau_ba)]``.

    Sect. 7 names "hitting and commute time" as targets for the
    partition-and-prioritise principle.  By independence of the two legs
    (strong Markov property at the first hit of ``b``), the discounted
    commute factorises into the product of the two hitting estimates;
    the lower/upper brackets multiply accordingly.
    """
    forward = scheduled_hitting(
        graph, a, b, hub_mask, beta=beta, max_levels=max_levels, epsilon=epsilon
    )
    backward = scheduled_hitting(
        graph, b, a, hub_mask, beta=beta, max_levels=max_levels, epsilon=epsilon
    )
    value = forward.value * backward.value
    upper = (forward.value + forward.remaining_mass) * (
        backward.value + backward.remaining_mass
    )
    depth = max(len(forward.history), len(backward.history))

    def level_value(history: list, level: int) -> float:
        return history[min(level, len(history) - 1)]

    history = [
        level_value(forward.history, level) * level_value(backward.history, level)
        for level in range(depth)
    ]
    return HittingEstimate(
        value=value,
        remaining_mass=upper - value,
        iterations=max(forward.iterations, backward.iterations),
        history=history,
    )
