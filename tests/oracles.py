"""Executable specifications the engines are pinned against.

``scalar_splice_rounds`` is Algorithm 2's incremental rounds as the
paper states them: one dict frontier per query, one hub at a time.
``reference_query`` is ``FastPPV.query`` as it stood when it ran that
loop over ``index.get`` after a per-query ``prime_ppv`` push, and
``ReferenceFastPPV`` is a ``FastPPV`` whose ``query`` is that function
(so ``query_top_k`` and ``multi_node_ppv`` run on it too).
``repro.core.batch.FastPPV`` answers a query as a batch of one through
``repro.core.splice.splice_rounds_exact``; it must equal
``reference_query`` in every field, bit for bit.

``repro.storage.disk_engine.DiskFastPPV`` serves every query through two
compiled kernels: the cluster-draining push, drained in batch waves
(``_ClusterWaves``, one row per query), and the order-preserving splice
rounds of ``repro.core.splice.splice_rounds_exact``.  Their Python
statements live here, as oracles: ``ReferencePrimePushRun`` (one
query's schedule with the historical per-edge drain),
``ReferenceWavesDiskFastPPV`` (the Python wave loop, residency first,
over compiled lone runs or, with ``run_class = ReferencePrimePushRun``,
over per-edge ones) and ``scalar_splice_rounds`` fed one ``ppv_store.get``
at a time.  The equivalence suite requires bitwise-equal results, and
the compiled waves must leave the stores' physical counters where the
reference wave loop leaves them.

``DemandOnlyDiskFastPPV`` is the reference wave loop with the rule it
had before waves became residency-first: the most demanded cluster,
never asking what the store holds.  Its results must equal the engine's
bit for bit, and on ``tests/test_disk_batch.py``'s seeded stream it
must pay at least as many physical faults.

``sharded_over`` puts the router's ``ShardedGraphStore`` over a local
store through a one-shard in-process fleet that answers with
``ShardEngine``'s own replies, so the same suites drive the sharded
backend's residency — and its wire decode — without sockets.

``reference_decode_record`` is the per-record payload decoder that
``repro.storage.ppv_store.decode_records`` replaced: four typed views
over one record's bytes.

``lower_entry`` / ``reference_block_csr`` are ``SpliceBlock``'s per-hub
append as it stood before rows arrived in batches: one prime PPV lowered
to a score row with its trailing ``(hub, -alpha)`` correction, appended
row by row.  ``SpliceBlock.add_rows`` must produce their arrays byte for
byte.

``reference_prime_hitting_push`` / ``reference_scheduled_hitting`` are
``repro.core.hitting`` as it stood before the hitting family moved onto
``prime_push_many``: the per-edge dict push and the per-border-entry
dict level loop, verbatim.  ``tests/test_hitting.py`` pins the array
code against them.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

import numpy as np

from repro.core.batch import FastPPV
from repro.core.hitting import DEFAULT_BETA, HittingEstimate
from repro.core.prime import prime_ppv
from repro.core.query import (
    DEFAULT_DELTA,
    QueryResult,
    QueryState,
    StopAfterIterations,
)
from repro.server import protocol
from repro.sharding.remote import ShardedGraphStore
from repro.sharding.shard import ShardEngine
from repro.storage.disk_engine import DiskFastPPV, _ClusterWaves


def scalar_splice_rounds(
    estimate,
    frontier,
    stop,
    alpha,
    delta,
    max_iterations,
    fetch,
    started,
    on_iteration=None,
):
    """Algorithm 2's incremental rounds for one query, hub by hub.

    ``estimate`` (iteration 0 already applied) is mutated in place,
    ``frontier`` maps border hubs to arrival masses, and ``fetch``
    resolves a hub to its prime PPV — ``index.get`` for
    :func:`reference_query`, a store's ``get`` for
    :func:`reference_disk_query`.  ``on_iteration`` is invoked with the
    ``QueryState`` once per executed iteration, iteration 0 included.

    Returns ``(iterations, error_history, hubs_expanded, work_units)``
    where ``work_units`` counts the index entries the splices touched.
    """
    error_history = [1.0 - float(estimate.sum())]
    hubs_expanded = 0
    iteration = 0
    work_units = 0

    def current_state():
        return QueryState(
            iteration=iteration,
            l1_error=error_history[-1],
            elapsed_seconds=time.perf_counter() - started,
            frontier_size=len(frontier),
            scores=estimate,
        )

    if on_iteration is not None:
        on_iteration(current_state())

    while (
        frontier
        and iteration < max_iterations
        and not stop.should_stop(current_state())
    ):
        iteration += 1
        next_frontier = {}
        for hub, mass in frontier.items():
            if alpha * mass <= delta:
                continue
            entry = fetch(hub)
            estimate[entry.nodes] += mass * entry.scores
            # Remove the zero-length "trivial tour" inside r^0_hub(hub):
            # the tour that merely *arrives* at the hub was already
            # scored by the previous increment (repro.core.query).
            estimate[hub] -= alpha * mass
            hubs_expanded += 1
            work_units += entry.nodes.size + entry.border_hubs.size
            for border, border_mass in zip(
                entry.border_hubs.tolist(), entry.border_masses.tolist()
            ):
                next_frontier[border] = (
                    next_frontier.get(border, 0.0) + mass * border_mass
                )
        frontier = next_frontier
        error_history.append(1.0 - float(estimate.sum()))
        if on_iteration is not None:
            on_iteration(current_state())
    return iteration, error_history, hubs_expanded, work_units


def reference_query(engine, query, stop=None, on_iteration=None):
    """One in-memory query by the scalar statement of Algorithm 2.

    Reads only ``engine``'s configuration (``graph``, ``index``,
    ``delta``, ``max_iterations``, ``online_epsilon``): iteration 0 is
    the hub's stored prime PPV or a ``prime_ppv`` push, the rounds are
    :func:`scalar_splice_rounds` over ``index.get``.
    """
    graph, index = engine.graph, engine.index
    if not 0 <= query < graph.num_nodes:
        raise ValueError(f"query node {query} out of range")
    if stop is None:
        stop = StopAfterIterations(2)
    started = time.perf_counter()
    if query in index:
        base = index.get(query)
    else:
        base = prime_ppv(
            graph,
            query,
            index.hub_mask,
            alpha=index.alpha,
            epsilon=engine.online_epsilon,
        )
    estimate = base.to_dense(graph.num_nodes)
    frontier = dict(zip(base.border_hubs.tolist(), base.border_masses.tolist()))
    iterations, error_history, hubs_expanded, work_units = scalar_splice_rounds(
        estimate,
        frontier,
        stop,
        index.alpha,
        engine.delta,
        engine.max_iterations,
        index.get,
        started,
        on_iteration=on_iteration,
    )
    if query not in index:
        work_units += base.edges_touched
    return QueryResult(
        query=query,
        scores=estimate,
        iterations=iterations,
        error_history=error_history,
        hubs_expanded=hubs_expanded,
        seconds=time.perf_counter() - started,
        work_units=work_units,
    )


class ReferenceFastPPV(FastPPV):
    """A ``FastPPV`` whose ``query`` is :func:`reference_query`."""

    query = reference_query


class LoneCompiledRun:
    """One query's compiled push stepped drain by drain: a
    ``_ClusterWaves`` batch of one, whose staged wave is the run's next
    cluster.  The fast run class of :class:`ReferenceWavesDiskFastPPV`
    (``ReferencePrimePushRun`` is the per-edge one)."""

    def __init__(
        self, graph_store, source, hub_mask, alpha, epsilon, fault_budget
    ) -> None:
        self._waves = _ClusterWaves(
            graph_store, [source], hub_mask, alpha, epsilon, fault_budget
        )
        self._row = self._waves.rows()[0]
        self.scores = self._row.scores

    def next_cluster(self):
        cluster = self._waves.state.wave
        return cluster if cluster >= 0 else None

    def drain(self) -> None:
        self._waves.step()

    def __getattr__(self, name):  # drains, truncated, frontier, border
        return getattr(self._row, name)


class ReferenceWavesDiskFastPPV(DiskFastPPV):
    """``DiskFastPPV`` with its batch push run by the reference wave
    schedule: the Python loop the engine ran before its waves were
    compiled, over one ``run_class`` run per source.

    Every scheduling wave asks each unfinished run for the cluster its
    next drain needs, picks one of them (:meth:`_wave_cluster`) and
    drains every run that needs it, one ``resident_cluster`` call per
    drain (the per-edge drain makes one per expanded node, all within
    the wave's cluster).  So the store pays the faults, reads and bytes
    of one load per wave — what the compiled waves pay through one
    ``resident_cluster`` call.
    """

    run_class = LoneCompiledRun

    def _grouped_pushes(self, ids):
        runs = {}
        for q in ids:
            if q not in self.ppv_store and q not in runs:
                runs[q] = self.run_class(
                    self.graph_store,
                    q,
                    self.ppv_store.hub_mask,
                    self.ppv_store.alpha,
                    self.ppv_store.epsilon,
                    self.fault_budget,
                )
        active = dict(runs)
        while active:
            needs: dict[int, list[int]] = {}
            for q in list(active):
                cluster = active[q].next_cluster()
                if cluster is None:
                    del active[q]  # finished (or truncated by its budget)
                else:
                    needs.setdefault(cluster, []).append(q)
            if not needs:
                break
            for q in needs[self._wave_cluster(needs)]:
                active[q].drain()
        return runs

    def _wave_cluster(self, needs):
        """Residency first: the most demanded (ties: smallest id) of the
        needed clusters the store holds; only when it holds none, the
        most demanded of all."""
        held = [c for c in needs if self.graph_store.resident_flags[c]]
        return max(held or needs, key=lambda c: (len(needs[c]), -c))


class DemandOnlyDiskFastPPV(ReferenceWavesDiskFastPPV):
    """The reference wave schedule with the rule waves had before they
    became residency-first: each wave drains the cluster the most runs
    need next (ties: smallest id), whatever is resident."""

    def _wave_cluster(self, needs):
        return max(needs, key=lambda c: (len(needs[c]), -c))


class ReferencePrimePushRun:
    """The cluster-draining push as the paper states it, in Python: the
    per-query schedule ``repro.storage.disk_engine._PrimePushRun`` runs
    compiled — heaviest pool first, FIFO within a cluster, the fault
    budget charged per drain — with the historical drain: one
    ``scores[t] +=`` per edge, residency resolved per expanded node
    through ``out_edges``."""

    def __init__(
        self, graph_store, source, hub_mask, alpha, epsilon, fault_budget
    ) -> None:
        self.graph_store = graph_store
        self.hub_mask = hub_mask
        self.alpha = alpha
        self.epsilon = epsilon
        self.fault_budget = fault_budget
        self.scores = np.zeros(graph_store.num_nodes)
        self.border: dict[int, float] = {}
        # Pending *expansion* mass per cluster.  Scoring and border
        # bookkeeping happen at insertion time and need no I/O — only the
        # expansion of a node requires its cluster's adjacency, so pools
        # whose every node sits below epsilon are dropped fault-free.
        self.pools: dict[int, dict[int, float]] = {}
        self.drains = 0
        self.truncated = False
        self._pending = None
        # The initial unit at the source always expands (a tour's start
        # never counts towards hub length), even when the source is a hub.
        self.scores[source] += alpha
        self.pools[graph_store.cluster_of(source)] = {source: 1.0}

    def next_cluster(self):
        """Cluster the next drain step needs, or ``None`` when done.
        Idempotent and I/O-free: sub-threshold pools are dropped (their
        mass is already scored), the heaviest remaining pool is staged
        until :meth:`drain` consumes it."""
        if self._pending is not None:
            return self._pending[0]
        while self.pools:
            # Heaviest pool first: its export pattern settles fastest.
            cluster = max(self.pools, key=self._pool_weight)
            pending = self.pools.pop(cluster)
            local = {
                node: mass
                for node, mass in pending.items()
                if mass >= self.epsilon
            }
            if not local:
                continue  # everything sub-threshold: already scored, no I/O
            if self.drains >= self.fault_budget:
                self.truncated = True
                self.pools.clear()
                return None
            self._pending = (cluster, local)
            return cluster
        return None

    def _pool_weight(self, cluster: int) -> float:
        """A pool's pending mass, summed left to right in insertion
        order.  Spelled out because builtin ``sum`` over floats became a
        compensated sum in CPython 3.12: on a near-tie the heaviest-pool
        choice — hence the drain order and the served bits — would
        depend on the interpreter (and differ from ``kernels.c``)."""
        weight = 0.0
        for mass in self.pools[cluster].values():
            weight += mass
        return weight

    def frontier(self) -> tuple[np.ndarray, np.ndarray]:
        """The border as fresh ``(hub ids, arrival masses)`` arrays, in
        first-arrival order."""
        border = self.border
        return (
            np.fromiter(border.keys(), dtype=np.int64, count=len(border)),
            np.fromiter(border.values(), dtype=np.float64, count=len(border)),
        )

    def _deposit(self, node: int, mass: float) -> None:
        self.scores[node] += self.alpha * mass
        if self.hub_mask[node]:
            self.border[node] = self.border.get(node, 0.0) + mass
            return
        cluster = self.graph_store.cluster_of(node)
        pool = self.pools.setdefault(cluster, {})
        pool[node] = pool.get(node, 0.0) + mass

    def drain(self) -> None:
        cluster, local = self._pending
        self._pending = None
        self.drains += 1
        alpha, epsilon = self.alpha, self.epsilon
        hub_mask, graph_store = self.hub_mask, self.graph_store
        scores = self.scores
        queue = deque(local)
        while queue:
            node = queue.popleft()
            mass = local.pop(node, 0.0)
            if mass < epsilon:
                continue  # sub-threshold remainder: already scored
            neighbors, probabilities = graph_store.out_edges(node)
            for target, probability in zip(neighbors, probabilities):
                target = int(target)
                share = (1.0 - alpha) * mass * probability
                if (
                    not hub_mask[target]
                    and graph_store.cluster_of(target) == cluster
                ):
                    # Keep intra-cluster mass local: score it now,
                    # aggregate the pending expansion.
                    scores[target] += alpha * share
                    if target in local:
                        local[target] += share
                    else:
                        local[target] = share
                        queue.append(target)
                else:
                    self._deposit(target, share)


def reference_disk_query(
    graph_store,
    ppv_store,
    query: int,
    stop=None,
    delta: float = DEFAULT_DELTA,
    fault_budget: int | None = None,
    max_iterations: int = 64,
) -> QueryResult:
    """One disk query, served by the oracle loops alone.

    ``cluster_faults`` is the drain count and ``hub_reads`` the number
    of ``ppv_store.get`` calls — the deterministic accounting
    ``DiskFastPPV`` reports.
    """
    if stop is None:
        stop = StopAfterIterations(2)
    if fault_budget is None:
        fault_budget = graph_store.num_clusters
    started = time.perf_counter()
    hub_reads = 0
    drains = 0
    truncated = False
    if query in ppv_store:
        entry = ppv_store.get(query)
        hub_reads += 1
        estimate = entry.to_dense(graph_store.num_nodes)
        frontier = dict(
            zip(entry.border_hubs.tolist(), entry.border_masses.tolist())
        )
    else:
        run = ReferencePrimePushRun(
            graph_store,
            query,
            ppv_store.hub_mask,
            ppv_store.alpha,
            ppv_store.epsilon,
            fault_budget,
        )
        while run.next_cluster() is not None:
            run.drain()
        estimate, frontier = run.scores, run.border
        drains, truncated = run.drains, run.truncated
    iterations, error_history, hubs_expanded, _ = scalar_splice_rounds(
        estimate,
        frontier,
        stop,
        ppv_store.alpha,
        delta,
        max_iterations,
        ppv_store.get,
        started,
    )
    return QueryResult(
        query=query,
        scores=estimate,
        iterations=iterations,
        error_history=error_history,
        hubs_expanded=hubs_expanded,
        seconds=time.perf_counter() - started,
        cluster_faults=drains,
        hub_reads=hub_reads + hubs_expanded,
        truncated=truncated,
    )


def reference_decode_record(entries: int, borders: int, payload: bytes):
    """One stored record → ``(nodes, scores, border hubs, border
    masses)``, each a native-dtype copy."""
    assert len(payload) == 16 * (entries + borders)
    views = (
        np.frombuffer(payload, "<i8", entries, 0),
        np.frombuffer(payload, "<f8", entries, 8 * entries),
        np.frombuffer(payload, "<i8", borders, 16 * entries),
        np.frombuffer(payload, "<f8", borders, 16 * entries + 8 * borders),
    )
    return tuple(
        view.astype(dtype) for view, dtype in zip(views, (np.int64, np.float64) * 2)
    )


def lower_entry(entry, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower one prime PPV into a score row ``(columns, values)``: its
    entries, then the trivial-tour correction ``(hub, -alpha)``."""
    columns = np.empty(entry.nodes.size + 1, dtype=np.int64)
    columns[:-1] = entry.nodes
    columns[-1] = entry.source
    values = np.empty(entry.scores.size + 1, dtype=np.float64)
    values[:-1] = entry.scores
    values[-1] = -alpha
    return columns, values


def reference_block_csr(entries, alpha: float):
    """The ``(indptr, indices, data)`` of the score and of the border
    matrix after appending ``entries`` one hub at a time, skipping a hub
    already appended."""
    seen = set()
    score_rows, border_rows = [], []
    for entry in entries:
        if int(entry.source) in seen:
            continue
        seen.add(int(entry.source))
        score_rows.append(lower_entry(entry, alpha))
        border_rows.append(
            (
                entry.border_hubs.astype(np.int64, copy=False),
                entry.border_masses.astype(np.float64, copy=False),
            )
        )

    def csr(rows):
        ends = [0]
        for columns, _ in rows:
            ends.append(ends[-1] + columns.size)
        return (
            np.asarray(ends, dtype=np.int64),
            np.concatenate([np.zeros(0, np.int64)] + [c for c, _ in rows]),
            np.concatenate([np.zeros(0)] + [v for _, v in rows]),
        )

    return csr(score_rows), csr(border_rows)


def reference_prime_hitting_push(
    graph,
    source: int,
    target: int,
    hub_mask: np.ndarray,
    beta: float,
    epsilon: float,
) -> tuple[float, dict[int, float], float]:
    """Hub-interior-free, target-avoiding discounted push from ``source``.

    Returns ``(absorbed_at_target, border_masses, dropped_mass)`` where
    ``border_masses`` maps hub -> discounted arrival mass (for splicing)
    and ``dropped_mass`` is what the epsilon cut-off discarded (needed
    for the upper bound).
    """
    indptr, indices = graph.indptr, graph.indices
    out_degrees = graph.out_degrees
    edge_probabilities = graph.edge_probabilities
    absorbed = 0.0
    dropped = 0.0
    border: dict[int, float] = {}
    residual: dict[int, float] = {source: 1.0}
    first = True
    # beta^k bounds total residual after k levels, so the loop terminates.
    max_rounds = int(np.ceil(np.log(epsilon) / np.log(beta))) + 4
    for _ in range(max_rounds):
        if not residual:
            break
        next_residual: dict[int, float] = {}
        for node, mass in residual.items():
            if node == target:
                absorbed += mass
                continue
            if hub_mask[node] and not (first and node == source):
                border[node] = border.get(node, 0.0) + mass
                continue
            if mass < epsilon:
                dropped += mass
                continue
            degree = int(out_degrees[node])
            if degree == 0:
                dropped += mass  # walk dies; never hits the target
                continue
            start, end = indptr[node], indptr[node + 1]
            for neighbor, probability in zip(
                indices[start:end], edge_probabilities[start:end]
            ):
                key = int(neighbor)
                next_residual[key] = (
                    next_residual.get(key, 0.0) + beta * mass * probability
                )
        residual = next_residual
        first = False
    for mass in residual.values():
        dropped += mass
    return absorbed, border, dropped


def reference_scheduled_hitting(
    graph,
    query: int,
    target: int,
    hub_mask: np.ndarray,
    beta: float = DEFAULT_BETA,
    max_levels: int = 16,
    epsilon: float = 1e-9,
    delta: float = 0.0,
    push_cache: dict[int, tuple[float, dict[int, float], float]] | None = None,
) -> HittingEstimate:
    """Discounted hitting probability by hub-length-scheduled splicing.

    Level 0 covers first-passage tours with no interior hubs; level ``i``
    splices hub-rooted prime hitting pushes (cached per call) onto the
    level ``i-1`` frontier.  Stops when the frontier dies, ``max_levels``
    is reached, or every frontier mass falls below ``delta``.

    ``push_cache`` shares prime hitting pushes across calls that agree on
    ``(target, beta, epsilon)`` and the graph/hub_mask — entries are pure
    functions of those, so sharing is result-preserving (serving batches
    same-target queries through one cache).
    """
    if hub_mask.shape != (graph.num_nodes,):
        raise ValueError("hub_mask must have one entry per node")
    cache = push_cache if push_cache is not None else {}

    def prime_of(node: int) -> tuple[float, dict[int, float], float]:
        if node not in cache:
            cache[node] = reference_prime_hitting_push(
                graph, node, target, hub_mask, beta, epsilon
            )
        return cache[node]

    absorbed, frontier, dropped = reference_prime_hitting_push(
        graph, query, target, hub_mask, beta, epsilon
    )
    value = absorbed
    history = [value]
    level = 0
    while frontier and level < max_levels:
        level += 1
        next_frontier: dict[int, float] = {}
        for hub, mass in frontier.items():
            if mass <= delta:
                dropped += mass
                continue
            hub_absorbed, hub_border, hub_dropped = prime_of(hub)
            value += mass * hub_absorbed
            dropped += mass * hub_dropped
            for border_hub, border_mass in hub_border.items():
                next_frontier[border_hub] = (
                    next_frontier.get(border_hub, 0.0) + mass * border_mass
                )
        frontier = next_frontier
        history.append(value)
    remaining = sum(frontier.values()) + dropped
    return HittingEstimate(
        value=value,
        remaining_mass=remaining,
        iterations=level,
        history=history,
    )


class StoreShard(ShardEngine):
    """``ShardEngine``'s two data verbs over already-open stores (a
    shard directory is not needed to run its encoders)."""

    def __init__(self, graph_store=None, ppv_store=None):
        self._lock = threading.Lock()
        self.graph_store = graph_store
        self.ppv_store = ppv_store


class LocalFleet:
    """An in-process ``ShardFleet`` stand-in: shard ``s`` is
    ``engines[s]`` (``ShardEngine`` objects), and every reply is what
    that engine's own ``fetch_hubs`` / ``fetch_cluster`` answers, put
    through the wire's JSON codec — so the remote stores decode here
    exactly what they decode off a socket."""

    def __init__(self, engines):
        self.engines = list(engines)
        self.num_shards = len(self.engines)

    def request(self, shard, body):
        engine = self.engines[shard]
        if body["verb"] == "fetch_cluster":
            reply = engine.fetch_cluster(body["cluster"])
        else:
            assert body["verb"] == "fetch_hubs"
            reply = engine.fetch_hubs(body["hubs"])
        return json.loads(protocol.encode(reply))

    def request_many(self, bodies):
        return {shard: self.request(shard, body) for shard, body in bodies.items()}


def sharded_over(store, memory_budget: int = 1) -> ShardedGraphStore:
    """``store``'s clusters behind a ``ShardedGraphStore``."""
    return ShardedGraphStore(
        LocalFleet([StoreShard(graph_store=store)]),
        labels=store.labels,
        cluster_shards=[0] * store.num_clusters,
        memory_budget=memory_budget,
    )
