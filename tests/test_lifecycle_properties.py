"""Stateful lifecycle properties over the serving/server/pool stack.

Four hypothesis ``RuleBasedStateMachine`` suites interleave
submit/stream/flush/swap_index/close/kill — with deterministic faults
from :mod:`repro.faults` thrown in — and assert the invariants the
stack promises:

* **no query silently dropped** — every handle/request resolves with a
  result or a structured error, never a hang;
* **served results stay correct** — vectors that do arrive are
  bitwise-equal to a fault-free oracle run, on both backends, whatever
  batch they were coalesced into;
* **close() is idempotent** under concurrent streams;
* **swap-under-load never serves a mixed-index batch** — every result
  matches the old index's oracle or the new one's, nothing in between.

Run with ``--hypothesis-profile=ci`` for the 200-example derandomized
sweep (the dedicated CI job); the default ``dev`` profile keeps tier-1
fast.
"""

from __future__ import annotations

import queue
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import (
    FastPPV,
    StopAfterIterations,
    build_index,
    from_edges,
    select_hubs,
)
from repro.faults import FaultPlan, InjectedFault
from repro.server import (
    ClientTimeout,
    PPVClient,
    PPVServer,
    ProtocolViolation,
    ServerError,
    ServerPool,
)
from repro.serving import CoalescingScheduler, PPVService, QuerySpec
from repro.sharding import ShardRouter, load_shard_map, partition_index
from repro.storage import (
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    cluster_graph,
    save_index,
)

# --------------------------------------------------------------------- #
# Shared tiny workload (Fig. 1's 8-node running example: cheap enough to
# rebuild oracles per state, rich enough to have hubs, borders, clusters).

A, B, C, D, E, F, G, H = range(8)
FIG1_EDGES = [
    (A, B), (A, C), (A, D), (A, F), (A, H),
    (B, C), (B, D), (B, E),
    (D, C), (D, E),
    (F, D), (F, G),
    (G, D),
    (H, C),
]

GRAPH = from_edges(FIG1_EDGES, num_nodes=8)
INDEX_A = build_index(GRAPH, select_hubs(GRAPH, num_hubs=3))
INDEX_B = build_index(GRAPH, select_hubs(GRAPH, num_hubs=5))

_DISK_ROOT = Path(tempfile.mkdtemp(prefix="lifecycle_disk_"))
INDEX_A_PATH = _DISK_ROOT / "index_a.fppv"
INDEX_B_PATH = _DISK_ROOT / "index_b.fppv"
save_index(INDEX_A, INDEX_A_PATH)
save_index(INDEX_B, INDEX_B_PATH)
_STORE_DIR = _DISK_ROOT / "clusters"
# 4 clusters so a 2-shard split gives BOTH shards hubs and non-sink
# nodes (2 clusters on this graph leave shard 1 a single sink node).
_ASSIGNMENT = cluster_graph(GRAPH, 4, seed=1)
DiskGraphStore(GRAPH, _ASSIGNMENT, _STORE_DIR)

# Two 2-shard partitions (one per index) over the SAME assignment as
# the unsharded store, so the router machine's results are comparable
# bitwise against the plain disk oracles.
PART_A_ROOT = _DISK_ROOT / "part_a"
PART_B_ROOT = _DISK_ROOT / "part_b"
partition_index(GRAPH, INDEX_A, 2, PART_A_ROOT, assignment=_ASSIGNMENT)
partition_index(GRAPH, INDEX_B, 2, PART_B_ROOT, assignment=_ASSIGNMENT)
# A node whose cluster shard 1 owns AND that has out-edges: querying it
# with cold router caches *must* fetch shard 1's adjacency.
_SHARD1_CLUSTERS = load_shard_map(PART_A_ROOT)["shards"][1]["clusters"]
_SHARD1_NODE = int(
    next(
        node
        for node in np.nonzero(
            np.isin(_ASSIGNMENT.labels, _SHARD1_CLUSTERS)
        )[0]
        if any(src == node for src, _ in FIG1_EDGES)
    )
)

ETAS = (1, 2)


def _memory_oracles():
    """Fault-free scalar results per (index, node, eta)."""
    oracles = {}
    for key, index in (("A", INDEX_A), ("B", INDEX_B)):
        engine = FastPPV(GRAPH, index)
        for node in range(GRAPH.num_nodes):
            for eta in ETAS:
                result = engine.query(node, stop=StopAfterIterations(eta))
                oracles[(key, node, eta)] = result.scores.copy()
    return oracles


def _disk_oracles(index_path):
    """Fault-free scalar disk results per (node, eta) — the bitwise bar."""
    oracles = {}
    with DiskPPVStore(index_path) as store:
        engine = DiskFastPPV(DiskGraphStore.open(_STORE_DIR), store)
        for node in range(GRAPH.num_nodes):
            for eta in ETAS:
                result = engine.query(node, stop=StopAfterIterations(eta))
                oracles[(node, eta)] = result.scores.copy()
    return oracles


MEMORY_ORACLES = _memory_oracles()
DISK_ORACLES = _disk_oracles(INDEX_A_PATH)
DISK_ORACLES_B = _disk_oracles(INDEX_B_PATH)

nodes_st = st.integers(min_value=0, max_value=GRAPH.num_nodes - 1)
etas_st = st.sampled_from(ETAS)


# --------------------------------------------------------------------- #
# 1. Scheduler machine: conservation + order under faults


class SchedulerMachine(RuleBasedStateMachine):
    """Jobs are conserved: every submitted job lands in exactly one
    executed or failed batch, in admission order, whatever interleaving
    of bursts, kicks, flushes and injected executor faults happens."""

    def __init__(self) -> None:
        super().__init__()
        self.plan = FaultPlan()
        self.completed: list = []  # job ids in completion order
        self.submitted: list = []
        self.next_job = 0
        self.scheduler = CoalescingScheduler(
            self._execute,
            max_batch=4,
            max_delay=0.0005,
            on_error=self._on_error,
            fault_plan=self.plan,
        )
        self.closed = False

    def _execute(self, jobs) -> None:
        self.completed.extend(jobs)

    def _on_error(self, jobs, error) -> None:
        self.completed.extend(jobs)

    @precondition(lambda self: not self.closed)
    @rule(count=st.integers(min_value=1, max_value=5))
    def submit_burst(self, count: int) -> None:
        jobs = list(range(self.next_job, self.next_job + count))
        self.next_job += count
        self.submitted.extend(jobs)
        self.scheduler.submit_many(jobs)

    @precondition(lambda self: not self.closed)
    @rule()
    def submit_one(self) -> None:
        job = self.next_job
        self.next_job += 1
        self.submitted.append(job)
        self.scheduler.submit(job)

    @precondition(lambda self: not self.closed)
    @rule()
    def inject_executor_fault(self) -> None:
        # Arm one failure for an upcoming drain; the batch must still be
        # resolved (through on_error), not dropped.
        self.plan.on("scheduler.execute", times=1)

    @precondition(lambda self: not self.closed)
    @rule()
    def kick(self) -> None:
        self.scheduler.kick()

    @precondition(lambda self: not self.closed)
    @rule()
    def flush(self) -> None:
        try:
            self.scheduler.flush(timeout=10)
        except InjectedFault:
            pass  # armed failure surfacing exactly once, as promised
        assert self.scheduler.queue_depth == 0
        assert self.scheduler.in_flight == 0
        # Everything admitted so far has been completed, in order.
        assert self.completed == self.submitted

    @rule()
    def close(self) -> None:
        self.scheduler.close()
        self.scheduler.close()  # idempotent
        self.closed = True

    @precondition(lambda self: self.closed)
    @rule()
    def submit_after_close_rejected(self) -> None:
        with pytest.raises(RuntimeError):
            self.scheduler.submit(object())

    @invariant()
    def counters_sane(self) -> None:
        assert self.scheduler.queue_depth >= 0
        assert self.scheduler.in_flight >= 0
        assert self.scheduler.jobs_submitted == len(self.submitted)

    def teardown(self) -> None:
        if not self.closed:
            self.scheduler.close()
        # close() drains: nothing admitted may be lost.
        assert self.completed == self.submitted


TestSchedulerLifecycle = SchedulerMachine.TestCase


# --------------------------------------------------------------------- #
# 2. Service machine (memory + disk): no silent drops, oracle equality,
#    swap never mixes indexes, close idempotent under live streams


class _ServiceMachine(RuleBasedStateMachine):
    backend = "memory"  # overridden by the disk subclass

    def __init__(self) -> None:
        super().__init__()
        self.plan = FaultPlan()
        self.service = self._open_service()
        # (handle, node, eta) triples not yet collected.
        self.pending: list = []
        self.streams: list = []
        self.index_key = "A"
        self.swapped = False
        self.closed = False

    # -- backend plumbing ------------------------------------------------

    def _open_service(self) -> PPVService:
        return PPVService.open(
            INDEX_A, graph=GRAPH, fault_plan=self.plan, cache_size=8
        )

    def _oracle(self, node: int, eta: int, index_key: str) -> np.ndarray:
        return MEMORY_ORACLES[(index_key, node, eta)]

    def _matches(self, scores: np.ndarray, oracle: np.ndarray) -> bool:
        return bool(np.array_equal(scores, oracle))

    def _scores(self, result) -> np.ndarray:
        return result.scores

    # -- rules -----------------------------------------------------------

    @precondition(lambda self: not self.closed)
    @rule(node=nodes_st, eta=etas_st)
    def submit(self, node: int, eta: int) -> None:
        spec = QuerySpec(node, stop=StopAfterIterations(eta))
        self.pending.append((self.service.submit(spec), node, eta))

    @precondition(lambda self: not self.closed)
    @rule(data=st.data())
    def submit_burst(self, data) -> None:
        picks = data.draw(
            st.lists(st.tuples(nodes_st, etas_st), min_size=1, max_size=4)
        )
        specs = [
            QuerySpec(node, stop=StopAfterIterations(eta))
            for node, eta in picks
        ]
        handles = [self.service.submit(spec) for spec in specs]
        self.pending.extend(
            (handle, node, eta)
            for handle, (node, eta) in zip(handles, picks)
        )

    @precondition(lambda self: not self.closed)
    @rule()
    def inject_engine_fault(self) -> None:
        self.plan.on(self._engine_fault_site(), times=1)

    def _engine_fault_site(self) -> str:
        return "scheduler.execute"

    @precondition(lambda self: not self.closed)
    @rule(node=nodes_st)
    def stream_partially(self, node: int) -> None:
        """Open a stream, consume a frame or two, abandon it."""
        iterator = self.service.stream(
            QuerySpec(node, stop=StopAfterIterations(2))
        )
        try:
            next(iterator)
        except (StopIteration, InjectedFault):
            pass
        finally:
            iterator.close()

    @precondition(lambda self: not self.closed)
    @rule()
    def open_stream_for_close(self) -> None:
        """Park a stream un-consumed, so close() must cancel it."""
        if len(self.streams) < 2:
            self.streams.append(
                self.service.stream(QuerySpec(0, stop=StopAfterIterations(2)))
            )

    @precondition(lambda self: not self.closed)
    @rule()
    def flush(self) -> None:
        try:
            self.service.flush(timeout=10)
        except InjectedFault:
            pass
        self.collect_all()

    @rule()
    def collect_some(self) -> None:
        if not self.pending:
            return
        handle, node, eta = self.pending.pop(0)
        self._check_handle(handle, node, eta)

    def collect_all(self) -> None:
        while self.pending:
            handle, node, eta = self.pending.pop(0)
            self._check_handle(handle, node, eta)

    def _check_handle(self, handle, node: int, eta: int) -> None:
        """The heart of the suite: resolves (never hangs), and any
        result that arrives matches a fault-free oracle — from exactly
        one index generation."""
        try:
            result = handle.result(timeout=15)
        except TimeoutError:
            raise AssertionError(
                f"query ({node}, eta={eta}) silently dropped: handle "
                "never resolved"
            ) from None
        except InjectedFault:
            return  # structured failure: allowed, not a drop
        except RuntimeError:
            return  # e.g. submit raced close(); still structured
        scores = self._scores(result)
        current = self._oracle(node, eta, self.index_key)
        if self._matches(scores, current):
            return
        if self.swapped:
            # In-flight across a swap: the *previous* generation is the
            # only other legal answer — anything else is a mixed batch.
            for other in ("A", "B"):
                if other != self.index_key and self._matches(
                    scores, self._oracle(node, eta, other)
                ):
                    return
        raise AssertionError(
            f"query ({node}, eta={eta}) does not match any single-index "
            f"oracle (current {self.index_key!r}, swapped={self.swapped})"
        )

    @precondition(lambda self: not self.closed)
    @rule()
    def swap_index(self) -> None:
        if not self._supports_swap():
            return
        target_key = "B" if self.index_key == "A" else "A"
        target = INDEX_B if target_key == "B" else INDEX_A
        try:
            self.service.update_index(target)
        except InjectedFault:
            return  # flush surfaced an armed fault; index unchanged
        self.index_key = target_key
        self.swapped = True

    def _supports_swap(self) -> bool:
        return True

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self) -> None:
        self.service.close()
        self.service.close()  # idempotent, with streams still open
        self.closed = True
        # Closing drained the queue: every pending handle must resolve.
        self.collect_all()
        # Parked streams were cancelled but still terminated cleanly
        # (each receives its terminal sentinel — never a hang).
        for iterator in self.streams:
            try:
                for _ in iterator:
                    pass
            except InjectedFault:
                pass
        self.streams.clear()

    def teardown(self) -> None:
        if not self.closed:
            self.close()
        else:
            self.service.close()  # idempotent again, after everything
        self.collect_all()


class MemoryServiceMachine(_ServiceMachine):
    backend = "memory"


class DiskServiceMachine(_ServiceMachine):
    backend = "disk"

    def _open_service(self) -> PPVService:
        ppv_store = DiskPPVStore(INDEX_A_PATH, fault_plan=self.plan)
        graph_store = DiskGraphStore.open(_STORE_DIR, fault_plan=self.plan)
        return PPVService.open(
            ppv_store,
            graph_store=graph_store,
            fault_plan=self.plan,
            cache_size=8,
        )

    def _oracle(self, node: int, eta: int, index_key: str) -> np.ndarray:
        return DISK_ORACLES[(node, eta)]

    def _matches(self, scores: np.ndarray, oracle: np.ndarray) -> bool:
        # Disk serving is schedule-independent: bitwise, no tolerance.
        return bool(np.array_equal(scores, oracle))

    def _scores(self, result) -> np.ndarray:
        return result.scores

    def _engine_fault_site(self) -> str:
        return "ppv_store.read"

    def _supports_swap(self) -> bool:
        return False  # the disk backend cannot swap indexes in place


TestMemoryServiceLifecycle = MemoryServiceMachine.TestCase
TestDiskServiceLifecycle = DiskServiceMachine.TestCase


# --------------------------------------------------------------------- #
# 3. TCP server machine: every request answered or structured error,
#    server survives torn frames / malformed lines / swaps / disconnects


class ServerMachine(RuleBasedStateMachine):
    MAX_CLIENTS = 3

    def __init__(self) -> None:
        super().__init__()
        self.plan = FaultPlan()
        self.service = PPVService.open(INDEX_A, graph=GRAPH, cache_size=8)
        self.server = PPVServer(self.service, fault_plan=self.plan)
        self.context = self.server.background()
        self.address = self.context.__enter__()
        self.clients: list = []
        self.index_key = "A"
        self.swapped = False

    def _client(self) -> PPVClient:
        if not self.clients:
            self.clients.append(PPVClient(*self.address, timeout=15))
        return self.clients[0]

    def _drop_client(self, client: PPVClient) -> None:
        try:
            client.close()
        except OSError:
            pass
        if client in self.clients:
            self.clients.remove(client)

    def _check_payload(self, node: int, eta: int, payload: dict) -> None:
        assert payload["iterations"] <= eta
        tops = dict(
            (int(n), float(s)) for n, s in payload["top"]
        )
        for key in ("A", "B") if self.swapped else (self.index_key,):
            oracle = MEMORY_ORACLES[(key, node, eta)]
            if all(
                abs(oracle[n] - s) <= 1e-9 for n, s in tops.items()
            ):
                return
        raise AssertionError(
            f"served top scores for ({node}, eta={eta}) match no "
            "single-index oracle"
        )

    @rule(node=nodes_st, eta=etas_st)
    def query(self, node: int, eta: int) -> None:
        client = self._client()
        try:
            payload = client.query(node, eta=eta, top=8)
        except (ConnectionError, OSError, ProtocolViolation):
            self._drop_client(client)  # injected torn frame/disconnect
            return
        self._check_payload(node, eta, payload)

    @rule(data=st.data())
    def query_pipelined(self, data) -> None:
        picks = data.draw(
            st.lists(nodes_st, min_size=1, max_size=5)
        )
        client = self._client()
        try:
            payloads = client.query_many(picks, eta=2, window=3, top=8)
        except (ConnectionError, OSError, ProtocolViolation):
            self._drop_client(client)
            return
        assert len(payloads) == len(picks)
        for node, payload in zip(picks, payloads):
            self._check_payload(node, 2, payload)

    @rule(node=nodes_st)
    def stream_and_abandon(self, node: int) -> None:
        client = self._client()
        try:
            iterator = client.stream(node, eta=2, top=4)
            next(iterator, None)
            iterator.close()
            # The connection survives an abandoned stream.
            assert client.ping()
        except (ConnectionError, OSError, ProtocolViolation, ServerError):
            self._drop_client(client)

    @rule()
    def malformed_line(self) -> None:
        client = self._client()
        try:
            client.send_raw(b"this is not json\n")
            message = client.read_message()
        except (ConnectionError, OSError, ProtocolViolation):
            self._drop_client(client)
            return
        assert message["ok"] is False
        assert message["error"]["code"] == "malformed"

    @rule()
    def stats_shape(self) -> None:
        client = self._client()
        try:
            stats = client.stats()
        except (ConnectionError, OSError, ProtocolViolation):
            self._drop_client(client)
            return
        service = stats["service"]
        assert service["queue_depth"] >= 0
        assert service["in_flight"] >= 0
        latency = service["latency"]
        assert latency["count"] == sum(latency["counts"])
        assert stats["server"]["requests_total"] >= 1

    @rule()
    def inject_torn_frame(self) -> None:
        self.plan.on("server.send", torn=True, times=1)

    @rule()
    def abrupt_disconnect(self) -> None:
        client = PPVClient(*self.address, timeout=15)
        try:
            client.send_raw(b'{"v":1,"id":1,"node":0}\n')
        finally:
            client.close()  # vanish without reading the reply

    @rule()
    def swap_index(self) -> None:
        client = self._client()
        target_key = "B" if self.index_key == "A" else "A"
        path = INDEX_B_PATH if target_key == "B" else INDEX_A_PATH
        try:
            reply = client.swap_index(str(path))
        except (ConnectionError, OSError, ProtocolViolation):
            self._drop_client(client)
            return
        assert reply["swapped"] is True
        self.index_key = target_key
        self.swapped = True

    @invariant()
    def server_alive(self) -> None:
        # An armed torn-frame fault may hit this probe's reply (the
        # fault strikes the *next* server send, whoever triggers it);
        # liveness only requires that a retry gets through.
        last: BaseException | None = None
        for _ in range(3):
            try:
                with PPVClient(*self.address, timeout=15) as probe:
                    assert probe.ping()
                    return
            except (ConnectionError, OSError, ProtocolViolation) as error:
                last = error
        raise AssertionError(f"server unreachable: {last!r}")

    def teardown(self) -> None:
        for client in list(self.clients):
            self._drop_client(client)
        self.context.__exit__(None, None, None)
        self.service.close()


TestServerLifecycle = ServerMachine.TestCase


# --------------------------------------------------------------------- #
# 4. Forked server machine: SIGKILL the one server process under load


def _pool_factory():
    return PPVService.open(INDEX_A, graph=GRAPH, cache_size=8)


class PoolMachine(RuleBasedStateMachine):
    """The one process a :class:`ServerPool` forks, under queries, stats
    probes and a SIGKILL.  While it lives every request is answered and
    every query carries the oracle's scores; once it is killed every
    request fails typed within the client timeout — never a hang, never
    an answer — and teardown reports the kill as 128 + SIGKILL."""

    TIMEOUT = 3

    def __init__(self) -> None:
        super().__init__()
        self.pool = ServerPool(_pool_factory, workers=1)
        self.address = self.pool.start()
        self.killed = False

    def _request(self, call):
        """``call(client)`` on a fresh connection: its reply while the
        server lives, ``None`` (a typed failure) once it is killed."""
        started = time.monotonic()
        try:
            with PPVClient(*self.address, timeout=self.TIMEOUT) as client:
                reply = call(client)
        except (ConnectionError, OSError, ClientTimeout):
            reply = None
        assert (reply is None) == self.killed, (reply, self.killed)
        assert time.monotonic() - started < self.TIMEOUT + 1
        return reply

    @rule(node=nodes_st)
    def query(self, node: int) -> None:
        payload = self._request(lambda c: c.query(node, eta=1, top=8))
        if payload is not None:
            oracle = MEMORY_ORACLES[("A", node, 1)]
            for n, s in payload["top"]:
                assert abs(oracle[int(n)] - float(s)) <= 1e-9

    @precondition(lambda self: not self.killed)
    @rule()
    def kill(self) -> None:
        self.pool.kill()
        self.killed = True
        assert self.pool.process.exitcode == -signal.SIGKILL

    @rule()
    def stats(self) -> None:
        stats = self._request(lambda c: c.stats())
        if stats is not None:
            assert stats["worker"] == {
                "index": 0, "pid": self.pool.process.pid,
            }
            assert stats["service"]["latency"]["count"] >= 0

    @invariant()
    def alive_until_killed(self) -> None:
        assert self.pool.process.is_alive() != self.killed

    def teardown(self) -> None:
        code = self.pool.stop()
        assert code == (128 + signal.SIGKILL if self.killed else 0)


TestPoolLifecycle = PoolMachine.TestCase


# --------------------------------------------------------------------- #
# 5. Shard router machine: interleaved queries / rolling swaps / a shard
#    SIGKILL — every request resolves typed, results match exactly one
#    partition generation bitwise, the front-end stays reachable


class RouterMachine(RuleBasedStateMachine):
    """A 2-shard :class:`ShardRouter` under random interleavings of
    queries, pipelined bursts, stats probes, rolling partition swaps
    and a mid-run shard SIGKILL.  Invariants: no request ever hangs
    (a dead shard answers ``shard_unavailable`` within the fleet
    timeout), any served vector bitwise-matches a single partition
    generation's disk oracle, and the router front-end keeps serving
    throughout."""

    def __init__(self) -> None:
        super().__init__()
        # Router-side residency off: every query pulls from the shards,
        # so a killed shard is observable immediately; the short fleet
        # timeout bounds how long that observation can take.
        self.router = ShardRouter(
            PART_A_ROOT,
            timeout=1.0,
            cache_size=0,
            cache_hubs=0,
            memory_budget=1,
        )
        self.address = self.router.start()
        self.clients: list = []
        self.index_key = "A"
        self.swapped = False
        self.shard_down = False

    def _client(self) -> PPVClient:
        if not self.clients:
            self.clients.append(PPVClient(*self.address, timeout=15))
        return self.clients[0]

    def _drop_client(self, client: PPVClient) -> None:
        try:
            client.close()
        except OSError:
            pass
        if client in self.clients:
            self.clients.remove(client)

    def _oracle(self, node: int, eta: int, key: str) -> np.ndarray:
        table = DISK_ORACLES if key == "A" else DISK_ORACLES_B
        return table[(node, eta)]

    def _check_payload(self, node: int, eta: int, payload: dict) -> None:
        # Disk serving is bitwise: JSON round-trips floats exactly, so
        # a served top score must EQUAL one generation's oracle score.
        for key in ("A", "B") if self.swapped else (self.index_key,):
            oracle = self._oracle(node, eta, key)
            if all(
                oracle[int(n)] == float(s) for n, s in payload["top"]
            ):
                return
        raise AssertionError(
            f"router result for ({node}, eta={eta}) matches no "
            f"single-partition oracle (current {self.index_key!r}, "
            f"swapped={self.swapped})"
        )

    @precondition(lambda self: not self.shard_down)
    @rule(node=nodes_st, eta=etas_st)
    def query(self, node: int, eta: int) -> None:
        client = self._client()
        try:
            payload = client.query(node, eta=eta, top=8)
        except (ConnectionError, OSError, ProtocolViolation):
            self._drop_client(client)
            return
        self._check_payload(node, eta, payload)

    @precondition(lambda self: not self.shard_down)
    @rule(data=st.data())
    def query_pipelined(self, data) -> None:
        picks = data.draw(st.lists(nodes_st, min_size=1, max_size=4))
        client = self._client()
        try:
            payloads = client.query_many(picks, eta=2, window=2, top=8)
        except (ConnectionError, OSError, ProtocolViolation):
            self._drop_client(client)
            return
        assert len(payloads) == len(picks)
        for node, payload in zip(picks, payloads):
            self._check_payload(node, 2, payload)

    @rule()
    def stats_shape(self) -> None:
        client = self._client()
        try:
            stats = client.stats()
        except (ConnectionError, OSError, ProtocolViolation,
                ClientTimeout):
            self._drop_client(client)
            return
        shards = stats["shards"]
        if "error" in shards:
            # Only a degraded fleet may report an aggregation error.
            assert self.shard_down
            return
        assert shards["num_shards"] == 2
        assert len(shards["per_shard"]) == 2
        assert shards["latency"]["count"] == sum(
            entry["latency"]["count"] for entry in shards["per_shard"]
        )
        assert shards["fetch_balance"] >= 1.0

    @precondition(lambda self: not self.shard_down)
    @rule()
    def swap_partition(self) -> None:
        client = self._client()
        target_key = "B" if self.index_key == "A" else "A"
        root = PART_B_ROOT if target_key == "B" else PART_A_ROOT
        try:
            reply = client.swap_index(str(root))
        except (ConnectionError, OSError, ProtocolViolation):
            self._drop_client(client)
            return
        assert reply["swapped"] is True
        self.index_key = target_key
        self.swapped = True

    def _evict_router_caches(self) -> None:
        """Drop the router's residency so the next query must refetch
        (both remote stores' ``close`` only clears their caches)."""
        engine = self.router.service.engine
        engine.graph_store.close()
        engine.ppv_store.close()

    @precondition(lambda self: not self.shard_down)
    @rule()
    def kill_shard(self) -> None:
        """SIGKILL shard 1's server; traffic that needs it must fail
        typed and promptly, while the front-end stays up."""
        self.router.pools[1].kill()
        self.shard_down = True
        self._evict_router_caches()
        client = self._client()
        started = time.monotonic()
        with pytest.raises(ServerError) as excinfo:
            client.query(_SHARD1_NODE, eta=1)
        assert excinfo.value.code == "shard_unavailable"
        assert time.monotonic() - started < 30  # typed error, not a hang
        assert client.ping()

    @precondition(lambda self: self.shard_down)
    @rule()
    def dead_shard_stays_structured(self) -> None:
        self._evict_router_caches()
        client = self._client()
        with pytest.raises(ServerError) as excinfo:
            client.query(_SHARD1_NODE, eta=1)
        assert excinfo.value.code == "shard_unavailable"
        assert client.ping()

    @invariant()
    def router_front_end_alive(self) -> None:
        last: BaseException | None = None
        for _ in range(3):
            try:
                with PPVClient(*self.address, timeout=15) as probe:
                    assert probe.ping()
                    return
            except (ConnectionError, OSError, ProtocolViolation) as error:
                last = error
        raise AssertionError(f"router unreachable: {last!r}")

    def teardown(self) -> None:
        for client in list(self.clients):
            self._drop_client(client)
        self.router.stop()


TestRouterLifecycle = RouterMachine.TestCase
# Each router example forks two shard server pools; 200 ci examples
# would dominate the whole lifecycle job.  Cap this machine (only) at
# 60 while inheriting everything else from the loaded profile — the
# deterministic sharding suites carry the exhaustive coverage.
TestRouterLifecycle.settings = hyp_settings(
    max_examples=min(60, hyp_settings.default.max_examples),
)
