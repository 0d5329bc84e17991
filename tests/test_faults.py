"""Unit coverage of :mod:`repro.faults` and every wired hook site.

The stateful lifecycle suites (``test_lifecycle_properties.py``) drive
random interleavings; this file pins each fault mechanism's contract
deterministically: rule selection (nth / after / probability / times),
actions (raise / delay / torn / kill), and the behaviour of each
component when its site triggers — including the satellite regressions
(client timeouts against a hung server, backpressure visibility in
``stats``).
"""

from __future__ import annotations

import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import build_index, select_hubs
from repro.faults import FaultPlan, InjectedFault, fire
from repro.server import (
    ClientTimeout,
    PPVClient,
    PPVServer,
    ProtocolViolation,
    ServerPool,
)
from repro.serving import CoalescingScheduler, PPVService
from repro.storage import (
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    cluster_graph,
    save_index,
)


@pytest.fixture(scope="module")
def tiny_index(fig1_graph):
    hubs = select_hubs(fig1_graph, num_hubs=3)
    return build_index(fig1_graph, hubs)


@pytest.fixture(scope="module")
def tiny_disk(fig1_graph, tiny_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("faults_disk")
    index_path = root / "index.fppv"
    save_index(tiny_index, index_path)
    assignment = cluster_graph(fig1_graph, 2, seed=1)
    store_dir = root / "clusters"
    DiskGraphStore(fig1_graph, assignment, store_dir)
    return store_dir, index_path


# --------------------------------------------------------------------- #
# The plan itself


class TestFaultPlan:
    def test_nth_rule_fires_exactly_on_that_hit(self):
        plan = FaultPlan()
        rule = plan.on("site", nth=3)
        plan.fire("site")
        plan.fire("site")
        with pytest.raises(InjectedFault):
            plan.fire("site")
        plan.fire("site")  # rule disarmed after its single trigger
        assert rule.triggered == 1
        assert plan.hits("site") == 4
        assert [record.hit for record in plan.fired_at("site")] == [3]

    def test_after_rule_respects_times(self):
        plan = FaultPlan()
        plan.on("s", after=2, times=2)
        plan.fire("s")
        plan.fire("s")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire("s")
        plan.fire("s")  # disarmed

    def test_error_class_and_instance(self):
        plan = FaultPlan()
        plan.on("a", nth=1, error=ConnectionResetError)
        with pytest.raises(ConnectionResetError):
            plan.fire("a")
        marker = ValueError("specific")
        plan.on("b", nth=1, error=marker)
        with pytest.raises(ValueError) as caught:
            plan.fire("b")
        assert caught.value is marker

    def test_delay_only_rule_stalls_without_raising(self):
        plan = FaultPlan()
        plan.on("slow", nth=1, delay=0.05)
        started = time.monotonic()
        assert plan.fire("slow") is None
        assert time.monotonic() - started >= 0.05
        assert len(plan.fired) == 1

    def test_torn_rule_returns_action(self):
        plan = FaultPlan()
        plan.on("send", nth=1, torn=True)
        action = plan.fire("send")
        assert action is not None and action.torn
        assert plan.fire("send") is None

    def test_probability_reproducible_under_seed(self):
        def triggers(seed):
            plan = FaultPlan(seed=seed)
            plan.on("p", probability=0.3, times=None)
            hits = []
            for i in range(50):
                try:
                    plan.fire("p")
                except InjectedFault:
                    hits.append(i)
            return hits

        first, second = triggers(7), triggers(7)
        assert first == second
        assert 0 < len(first) < 50
        assert triggers(8) != first

    def test_fire_helper_is_noop_without_plan(self):
        assert fire(None, "anything") is None

    def test_context_recorded(self):
        plan = FaultPlan()
        plan.on("ctx", nth=1)
        with pytest.raises(InjectedFault):
            plan.fire("ctx", hub=42)
        assert plan.fired_at("ctx")[0].context == {"hub": 42}


# --------------------------------------------------------------------- #
# Storage hooks


class TestStorageHooks:
    def test_ppv_store_nth_read_fails(self, tiny_disk):
        _store_dir, index_path = tiny_disk
        plan = FaultPlan()
        plan.on("ppv_store.read", nth=2)
        with DiskPPVStore(index_path, fault_plan=plan) as store:
            hubs = store.hubs.tolist()
            store.get(hubs[0])
            # A second get of hubs[0] is a hit: the second read is hubs[1].
            with pytest.raises(InjectedFault):
                store.get(hubs[1])
            # The store object survives the injected failure.
            entry = store.get(hubs[1])
            assert entry.nodes.size > 0

    def test_graph_store_reopen_matches_build(self, fig1_graph, tiny_disk):
        store_dir, _ = tiny_disk
        reopened = DiskGraphStore.open(store_dir)
        assert reopened.num_nodes == fig1_graph.num_nodes
        for node in range(fig1_graph.num_nodes):
            targets, probs = reopened.out_edges(node)
            assert sorted(targets.tolist()) == sorted(
                fig1_graph.out_neighbors(node).tolist()
            )
            assert len(probs) == len(targets)

    def test_graph_store_load_fault(self, tiny_disk):
        store_dir, _ = tiny_disk
        plan = FaultPlan()
        plan.on("graph_store.load", nth=1)
        store = DiskGraphStore.open(store_dir, fault_plan=plan)
        with pytest.raises(InjectedFault):
            store.out_edges(0)
        # Next access retries the load and succeeds.
        targets, _ = store.out_edges(0)
        assert targets.size >= 0


# --------------------------------------------------------------------- #
# Scheduler hooks + backpressure stats (satellite: stats verb depth)


class TestSchedulerHooks:
    def test_executor_exception_reaches_on_error_and_flush(self):
        served, failed = [], []
        plan = FaultPlan()
        plan.on("scheduler.execute", nth=1)
        scheduler = CoalescingScheduler(
            served.extend,
            max_delay=0,
            on_error=lambda jobs, error: failed.extend(jobs),
            fault_plan=plan,
        )
        scheduler.submit("job-1")
        with pytest.raises(InjectedFault):
            scheduler.flush()
        assert failed == ["job-1"] and served == []
        # The scheduler survives: the next drain executes normally.
        scheduler.submit("job-2")
        scheduler.flush()
        assert served == ["job-2"]
        scheduler.close()

    def test_queue_depth_and_in_flight_counters(self):
        release = threading.Event()
        entered = threading.Event()

        def execute(jobs):
            entered.set()
            release.wait(5)

        scheduler = CoalescingScheduler(execute, max_batch=1, max_delay=0)
        scheduler.submit("a")
        assert entered.wait(5)
        scheduler.submit("b")
        # "a" is mid-execute, "b" is queued behind it.
        deadline = time.monotonic() + 5
        while scheduler.queue_depth < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert scheduler.in_flight == 1
        assert scheduler.queue_depth == 1
        release.set()
        scheduler.flush()
        assert scheduler.in_flight == 0 and scheduler.queue_depth == 0
        scheduler.close()

    def test_slow_drain_shows_backpressure_in_service_stats(
        self, fig1_graph, tiny_index
    ):
        plan = FaultPlan()
        plan.on("scheduler.execute", nth=1, delay=0.3)
        with PPVService.open(
            tiny_index, graph=fig1_graph, fault_plan=plan, max_delay=0
        ) as service:
            handle = service.submit(0)
            service.submit(1)
            deadline = time.monotonic() + 5
            observed = 0
            while time.monotonic() < deadline:
                stats = service.stats()
                observed = max(
                    observed, stats.queue_depth + stats.in_flight
                )
                if handle.done():
                    break
                time.sleep(0.01)
            assert observed >= 1  # backpressure was visible
            service.flush()
            stats = service.stats()
            assert stats.queue_depth == 0 and stats.in_flight == 0
            assert stats.latency["count"] == 2
            assert sum(stats.latency["counts"]) == 2
            # The injected 0.3 s drain shows up in the histogram tail.
            slow_edge = stats.latency["bounds"].index(0.3)
            assert sum(stats.latency["counts"][slow_edge:]) >= 1


# --------------------------------------------------------------------- #
# Server + client faults (satellite: structured client timeouts)


@pytest.fixture()
def tiny_service(fig1_graph, tiny_index):
    def factory(fault_plan=None):
        return PPVService.open(
            tiny_index, graph=fig1_graph, fault_plan=fault_plan
        )

    return factory


class TestServerFaults:
    def test_torn_frame_drops_client_not_server(self, tiny_service):
        plan = FaultPlan()
        plan.on("server.send", nth=1, torn=True)
        with tiny_service() as service:
            server = PPVServer(service, fault_plan=plan)
            with server.background() as address:
                with PPVClient(*address, timeout=5) as client:
                    with pytest.raises(
                        (ProtocolViolation, ConnectionError, OSError)
                    ):
                        client.query(0, eta=1)
                with PPVClient(*address, timeout=5) as fresh:
                    assert fresh.ping()
                assert plan.fired_at("server.send")

    def test_injected_send_disconnect(self, tiny_service):
        plan = FaultPlan()
        plan.on("server.send", nth=1, error=ConnectionResetError)
        with tiny_service() as service:
            server = PPVServer(service, fault_plan=plan)
            with server.background() as address:
                with PPVClient(*address, timeout=5) as client:
                    with pytest.raises((ConnectionError, OSError)):
                        client.query(0, eta=1)
                with PPVClient(*address, timeout=5) as fresh:
                    assert fresh.ping()

    def test_client_read_timeout_is_structured(self, tiny_service):
        """Satellite regression: a hung server used to block forever."""
        plan = FaultPlan()
        plan.on("scheduler.execute", nth=1, delay=1.0)
        with tiny_service(fault_plan=plan) as service:
            server = PPVServer(service)
            with server.background() as address:
                with PPVClient(*address, timeout=0.2) as client:
                    with pytest.raises(ClientTimeout):
                        client.query(0, eta=1)
                    # The connection is poisoned: the late reply must not
                    # be misread as the next response.
                    with pytest.raises(ClientTimeout):
                        client.ping()
                # A fresh connection with headroom succeeds once the
                # slow drain clears.
                with PPVClient(*address, timeout=30) as fresh:
                    assert fresh.query(0, eta=1)["top"]
        assert isinstance(ClientTimeout("x"), TimeoutError)

    def test_connect_timeout_against_silent_server(self):
        backlog = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        fillers = []
        try:
            backlog.bind(("127.0.0.1", 0))
            backlog.listen(0)
            address = backlog.getsockname()
            # Saturate the accept queue so further SYNs go unanswered.
            for _ in range(4):
                filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                filler.setblocking(False)
                filler.connect_ex(address)
                fillers.append(filler)
            time.sleep(0.05)
            try:
                client = PPVClient(
                    *address, connect_timeout=0.3, timeout=0.3
                )
            except ClientTimeout:
                pass  # the structured connect-timeout path
            except (ConnectionError, OSError):
                pytest.skip("kernel refused instead of staying silent")
            else:
                client.close()
                pytest.skip("accept queue not saturable on this host")
        finally:
            for filler in fillers:
                filler.close()
            backlog.close()

    def test_client_fault_sites_fire(self, tiny_service):
        plan = FaultPlan()
        plan.on("client.send", nth=2, error=BrokenPipeError)
        with tiny_service() as service:
            with PPVServer(service).background() as address:
                client = PPVClient(*address, timeout=5, fault_plan=plan)
                with client:
                    assert client.ping()
                    with pytest.raises(BrokenPipeError):
                        client.ping()
        assert plan.hits("client.connect") == 1
        assert plan.hits("client.send") == 2


# --------------------------------------------------------------------- #
# Pool faults: SIGKILL the forked server after m requests


class TestPoolFaults:
    def test_worker_killed_after_m_requests(self, fig1_graph, tiny_index):
        """``plan.on("server.request", nth=3, kill=True)`` SIGKILLs the
        server mid-dispatch on its 3rd request.  The plan forks with the
        server: requests 1 and 2 are answered in order, the 3rd gets a
        connection error rather than an answer or a hang, and the death
        maps to exit code 137.
        """
        plan = FaultPlan()
        plan.on("server.request", nth=3, kill=True)

        def factory():
            return PPVService.open(tiny_index, graph=fig1_graph)

        pool = ServerPool(factory, workers=1, fault_plan=plan)
        try:
            with PPVClient(*pool.start(), timeout=10) as client:
                first = client.query(0, eta=1)
                second = client.query(1, eta=1)
                assert [first["nodes"], second["nodes"]] == [[0], [1]]
                with pytest.raises(ConnectionError):
                    client.query(2, eta=1)
        finally:
            code = pool.stop()
        # SIGKILL death maps to the shell convention, never to success.
        assert code == 128 + signal.SIGKILL


# --------------------------------------------------------------------- #
# Router fault sites (router.dispatch / router.connect / shard.recv)


@pytest.fixture(scope="module")
def shard_fleet(fig1_graph, tiny_index, tmp_path_factory):
    """A live 2-shard fleet over the Fig. 1 index, addresses by shard."""
    from repro.server import ServerConfig
    from repro.sharding import (
        load_shard_map,
        partition_index,
        shard_service_factory,
    )

    root = tmp_path_factory.mktemp("faults_shards")
    assignment = cluster_graph(fig1_graph, 2, seed=1)
    partition_index(fig1_graph, tiny_index, 2, root, assignment=assignment)
    pools, addresses = [], []
    for entry in load_shard_map(root)["shards"]:
        pool = ServerPool(
            shard_service_factory(root / entry["dir"]),
            workers=1,
            config=ServerConfig(port=0),
        )
        pools.append(pool)
        addresses.append(pool.start())
    yield addresses
    for pool in pools:
        pool.stop()


class TestRouterEngineIsTheDiskEngine:
    """``RouterEngine`` builds the one disk engine over remote stores, so
    it inherits that engine's validation and its solo == batch pin."""

    def test_negative_delta_and_kernel_option_refused(self, shard_fleet):
        from repro.sharding import RouterEngine

        with pytest.raises(ValueError, match="delta must be non-negative"):
            RouterEngine(shard_fleet, delta=-1.0)
        with pytest.raises(TypeError):
            RouterEngine(shard_fleet, kernel="reference")

    def test_stream_ends_on_the_batch_result(self, shard_fleet):
        from repro import StopAfterIterations
        from repro.sharding import RouterEngine

        stop = StopAfterIterations(2)
        engine = RouterEngine(shard_fleet, delta=0.0)
        try:
            batch = engine.query_batch([3, 5], stop)
            for node, expected in zip([3, 5], batch):
                states = []
                streamed = engine.query_stream(node, stop, states.append)
                assert np.array_equal(streamed.scores, expected.scores)
                assert len(states) == expected.iterations + 1
                assert streamed.cluster_faults == expected.cluster_faults
                assert streamed.hub_reads == expected.hub_reads
        finally:
            engine.close()


class TestRouterFaultSites:
    """The three fan-out sites fire where documented, and the fleet's
    retry-then-declare-unavailable contract holds under injection."""

    def test_connect_fault_is_retried_transparently(self, shard_fleet):
        from repro.sharding import RouterEngine

        plan = FaultPlan()
        plan.on("router.connect", error=ConnectionError, times=1)
        engine = RouterEngine(shard_fleet, fault_plan=plan)
        try:
            # Bootstrap survived: the failed connect was redone.
            assert engine.num_nodes == 8
        finally:
            engine.close()
        assert [r.hit for r in plan.fired_at("router.connect")] == [1]
        assert plan.hits("router.connect") >= 2  # the reconnect refired it

    def test_recv_fault_is_retried_and_results_stay_bitwise(
        self, shard_fleet, tiny_disk
    ):
        from repro import StopAfterIterations
        from repro.sharding import RouterEngine

        store_dir, index_path = tiny_disk
        local = DiskFastPPV(
            DiskGraphStore.open(store_dir), DiskPPVStore(index_path)
        )
        plan = FaultPlan()
        plan.on("shard.recv", error=ConnectionError, times=1)
        engine = RouterEngine(shard_fleet, fault_plan=plan)
        try:
            stop = StopAfterIterations(2)
            expected = local.query_batch([3], stop)[0]
            got = engine.query_batch([3], stop)[0]
            assert np.array_equal(
                got.scores, expected.scores
            )
        finally:
            engine.close()
            local.ppv_store.close()
        assert len(plan.fired_at("shard.recv")) == 1

    def test_dispatch_fault_surfaces_and_fleet_recovers(self, shard_fleet):
        from repro.sharding import RouterEngine

        plan = FaultPlan()
        engine = RouterEngine(shard_fleet, fault_plan=plan)
        try:
            hub = int(engine.ppv_store.hubs[0])
            plan.on("router.dispatch", nth=plan.hits("router.dispatch") + 1)
            with pytest.raises(InjectedFault):
                engine.ppv_store.get(hub)
            assert plan.fired_at("router.dispatch")
            # One injected dispatch does not poison the connection.
            assert engine.ppv_store.get(hub).scores.size > 0
        finally:
            engine.close()

    def test_persistent_connect_failure_is_shard_unavailable(
        self, shard_fleet
    ):
        from repro.server.protocol import ShardUnavailableError
        from repro.sharding import RouterEngine

        plan = FaultPlan()
        # Both of shard 0's connect attempts fail — the bootstrap
        # fan-out connects shards 0 then 1 (hits 1, 2) and retries
        # shard 0 on hit 3.  The fleet must declare the shard
        # unavailable, typed, not leak the raw transport error.
        plan.on("router.connect", nth=1, error=ConnectionError)
        plan.on("router.connect", nth=3, error=ConnectionError)
        with pytest.raises(ShardUnavailableError) as excinfo:
            RouterEngine(shard_fleet, fault_plan=plan)
        assert excinfo.value.shard == 0
        assert len(plan.fired_at("router.connect")) == 2
