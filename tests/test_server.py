"""End-to-end behaviour of the TCP server (:mod:`repro.server`):
concurrent-client equivalence on both backends, wire-level error
handling, streaming (including mid-stream disconnect), backpressure,
hot index swap under load, graceful shutdown, and the one-process CLI
launch the performance ledger uses."""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import build_index, select_hubs
from repro.server import (
    PPVClient,
    PPVServer,
    ProtocolViolation,
    ServerConfig,
    ServerError,
    protocol,
)
from repro.serving import PPVService, QuerySpec, UnsupportedFamilyError
from repro.storage import (
    DiskGraphStore,
    DiskPPVStore,
    cluster_graph,
    save_index,
)

QUERY_NODES = [3, 7, 11, 19, 23, 42, 57, 99, 123, 222, 301, 388]


@pytest.fixture(scope="module")
def certifiable_index(small_social):
    """clip=0 so top-k certificates can actually fire."""
    hubs = select_hubs(small_social, num_hubs=40)
    return build_index(small_social, hubs, clip=0.0, epsilon=1e-6)


@pytest.fixture()
def memory_service(small_social, small_social_index):
    with PPVService.open(
        small_social_index, graph=small_social, delta=1e-4
    ) as service:
        yield service


@pytest.fixture()
def memory_server(memory_service):
    server = PPVServer(memory_service)
    with server.background() as address:
        yield server, address


@pytest.fixture(scope="module")
def disk_setup(small_social, small_social_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("server_disk")
    index_path = root / "index.fppv"
    save_index(small_social_index, index_path)
    assignment = cluster_graph(small_social, 5, seed=1)
    return root, small_social, assignment, index_path


def _server_metric(server, suffix):
    """One of the front-end's own ``repro_server_*`` series, read from
    the registry (its only store)."""
    snapshot = server.obs.registry.snapshot()
    return snapshot[f"repro_server_{suffix}"]["samples"][0]["value"]


def _reference_results(service, specs):
    """Direct façade results for ``specs`` (the bitwise yardstick)."""
    return service.query_many(specs)


class TestConcurrentEquivalence:
    def _hammer(self, address, per_client_specs, top):
        """One thread per client; returns {client: [result payloads]}."""
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def client_main(client_id: int, specs) -> None:
            try:
                with PPVClient(*address) as client:
                    payloads = []
                    for spec in specs:
                        if spec.top_k is not None:
                            payloads.append(
                                client.query(
                                    spec.nodes[0],
                                    top_k=spec.top_k,
                                    budget=spec.top_k_budget,
                                    top=top,
                                )
                            )
                        else:
                            nodes = (
                                list(spec.nodes)
                                if spec.is_multi
                                else spec.nodes[0]
                            )
                            payloads.append(
                                client.query(nodes, eta=2, top=top)
                            )
                    results[client_id] = payloads
            except BaseException as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [
            threading.Thread(target=client_main, args=(cid, specs))
            for cid, specs in enumerate(per_client_specs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        return results

    def test_eight_concurrent_clients_memory_bitwise(self, memory_server,
                                                     memory_service):
        _server, address = memory_server
        from repro.core.query import StopAfterIterations

        stop = StopAfterIterations(2)
        per_client = [
            [QuerySpec(node, stop=stop) for node in QUERY_NODES]
            for _ in range(8)
        ]
        results = self._hammer(address, per_client, top=20)
        assert len(results) == 8
        reference = _reference_results(
            memory_service, [QuerySpec(n, stop=stop) for n in QUERY_NODES]
        )
        expected = [
            protocol.render_result(QuerySpec(n, stop=stop), r, top=20)
            for n, r in zip(QUERY_NODES, reference)
        ]
        for payloads in results.values():
            # JSON round-trips floats exactly: dict equality is bitwise
            # score equality.
            assert payloads == expected

    def test_eight_concurrent_clients_disk_bitwise(self, disk_setup):
        root, graph, assignment, index_path = disk_setup
        store_dir = root / "equivalence"
        graph_store = DiskGraphStore(graph, assignment, store_dir)
        with PPVService.open(
            str(index_path), backend="disk", graph_store=graph_store,
            delta=1e-4,
        ) as service:
            from repro.core.query import StopAfterIterations

            stop = StopAfterIterations(2)
            specs = [QuerySpec(n, stop=stop) for n in QUERY_NODES[:6]]
            reference = _reference_results(service, specs)
            expected = [
                protocol.render_result(spec, r, top=20)
                for spec, r in zip(specs, reference)
            ]
            server = PPVServer(service)
            with server.background() as address:
                results = self._hammer(
                    address, [list(specs) for _ in range(8)], top=20
                )
            for payloads in results.values():
                assert payloads == expected

    def test_certified_top_k_and_multi_node_match_direct(
        self, small_social, certifiable_index
    ):
        with PPVService.open(
            certifiable_index, graph=small_social, delta=0.0
        ) as service:
            topk_spec = QuerySpec(7, top_k=5)
            multi_spec = QuerySpec((3, 9), weights=(2.0, 1.0))
            expected_topk = protocol.render_result(
                topk_spec, service.query(topk_spec), top=10
            )
            expected_multi = protocol.render_result(
                multi_spec, service.query(multi_spec), top=10
            )
            server = PPVServer(service)
            with server.background() as address:
                with PPVClient(*address) as client:
                    got_topk = client.query(7, top_k=5)
                    got_multi = client.query(
                        [3, 9], weights=[2.0, 1.0], eta=2
                    )
        assert got_topk == expected_topk
        assert got_topk["certified"] is True
        assert got_multi == expected_multi


class TestWireErrors:
    def test_malformed_line_is_answered_not_fatal(self, memory_server):
        _server, address = memory_server
        with PPVClient(*address) as client:
            client.send_raw(b"this is not json\n")
            message = client.read_message()
            assert message["ok"] is False
            assert message["error"]["code"] == protocol.E_MALFORMED
            # The connection survives for well-formed traffic.
            assert client.ping()

    def test_unknown_verb(self, memory_server):
        _server, address = memory_server
        with PPVClient(*address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.request({"verb": "frobnicate"})
            assert excinfo.value.code == protocol.E_UNKNOWN_VERB

    def test_unsupported_version_echoes_id(self, memory_server):
        _server, address = memory_server
        with PPVClient(*address) as client:
            client.send_raw(protocol.encode({"v": 99, "id": "vv", "node": 1}))
            message = client.read_message()
            assert message["id"] == "vv"
            assert message["error"]["code"] == protocol.E_UNSUPPORTED_VERSION

    def test_out_of_range_node_is_invalid(self, memory_server):
        _server, address = memory_server
        with PPVClient(*address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query(10**9)
            assert excinfo.value.code == protocol.E_INVALID

    def test_missing_node_is_invalid(self, memory_server):
        _server, address = memory_server
        with PPVClient(*address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.request({"eta": 2})
            assert excinfo.value.code == protocol.E_INVALID

    def test_unusable_top_field_is_invalid(self, memory_server):
        _server, address = memory_server
        with PPVClient(*address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.request({"node": 7, "top": "ten"})
            assert excinfo.value.code == protocol.E_INVALID

    def test_oversized_line_spares_pipelined_requests(self, memory_service):
        server = PPVServer(memory_service, ServerConfig(max_line_bytes=512))
        with server.background() as address:
            with PPVClient(*address) as client:
                oversized = (
                    b'{"id": "big", "pad": "' + b"x" * 2048 + b'"}\n'
                )
                follow_up = protocol.encode(
                    {"v": 1, "id": "after", "node": 3}
                )
                client.send_raw(oversized + follow_up)
                first = client.read_message()
                assert first["error"]["code"] == protocol.E_OVERSIZED
                second = client.read_message()
                assert second["id"] == "after"
                assert second["ok"] is True

    def test_payload_of_exactly_the_bound_is_served(self, memory_service):
        server = PPVServer(memory_service, ServerConfig(max_line_bytes=512))
        with server.background() as address:
            with PPVClient(*address) as client:
                body = {"v": 1, "id": "edge", "node": 3, "pad": ""}
                base = len(protocol.encode(body)) - 1  # payload, no \n
                body["pad"] = "x" * (512 - base)
                exact = protocol.encode(body)
                assert len(exact) - 1 == 512  # payload == the bound
                client.send_raw(exact)
                message = client.read_message()
                assert message["ok"] is True, message

    def test_oversized_without_newline_then_eof(self, memory_service):
        server = PPVServer(memory_service, ServerConfig(max_line_bytes=256))
        with server.background() as address:
            raw = socket.create_connection(address, timeout=10)
            try:
                raw.sendall(b"y" * 4096)
                raw.shutdown(socket.SHUT_WR)
                reply = raw.makefile("rb").readline()
                assert json.loads(reply)["error"]["code"] == (
                    protocol.E_OVERSIZED
                )
            finally:
                raw.close()

    def test_empty_lines_are_ignored(self, memory_server):
        _server, address = memory_server
        with PPVClient(*address) as client:
            client.send_raw(b"\n\n  \n")
            assert client.ping()


class _RaisingEngine:
    """An engine whose every serving call raises the given error."""

    backend = "stub"
    num_nodes = 8

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def _raise(self, *args, **kwargs):
        raise self.error

    query_batch = query_top_k_batch = query_stream = _raise
    replace_from_path = _raise

    def cache_token(self) -> object:
        return self

    def close(self) -> None:
        pass


class TestOneErrorTable:
    """Every verb maps a failure to its wire code through the one
    ``protocol.error_code`` table: the same exception from the service
    is the same code whether it surfaced on ``query``, ``stream`` or
    ``swap_index`` (``TypeError`` used to be ``internal`` on ``query``
    and ``invalid`` elsewhere)."""

    def test_server_table_covers_exactly_the_protocol_verbs(
        self, memory_service
    ):
        assert set(PPVServer(memory_service)._verbs) == set(protocol.VERBS)

    @pytest.mark.parametrize(
        "request_body",
        [
            {"verb": "query", "node": 1},
            {"verb": "stream", "node": 1},
            {"verb": "swap_index", "path": "anywhere"},
        ],
        ids=lambda body: body["verb"],
    )
    @pytest.mark.parametrize(
        "error, code",
        [
            (ValueError("bad value"), protocol.E_INVALID),
            (TypeError("bad type"), protocol.E_INVALID),
            (
                UnsupportedFamilyError("ppv", "stub"),
                protocol.E_UNSUPPORTED_FAMILY,
            ),
            (
                protocol.ShardUnavailableError(1, "gone"),
                protocol.E_SHARD_UNAVAILABLE,
            ),
            (RuntimeError("boom"), protocol.E_INTERNAL),
        ],
        ids=lambda value: type(value).__name__ if isinstance(
            value, BaseException
        ) else value,
    )
    def test_same_failure_same_code_on_every_verb(
        self, request_body, error, code
    ):
        with PPVService(_RaisingEngine(error), cache_size=0) as service:
            with PPVServer(service).background() as address:
                with PPVClient(*address) as client:
                    with pytest.raises(ServerError) as caught:
                        client.request(request_body)
                    assert caught.value.code == code
                    assert str(error) in str(caught.value)
                    # Counted once, under the same code.
                    server = client.stats()["server"]
                    assert server["errors_by_code"] == {code: 1}

    @pytest.mark.parametrize("verb", ["query", "stream", "swap_index"])
    @pytest.mark.parametrize(
        "error, code",
        [
            (OSError(5, "I/O error"), protocol.E_INTERNAL),
            (FileNotFoundError(2, "no such segment"), protocol.E_INVALID),
        ],
        ids=["OSError", "FileNotFoundError"],
    )
    def test_an_os_error_from_the_engine_is_answered_not_swallowed(
        self, verb, error, code
    ):
        # Only a failed *write* means the client is gone; an engine's
        # own OSError (a disk store's I/O error) must not be taken for
        # a disconnect and left unanswered.
        body = {"verb": verb, "node": 1, "path": "anywhere"}
        with PPVService(_RaisingEngine(error), cache_size=0) as service:
            with PPVServer(service).background() as address:
                with PPVClient(*address, timeout=10.0) as client:
                    with pytest.raises(ServerError) as caught:
                        client.request(body)
                    assert caught.value.code == code
                    # The connection survived the failure.
                    assert client.ping()
                    server = client.stats()["server"]
                    assert server["errors_by_code"] == {code: 1}

    @pytest.mark.parametrize(
        "verb", ["ping", "stats", "trace", "swap_index", "shutdown"]
    )
    def test_untraced_control_verbs_ignore_a_trace_field(
        self, memory_server, verb
    ):
        # Only query/stream and the shard fetch verbs read "trace";
        # every other verb serves the request whatever the field holds.
        _server, address = memory_server
        with PPVClient(*address) as client:
            try:
                client.request({"verb": verb, "trace": 5, "path": "nowhere"})
            except ServerError as error:  # swap_index: no such index
                assert verb == "swap_index"
                assert "no index at 'nowhere'" in str(error)
            assert not memory_server[0].obs.tracer.spans()

    def test_a_malformed_trace_on_a_fetch_verb_is_invalid(
        self, memory_server
    ):
        _server, address = memory_server
        with PPVClient(*address) as client:
            with pytest.raises(ServerError) as caught:
                client.request({"verb": "shard_info", "trace": 5})
            assert caught.value.code == protocol.E_INVALID
            assert "trace" in str(caught.value)

    def test_the_front_end_series_belong_to_the_service(
        self, memory_service
    ):
        # One live server per service: the repro_server_* series live
        # in the service's registry, so a later server over the same
        # service continues them — but the fault plan's request count
        # is this server's own.
        from repro.faults import FaultPlan

        for generation in (1, 2):
            plan = FaultPlan()
            plan.on("server.request", nth=2, delay=0.001)
            server = PPVServer(memory_service, fault_plan=plan)
            with server.background() as address:
                with PPVClient(*address) as client:
                    assert client.ping()
                    stats = client.stats()["server"]
            assert stats["connections_total"] == generation
            assert stats["requests_total"] == 2 * generation
            assert stats["responses_total"] == 2 * generation - 1
            (fired,) = plan.fired_at("server.request")
            assert fired.context == {"requests": 2}


class TestStreaming:
    def test_stream_frames_match_service_stream(self, small_social,
                                                certifiable_index):
        with PPVService.open(
            certifiable_index, graph=small_social, delta=0.0
        ) as service:
            spec = QuerySpec(7, top_k=5)
            expected = [
                protocol.render_snapshot(snapshot, top=10)
                for snapshot in service.stream(spec)
            ]
            server = PPVServer(service)
            with server.background() as address:
                with PPVClient(*address) as client:
                    frames = list(client.stream(7, top_k=5))
        assert frames == expected
        assert frames[-1]["certified"] is True

    def test_mid_stream_disconnect_leaves_server_healthy(
        self, memory_server, memory_service
    ):
        server, address = memory_server
        client = PPVClient(*address)
        iterator = client.stream(7, eta=30)
        first = next(iterator)
        assert first["iteration"] == 0
        # Vanish mid-stream: no polite goodbye, just a dead socket.
        client.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if _server_metric(server, "connections_open") == 0:
                break
            time.sleep(0.01)
        assert _server_metric(server, "connections_open") == 0
        # The server keeps serving new clients afterwards.
        with PPVClient(*address) as client2:
            result = client2.query(7, eta=2)
            assert result["iterations"] == 2

    def test_breaking_out_of_a_stream_keeps_the_connection_usable(
        self, small_social, certifiable_index
    ):
        """Abandoning the iterator early (the README's own pattern)
        must drain the in-flight records, not leave them to be misread
        as the reply to the next request."""
        with PPVService.open(
            certifiable_index, graph=small_social, delta=0.0
        ) as service:
            server = PPVServer(service)
            with server.background() as address:
                with PPVClient(*address) as client:
                    for frame in client.stream(7, top_k=5):
                        break  # after the very first frame
                    # The same connection serves further requests.
                    result = client.query(7, eta=2)
                    assert result["iterations"] == 2
                    assert client.ping()

    def test_multi_node_stream_is_refused(self, memory_server):
        _server, address = memory_server
        with PPVClient(*address) as client:
            client.send_raw(
                protocol.encode(
                    {"v": 1, "id": "ms", "verb": "stream", "nodes": [1, 2]}
                )
            )
            message = client.read_message()
            assert message["id"] == "ms"
            assert message["error"]["code"] == protocol.E_INVALID


class TestAdmissionControl:
    def test_tiny_inflight_bound_still_serves_pipelined_burst(
        self, memory_service
    ):
        server = PPVServer(
            memory_service,
            ServerConfig(max_inflight=2, max_inflight_per_conn=1),
        )
        with server.background() as address:
            with PPVClient(*address) as client:
                # Fire 20 requests before reading anything: the server
                # must throttle through the admission bounds, not drop
                # or reorder per-id replies.
                ids = []
                for k, node in enumerate(QUERY_NODES + QUERY_NODES[:8]):
                    ids.append(f"r{k}")
                    client.send_raw(
                        protocol.encode(
                            {"v": 1, "id": f"r{k}", "node": node, "eta": 1}
                        )
                    )
                seen = set()
                for _ in ids:
                    message = client.read_message()
                    assert message["ok"] is True
                    seen.add(message["id"])
        assert seen == set(ids)

    def test_stats_counters(self, memory_server):
        _server, address = memory_server
        with PPVClient(*address) as client:
            client.query(3)
            client.query(7)
            stats = client.stats()
        assert stats["backend"] == "memory"
        assert stats["server"]["requests_total"] >= 3
        # The stats reply itself is still being rendered, so only the
        # two queries are counted as answered at snapshot time.
        assert stats["server"]["responses_total"] >= 2
        assert stats["service"]["submitted"] >= 2
        assert stats["worker"]["index"] == 0
        assert stats["worker"]["pid"] > 0


class TestHotSwap:
    def test_swap_under_load_drops_nothing(self, small_social,
                                           small_social_index, tmp_path):
        new_index = build_index(
            small_social, select_hubs(small_social, num_hubs=60)
        )
        new_path = tmp_path / "new.fppv"
        save_index(new_index, new_path)
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        ) as service:
            server = PPVServer(service)
            with server.background() as address:
                failures: list = []
                answered = [0]
                stop_load = threading.Event()

                def load() -> None:
                    try:
                        with PPVClient(*address) as client:
                            while not stop_load.is_set():
                                result = client.query(7, eta=2)
                                assert result["iterations"] == 2
                                answered[0] += 1
                    except BaseException as error:
                        failures.append(error)

                loaders = [
                    threading.Thread(target=load) for _ in range(4)
                ]
                for thread in loaders:
                    thread.start()
                time.sleep(0.2)
                with PPVClient(*address) as admin:
                    swap = admin.swap_index(str(new_path))
                    assert swap["swapped"] is True
                time.sleep(0.2)
                stop_load.set()
                for thread in loaders:
                    thread.join(timeout=30)
                assert not failures, failures
                assert answered[0] > 0
                # After the swap the server answers from the new index.
                reference = PPVService.open(
                    new_index, graph=small_social, delta=1e-4
                )
                try:
                    spec = QuerySpec(7)
                    expected = protocol.render_result(
                        spec, reference.query(spec), top=10
                    )
                finally:
                    reference.close()
                with PPVClient(*address) as client:
                    assert client.query(7, eta=2) == expected
                stats_swapped = _server_metric(server, "swaps_total")
        assert stats_swapped == 1

    def test_swap_on_disk_backend_is_a_structured_error(self, disk_setup):
        root, graph, assignment, index_path = disk_setup
        graph_store = DiskGraphStore(graph, assignment, root / "swap")
        with PPVService.open(
            str(index_path), backend="disk", graph_store=graph_store
        ) as service:
            server = PPVServer(service)
            with server.background() as address:
                with PPVClient(*address) as client:
                    with pytest.raises(ServerError) as excinfo:
                        client.swap_index(str(index_path))
                    assert excinfo.value.code == protocol.E_INVALID
                    # and the connection is still good
                    assert client.ping()


class TestLifecycle:
    def test_requests_after_shutdown_get_unavailable(self, memory_service):
        server = PPVServer(memory_service)
        with server.background() as address:
            with PPVClient(*address) as client:
                # Pipeline the shutdown and a query in one write: the
                # late query must get a structured refusal, not silence.
                client.send_raw(
                    protocol.encode({"v": 1, "id": "bye", "verb": "shutdown"})
                    + protocol.encode({"v": 1, "id": "late", "node": 3})
                )
                first = client.read_message()
                assert first["id"] == "bye" and first["ok"] is True
                second = client.read_message()
                assert second["id"] == "late"
                assert second["error"]["code"] == protocol.E_UNAVAILABLE

    def test_shutdown_verb_answers_then_stops(self, memory_service):
        server = PPVServer(memory_service)
        background = server.background()
        address = background.__enter__()
        try:
            with PPVClient(*address) as client:
                client.query(3)
                client.shutdown_server()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    probe = socket.create_connection(address, timeout=0.5)
                except OSError:
                    break
                probe.close()
                time.sleep(0.05)
            else:
                pytest.fail("listener still accepting after shutdown")
        finally:
            background.__exit__(None, None, None)

    def test_request_shutdown_is_graceful(self, memory_service):
        server = PPVServer(memory_service)
        with server.background() as address:
            with PPVClient(*address) as client:
                assert client.ping()
        # __exit__ already invoked request_shutdown and joined.
        assert _server_metric(server, "connections_open") == 0


class TestOneProcess:
    """A server is one process: more workers are refused everywhere,
    and ``--workers 1`` (the ledger's launch line) is that process."""

    @pytest.mark.parametrize(
        "target",
        [["graph.txt", "index.fppv", "--tcp", "127.0.0.1:0"],
         ["graph.txt", "index.fppv"],
         ["--shard-map", "parts", "--tcp", "127.0.0.1:0"]],
        ids=["tcp", "stdio", "shard-map"],
    )
    def test_cli_refuses_two_workers(self, target, capsys):
        from repro.cli import main

        assert main(["serve", *target, "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --workers 2: a server is one process")
        assert err.count("\n") == 1

    def test_pool_refuses_two_workers(self):
        from repro.server import ServerPool

        with pytest.raises(ValueError, match="a server is one process"):
            ServerPool(lambda: None, workers=2)

    def test_router_takes_no_worker_count(self, tmp_path):
        from repro.sharding import ShardRouter

        with pytest.raises(TypeError, match="workers_per_shard"):
            ShardRouter(tmp_path, workers_per_shard=2)

    def test_one_worker_is_the_serving_process(self, tmp_path, small_social,
                                               small_social_index):
        from repro.graph.io import write_edge_list

        graph_path = tmp_path / "graph.txt"
        index_path = tmp_path / "index.fppv"
        write_edge_list(small_social, graph_path)
        save_index(small_social_index, index_path)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                str(graph_path), str(index_path), "--workers", "1",
                "--tcp", "127.0.0.1:0", "--max-delay", "auto",
            ],
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        try:
            banner = process.stderr.readline().decode()
            assert "serving memory backend on " in banner, banner
            host, port = banner.split(" on ")[1].split()[0].split(":")
            with PPVClient(host, int(port)) as client:
                assert client.query(7, eta=2)["iterations"] == 2
                stats = client.stats()
            assert stats["worker"] == {"index": 0, "pid": process.pid}
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                assert process.wait(timeout=60) == 0
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                raise


def _child_env():
    import os

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env
