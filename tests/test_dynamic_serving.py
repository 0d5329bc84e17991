"""Dynamic index maintenance meets the serving stack.

:func:`repro.core.dynamic.update_index` produces a refreshed index
after a graph change; these tests drive its two serving on-ramps:

* :meth:`PPVService.update_index` — the in-process hot swap, including
  under concurrent load (results match the old world or the new one,
  never a blend);
* the TCP ``swap_index`` verb — which loads a saved ``.fppv`` and swaps
  it into the worker's service behind the admission gate.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import FastPPV, StopAfterIterations, build_index, select_hubs
from repro.core.dynamic import add_edges, update_index
from repro.server import PPVClient, PPVServer, ServerError
from repro.serving import PPVService, QuerySpec
from repro.storage import save_index

ETA = 2
NEW_EDGES = [(4, 7), (7, 5), (2, 0)]


@pytest.fixture(scope="module")
def worlds(request):
    """(old graph, old index, new graph, refreshed index)."""
    fig1 = request.getfixturevalue("fig1_graph")
    old_index = build_index(fig1, select_hubs(fig1, num_hubs=3))
    new_graph = add_edges(fig1, NEW_EDGES)
    new_index, recomputed = update_index(fig1, new_graph, old_index)
    assert recomputed >= 1  # the change must actually touch hubs
    return fig1, old_index, new_graph, new_index


def _oracle(graph, index, node: int) -> np.ndarray:
    result = FastPPV(graph, index).query(
        node, stop=StopAfterIterations(ETA)
    )
    return result.scores


def _spec(node: int) -> QuerySpec:
    return QuerySpec(node, stop=StopAfterIterations(ETA))


class TestServiceUpdateIndex:
    def test_refreshed_index_serves_new_graph_results(self, worlds):
        old_graph, old_index, new_graph, new_index = worlds
        with PPVService.open(old_index, graph=old_graph) as service:
            before = service.query(_spec(4)).scores
            assert np.allclose(
                before, _oracle(old_graph, old_index, 4), atol=1e-12
            )
            service.update_index(new_index, graph=new_graph)
            after = service.query(_spec(4)).scores
            assert np.allclose(
                after, _oracle(new_graph, new_index, 4), atol=1e-12
            )
            # The edge (4, 7) we added is visible: node 4 now reaches 7.
            assert after[7] > 0

    def test_update_invalidates_cached_results(self, worlds):
        old_graph, old_index, new_graph, new_index = worlds
        with PPVService.open(old_index, graph=old_graph) as service:
            first = service.query(_spec(4)).scores
            cached = service.query(_spec(4)).scores  # cache hit
            assert np.array_equal(first, cached)
            assert service.stats().cache_hits >= 1
            service.update_index(new_index, graph=new_graph)
            refreshed = service.query(_spec(4)).scores
            assert not np.allclose(refreshed, first, atol=1e-12)

    def test_swap_under_load_never_blends_worlds(self, worlds):
        """Hammer queries from threads while swapping back and forth:
        every result equals one world's oracle exactly — an answer
        mixing the old graph with the new index (or vice versa) would
        match neither."""
        old_graph, old_index, new_graph, new_index = worlds
        nodes = list(range(old_graph.num_nodes))
        oracles = {
            node: (
                _oracle(old_graph, old_index, node),
                _oracle(new_graph, new_index, node),
            )
            for node in nodes
        }
        service = PPVService.open(old_index, graph=old_graph, cache_size=0)
        stop = threading.Event()
        mismatches: list = []

        def hammer() -> None:
            i = 0
            while not stop.is_set():
                node = nodes[i % len(nodes)]
                i += 1
                try:
                    scores = service.query(_spec(node)).scores
                except RuntimeError:
                    return  # service closed under us: structured, fine
                old_ok = np.allclose(scores, oracles[node][0], atol=1e-9)
                new_ok = np.allclose(scores, oracles[node][1], atol=1e-9)
                if not (old_ok or new_ok):
                    mismatches.append(node)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(6):
                service.update_index(new_index, graph=new_graph)
                service.update_index(old_index, graph=old_graph)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            service.close()
        assert not mismatches

    def test_engine_swap_under_batches_never_blends_worlds(self, worlds):
        """The engine itself: ``replace_index`` on one thread while
        batches run on others, with a shortened switch interval, so a
        batch that read the new graph with the old index would show."""
        old_graph, old_index, new_graph, new_index = worlds
        nodes = list(range(old_graph.num_nodes))
        stop = StopAfterIterations(ETA)
        worlds_bytes = [
            {r.query: r.scores.tobytes() for r in engine.query_many(nodes, stop)}
            for engine in (FastPPV(old_graph, old_index), FastPPV(new_graph, new_index))
        ]
        engine = FastPPV(old_graph, old_index)
        done = threading.Event()
        mismatches: list = []

        def hammer() -> None:
            while not done.is_set():
                results = engine.query_many(nodes, stop)
                got = {r.query: r.scores.tobytes() for r in results}
                if got not in worlds_bytes:
                    mismatches.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=hammer) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            for _ in range(2000):
                engine.replace_index(new_index, graph=new_graph)
                engine.replace_index(old_index, graph=old_graph)
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches


class TestServerSwapIndex:
    def test_swap_refreshed_index_over_tcp(self, worlds, tmp_path):
        """The full dynamic loop over the wire: refresh the index after
        a graph change, save it, hot-swap it into a live server."""
        old_graph, old_index, new_graph, new_index = worlds
        path = tmp_path / "refreshed.fppv"
        save_index(new_index, path)
        service = PPVService.open(old_index, graph=old_graph)
        server = PPVServer(service)
        with server.background() as (host, port):
            with PPVClient(host, port) as client:
                # Node 0 routes through the recomputed hub primes,
                # so the swap is observable in its scores.
                before = client.query(0, eta=ETA, top=8)
                reply = client.swap_index(str(path))
                assert reply["swapped"] is True
                after = client.query(0, eta=ETA, top=8)
                # The server swaps the *index* only; the engine keeps
                # its graph, so the post-swap oracle is (old graph,
                # refreshed index).
                oracle = _oracle(old_graph, new_index, 0)
                for node, score in after["top"]:
                    assert abs(oracle[int(node)] - float(score)) <= 1e-9
                assert after["top"] != before["top"]
                stats = client.stats()
                assert stats["server"]["swaps_total"] == 1
        service.close()

    def test_swap_onto_a_truncated_index_is_invalid(self, worlds, tmp_path):
        old_graph, old_index, _new_graph, new_index = worlds
        whole = tmp_path / "whole.fppv"
        save_index(new_index, whole)
        cut = tmp_path / "cut.fppv"
        cut.write_bytes(whole.read_bytes()[:60])  # inside the directory
        service = PPVService.open(old_index, graph=old_graph)
        server = PPVServer(service)
        with server.background() as (host, port):
            with PPVClient(host, port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.swap_index(str(cut))
                assert excinfo.value.code == "invalid"
                assert "truncated FastPPV index" in str(excinfo.value)
                # The refused swap left the old index serving.
                payload = client.query(4, eta=ETA, top=8)
                oracle = _oracle(old_graph, old_index, 4)
                for node, score in payload["top"]:
                    assert abs(oracle[int(node)] - float(score)) <= 1e-9
                assert client.stats()["server"]["swaps_total"] == 0
        service.close()

    def test_swap_missing_path_is_structured_error(self, worlds, tmp_path):
        old_graph, old_index, _new_graph, _new_index = worlds
        service = PPVService.open(old_index, graph=old_graph)
        server = PPVServer(service)
        with server.background() as (host, port):
            with PPVClient(host, port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.swap_index(str(tmp_path / "nope.fppv"))
                assert excinfo.value.code == "invalid"
                # The failed swap left the old index serving.
                payload = client.query(4, eta=ETA, top=8)
                oracle = _oracle(old_graph, old_index, 4)
                for node, score in payload["top"]:
                    assert abs(oracle[int(node)] - float(score)) <= 1e-9
        service.close()
