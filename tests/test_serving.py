"""The PPVService façade: how it opens, equivalence with direct
engine calls (pinned bitwise), coalescing, handles, and streaming."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from oracles import ReferenceFastPPV

from repro import (
    FastPPV,
    PPVService,
    QuerySpec,
    StopAfterIterations,
    StopAfterTime,
    StopAtL1Error,
    any_of,
    build_index,
    select_hubs,
)
from repro.core.linearity import combine_results, multi_node_ppv, normalise_weights
from repro.storage import (
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    cluster_graph,
    save_index,
)

STOP = StopAfterIterations(2)


@pytest.fixture(scope="module")
def certifiable_index(small_social):
    """clip=0 so top-k certificates can actually fire."""
    hubs = select_hubs(small_social, num_hubs=40)
    return build_index(small_social, hubs, clip=0.0, epsilon=1e-6)


@pytest.fixture(scope="module")
def disk_setup(small_social, small_social_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("serving_disk")
    index_path = root / "index.fppv"
    save_index(small_social_index, index_path)
    assignment = cluster_graph(small_social, 5, seed=1)
    return root, small_social, assignment, index_path


@pytest.fixture()
def memory_service(small_social, small_social_index):
    with PPVService.open(
        small_social_index, graph=small_social, delta=1e-4
    ) as service:
        yield service


class TestOpenAndRegistry:
    def test_auto_detects_memory(self, small_social, small_social_index):
        with PPVService.open(small_social_index, graph=small_social) as service:
            assert service.engine.backend == "memory"
            assert service.engine.num_nodes == small_social.num_nodes

    def test_auto_detects_disk(self, disk_setup):
        root, graph, assignment, index_path = disk_setup
        store = DiskGraphStore(graph, assignment, root / "detect")
        with PPVService.open(str(index_path), graph_store=store) as service:
            assert service.engine.backend == "disk"
            result = service.query(QuerySpec(3, stop=STOP))
            assert result.scores.size == graph.num_nodes
        # Owned store (opened from the path) is closed with the service.
        assert service.engine.ppv_store._handle.closed

    def test_memory_needs_graph(self, small_social_index):
        with pytest.raises(ValueError, match="graph="):
            PPVService.open(small_social_index)

    def test_disk_rejects_graph_kwarg(self, disk_setup, small_social):
        root, graph, assignment, index_path = disk_setup
        with pytest.raises(ValueError, match="graph_store="):
            PPVService.open(str(index_path), backend="disk", graph=small_social)

    def test_unknown_backend(self, small_social, small_social_index):
        with pytest.raises(KeyError, match="unknown backend"):
            PPVService.open(
                small_social_index, backend="gpu", graph=small_social
            )


@pytest.fixture()
def open_sources(small_social, small_social_index, disk_setup):
    """Every kind of thing ``PPVService.open`` is handed, by name."""
    root, graph, assignment, index_path = disk_setup
    cluster_dir = root / "open_table"
    if not cluster_dir.exists():
        DiskGraphStore(graph, assignment, cluster_dir)
    graph_store = DiskGraphStore.open(cluster_dir)
    with DiskPPVStore(index_path) as ppv_store:
        yield {
            "index": small_social_index,
            "graph": small_social,
            "graph_store": graph_store,
            "ppv_store": ppv_store,
            "path": str(index_path),
            "pathlike": index_path,
            "fastppv": FastPPV(small_social, small_social_index),
            "disk_fastppv": DiskFastPPV(graph_store, ppv_store),
        }


class TestOpenTable:
    """``PPVService.open`` picks its backend from the keyword: every form
    it accepts, who owns the store, and every form it refuses."""

    @pytest.mark.parametrize(
        "source,backend,keyword,expected,owned",
        [
            pytest.param("index", None, "graph", "memory", None,
                         id="index"),
            pytest.param("index", "memory", "graph", "memory", None,
                         id="index-named"),
            pytest.param("ppv_store", None, "graph_store", "disk", False,
                         id="store"),
            pytest.param("ppv_store", "disk", "graph_store", "disk", False,
                         id="store-named"),
            pytest.param("path", None, "graph_store", "disk", True,
                         id="path"),
            pytest.param("path", "disk", "graph_store", "disk", True,
                         id="path-named"),
            pytest.param("pathlike", None, "graph_store", "disk", True,
                         id="pathlike"),
        ],
    )
    def test_accepted(self, open_sources, source, backend, keyword,
                      expected, owned):
        with PPVService.open(
            open_sources[source], backend,
            **{keyword: open_sources[keyword]},
        ) as service:
            assert service.engine.backend == expected
            result = service.query(QuerySpec(3, stop=STOP))
            assert result.scores.size == open_sources["graph"].num_nodes
        store = getattr(service.engine, "ppv_store", None)
        if owned is None:
            assert store is None
        else:
            # A store the service opened closes with it; the caller's
            # own store stays open.
            assert (store is open_sources["ppv_store"]) is not owned
            assert store._handle.closed is owned

    @pytest.mark.parametrize(
        "source,backend,keywords,error,match",
        [
            pytest.param("index", None, (), ValueError,
                         "exactly one of graph=", id="no-keyword"),
            pytest.param("path", None, (), ValueError,
                         "exactly one of graph=", id="path-no-keyword"),
            pytest.param("index", None, ("graph", "graph_store"), ValueError,
                         "exactly one of graph=", id="both-keywords"),
            pytest.param("path", "disk", ("graph",), ValueError,
                         "disk backend takes graph_store=, not graph=",
                         id="disk-with-graph"),
            pytest.param("ppv_store", "memory", ("graph_store",), ValueError,
                         "memory backend takes graph=, not graph_store=",
                         id="memory-with-graph-store"),
            pytest.param("index", "gpu", ("graph",), KeyError,
                         "unknown backend 'gpu'", id="unknown-name"),
            pytest.param("index", "sharded", ("graph",), KeyError,
                         "unknown backend", id="router-name"),
            pytest.param("fastppv", None, ("graph",), TypeError,
                         "not FastPPV", id="fastppv-source"),
            pytest.param("disk_fastppv", None, ("graph_store",), TypeError,
                         "not DiskFastPPV", id="disk-fastppv-source"),
            pytest.param("index", None, ("graph_store",), TypeError,
                         "not PPVIndex", id="index-on-disk"),
        ],
    )
    def test_refused(self, open_sources, source, backend, keywords, error,
                     match):
        with pytest.raises(error, match=match):
            PPVService.open(
                open_sources[source], backend,
                **{keyword: open_sources[keyword] for keyword in keywords},
            )


class TestMemoryEquivalence:
    def test_query_many_bitwise_equal_to_engine(self, small_social,
                                                small_social_index,
                                                memory_service):
        nodes = [9, 4, 120, 77, 300, 41, 17, 250]
        for stop in [STOP, StopAtL1Error(0.05),
                     any_of(StopAfterIterations(3), StopAtL1Error(0.01))]:
            served = memory_service.query_many(
                [QuerySpec(n, stop=stop) for n in nodes]
            )
            direct = FastPPV(
                small_social, small_social_index, delta=1e-4
            ).query_many(nodes, stop=stop)
            for a, b in zip(served, direct):
                np.testing.assert_array_equal(a.scores, b.scores)
                assert a.iterations == b.iterations
                assert a.error_history == b.error_history
                assert a.work_units == b.work_units

    def test_top_k_specs_match_engine(self, small_social, certifiable_index):
        nodes = [5, 30, 200]
        with PPVService.open(
            certifiable_index, graph=small_social, delta=0.0
        ) as service:
            served = service.query_many(
                [QuerySpec(n, top_k=5, top_k_budget=30) for n in nodes]
            )
        direct = FastPPV(
            small_social, certifiable_index, delta=0.0
        ).query_top_k_many(nodes, k=5, max_iterations=30)
        assert any(r.certified for r in served)
        for a, b in zip(served, direct):
            np.testing.assert_array_equal(a.nodes, b.nodes)
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.certified == b.certified
            assert a.iterations == b.iterations

    def test_non_batch_safe_stop_keeps_scalar_semantics(
            self, small_social, small_social_index, memory_service):
        stop = any_of(StopAfterIterations(2), StopAfterTime(1e9))
        served = memory_service.query(QuerySpec(7, stop=stop))
        scalar = ReferenceFastPPV(small_social, small_social_index, delta=1e-4)
        reference = scalar.query(7, stop=stop)
        np.testing.assert_array_equal(served.scores, reference.scores)
        assert served.iterations == reference.iterations

    def test_plain_int_is_a_spec(self, memory_service):
        result = memory_service.query(5)
        assert result.query == 5
        assert result.iterations == 2  # the paper's default eta

    def test_out_of_range_rejected_at_submit(self, memory_service,
                                             small_social):
        with pytest.raises(ValueError, match="out of range"):
            memory_service.submit(QuerySpec(small_social.num_nodes))

    def test_mixed_kinds_in_one_burst(self, small_social, certifiable_index):
        with PPVService.open(
            certifiable_index, graph=small_social, delta=0.0
        ) as service:
            plain, topk, multi = service.query_many([
                QuerySpec(3, stop=STOP),
                QuerySpec(8, top_k=4),
                QuerySpec((3, 8), weights=(1.0, 3.0), stop=STOP),
            ])
        assert plain.iterations == 2
        assert hasattr(topk, "certified")
        assert multi.query == 3
        assert multi.scores.shape == (small_social.num_nodes,)


class TestDiskEquivalence:
    def test_bitwise_equal_to_scalar_disk_engine(self, disk_setup):
        root, graph, assignment, index_path = disk_setup
        nodes = [9, 4, 120, 77]
        store = DiskGraphStore(graph, assignment, root / "facade")
        with DiskPPVStore(index_path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0
            ) as service:
                served = service.query_many(
                    [QuerySpec(n, stop=STOP) for n in nodes]
                )
        reference_store = DiskGraphStore(graph, assignment, root / "scalar")
        with DiskPPVStore(index_path) as ppv_store:
            scalar = DiskFastPPV(reference_store, ppv_store, delta=0.0)
            for node, result in zip(nodes, served):
                reference = scalar.query(node, stop=STOP)
                np.testing.assert_array_equal(
                    result.scores, reference.scores
                )
                # Both are the budget-independent drain count — see the
                # disk_engine docstring.
                assert result.cluster_faults == reference.cluster_faults
                assert result.hub_reads == reference.hub_reads
                assert result.truncated == reference.truncated

    def test_non_batch_safe_stop_served_one_query_at_a_time(self, disk_setup):
        # The stop routing is shared with the memory adapter: a
        # time-reading condition is served per query, and — one engine —
        # still lands on the batch result bit for bit.
        root, graph, assignment, index_path = disk_setup
        nodes = [9, 4, 120]
        timed = any_of(StopAfterIterations(2), StopAfterTime(1e9))
        store = DiskGraphStore(graph, assignment, root / "routing")
        with DiskPPVStore(index_path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0, cache_size=0
            ) as service:
                routed = service.engine.query_batch(nodes, timed)
                batched = service.engine.query_batch(nodes, STOP)
        for one, result in zip(routed, batched):
            np.testing.assert_array_equal(one.scores, result.scores)
            assert one.result.iterations == result.result.iterations
            assert one.cluster_faults == result.cluster_faults
            assert one.hub_reads == result.hub_reads

    def test_disk_top_k(self, disk_setup):
        root, graph, assignment, index_path = disk_setup
        store = DiskGraphStore(graph, assignment, root / "topk")
        with DiskPPVStore(index_path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0
            ) as service:
                result = service.query(QuerySpec(9, top_k=5))
        assert result.topk.nodes.size == 5
        assert result.hub_reads > 0


class TestCoalescing:
    def test_flush_forces_the_window_closed(self, small_social,
                                            small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4,
            max_delay=30.0,
        ) as service:
            handle = service.submit(QuerySpec(5, stop=STOP))
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.05)
            assert not handle.done()
            service.flush()
            assert handle.done()
            assert handle.result().query == 5

    def test_concurrent_submissions_coalesce(self, small_social,
                                             small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4,
            max_delay=0.2, cache_size=0,
        ) as service:
            barrier = threading.Barrier(2)
            outcome: dict[str, list] = {}

            def client(name: str, nodes: list[int]) -> None:
                barrier.wait()
                handles = [
                    service.submit(QuerySpec(n, stop=STOP)) for n in nodes
                ]
                outcome[name] = [handle.result() for handle in handles]

            threads = [
                threading.Thread(target=client, args=("a", list(range(8)))),
                threading.Thread(
                    target=client, args=("b", list(range(20, 28)))
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        # Both clients' bursts shared scheduler drains...
        assert stats.largest_batch > 8
        # ... and every result still matches a dedicated scalar query.
        scalar = ReferenceFastPPV(small_social, small_social_index, delta=1e-4)
        for name, nodes in (("a", range(8)), ("b", range(20, 28))):
            for node, result in zip(nodes, outcome[name]):
                reference = scalar.query(node, stop=STOP)
                np.testing.assert_array_equal(result.scores, reference.scores)

    def test_max_batch_splits_drains(self, small_social, small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4,
            max_batch=4, cache_size=0,
        ) as service:
            results = service.query_many(
                [QuerySpec(n, stop=STOP) for n in range(10)]
            )
            assert len(results) == 10
            assert service.stats().batches >= 3

    def test_engine_error_fails_only_its_group(self, small_social,
                                               small_social_index,
                                               monkeypatch):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4,
            max_delay=10.0,
        ) as service:
            original = service.engine.query_batch

            def failing(nodes, stop):
                if isinstance(stop, StopAtL1Error):
                    raise RuntimeError("backend exploded")
                return original(nodes, stop)

            monkeypatch.setattr(service.engine, "query_batch", failing)
            bad = service.submit(QuerySpec(3, stop=StopAtL1Error(0.01)))
            good = service.submit(QuerySpec(4, stop=STOP))
            service.flush()
            with pytest.raises(RuntimeError, match="backend exploded"):
                bad.result()
            assert good.result().query == 4

    def test_unknown_result_shape_served_uncached(self, small_social,
                                                  small_social_index,
                                                  monkeypatch):
        # A custom backend may return result shapes copy_served cannot
        # copy; they must be served (uncached), never strand the handle.
        class Opaque:
            def __init__(self, inner):
                self.inner = inner

        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        ) as service:
            original = service.engine.query_batch
            monkeypatch.setattr(
                service.engine,
                "query_batch",
                lambda nodes, stop: [
                    Opaque(r) for r in original(nodes, stop)
                ],
            )
            result = service.query(QuerySpec(5, stop=STOP))
            assert isinstance(result, Opaque)
            assert service.stats().cache_entries == 0

    def test_planner_failure_resolves_every_handle(self, small_social,
                                                   small_social_index,
                                                   monkeypatch):
        # If the drain itself blows up before per-group handling (here:
        # the cache-token refresh), no handle may be left blocking.
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4,
            max_delay=10.0,
        ) as service:
            monkeypatch.setattr(
                service.engine,
                "cache_token",
                lambda: (_ for _ in ()).throw(RuntimeError("token broke")),
            )
            handle = service.submit(QuerySpec(3, stop=STOP))
            service.flush()
            with pytest.raises(RuntimeError, match="token broke"):
                handle.result(timeout=5)

    def test_drain_level_failure_resolves_handles_and_flush_raises(
            self, small_social, small_social_index):
        # If the drain callback itself dies (beyond the service's own
        # net), the scheduler's on_error must resolve the batch's
        # handles and flush() must re-raise instead of swallowing.
        with PPVService.open(
            small_social_index, graph=small_social, max_delay=10.0,
        ) as service:
            def exploding(jobs):
                raise RuntimeError("drain died")

            service._scheduler._execute = exploding
            handle = service.submit(QuerySpec(3, stop=STOP))
            with pytest.raises(RuntimeError, match="drain died"):
                service.flush(timeout=5)
            with pytest.raises(RuntimeError, match="drain died"):
                handle.result(timeout=5)

    def test_submit_after_close_raises(self, small_social,
                                       small_social_index):
        service = PPVService.open(small_social_index, graph=small_social)
        service.query(QuerySpec(3))
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(QuerySpec(4))


class TestStreaming:
    def test_snapshot_sequence_matches_scalar_run(self, small_social,
                                                  small_social_index,
                                                  memory_service):
        snapshots = list(memory_service.stream(QuerySpec(7, stop=STOP)))
        scalar = ReferenceFastPPV(small_social, small_social_index, delta=1e-4)
        reference = scalar.query(7, stop=STOP)
        assert len(snapshots) == reference.iterations + 1
        assert [s.iteration for s in snapshots] == list(
            range(reference.iterations + 1)
        )
        np.testing.assert_array_equal(
            snapshots[-1].scores, reference.scores
        )
        np.testing.assert_allclose(
            [s.l1_error for s in snapshots], reference.error_history
        )
        # Errors only shrink (monotone mass accumulation).
        errors = [s.l1_error for s in snapshots]
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_snapshots_are_stable_copies(self, memory_service):
        snapshots = list(memory_service.stream(QuerySpec(7, stop=STOP)))
        # Frames must not alias one engine buffer: each is a snapshot in
        # time, so mass only grows frame over frame.
        assert snapshots[0].scores.sum() < snapshots[-1].scores.sum()

    def test_certificate_status_streams(self, small_social,
                                        certifiable_index):
        with PPVService.open(
            certifiable_index, graph=small_social, delta=0.0
        ) as service:
            snapshots = list(service.stream(QuerySpec(7, top_k=3)))
        assert all(s.certified is not None for s in snapshots)
        assert snapshots[-1].certified  # fired (that is why it stopped)
        assert not snapshots[0].certified

    def test_early_break_cancels(self, small_social, small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=0.0
        ) as service:
            stream = service.stream(
                QuerySpec(7, stop=StopAfterIterations(50))
            )
            seen = 0
            for _snapshot in stream:
                seen += 1
                if seen == 2:
                    break
            stream.close()
            # The service is still healthy and serves new traffic.
            assert service.query(QuerySpec(3, stop=STOP)).iterations == 2

    def test_multi_node_stream_rejected(self, memory_service):
        with pytest.raises(ValueError, match="single-node"):
            memory_service.stream(QuerySpec((1, 2)))

    def test_disk_streaming(self, disk_setup):
        root, graph, assignment, index_path = disk_setup
        store = DiskGraphStore(graph, assignment, root / "stream")
        with DiskPPVStore(index_path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0
            ) as service:
                snapshots = list(service.stream(QuerySpec(9, stop=STOP)))
        assert [s.iteration for s in snapshots] == list(range(len(snapshots)))
        assert snapshots[-1].l1_error <= snapshots[0].l1_error

    def test_disk_stream_ends_on_the_batch_result(self, disk_setup):
        # A stream is served one query at a time, a query_batch as a
        # batch: same engine, so the final snapshot is the batch result.
        root, graph, assignment, index_path = disk_setup
        nodes = [4, 9, 120]
        store = DiskGraphStore(graph, assignment, root / "stream_batch")
        with DiskPPVStore(index_path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0, cache_size=0
            ) as service:
                finals = [
                    list(service.stream(QuerySpec(n, stop=STOP)))[-1]
                    for n in nodes
                ]
                batch = service.engine.query_batch(nodes, STOP)
        for final, result in zip(finals, batch):
            np.testing.assert_array_equal(final.scores, result.scores)
            assert final.iteration == result.result.iterations
            assert final.l1_error == result.result.l1_error

    def test_disk_snapshots_match_scalar_on_iteration(self, disk_setup):
        # The streamed sequence is exactly the scalar disk engine's
        # on_iteration contract: one snapshot per executed iteration,
        # iteration 0 included, bitwise-equal states.
        root, graph, assignment, index_path = disk_setup
        store = DiskGraphStore(graph, assignment, root / "stream_eq")
        with DiskPPVStore(index_path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0
            ) as service:
                snapshots = list(service.stream(QuerySpec(4, stop=STOP)))
        states = []
        reference_store = DiskGraphStore(
            graph, assignment, root / "stream_eq_ref"
        )
        with DiskPPVStore(index_path) as ppv_store:
            scalar = DiskFastPPV(reference_store, ppv_store, delta=0.0)
            reference = scalar.query(
                4,
                stop=STOP,
                on_iteration=lambda s: states.append(
                    (s.iteration, s.l1_error, s.frontier_size)
                ),
            )
        assert len(snapshots) == reference.result.iterations + 1
        assert len(snapshots) == len(states)
        assert [s.iteration for s in snapshots] == [s[0] for s in states]
        assert [s.l1_error for s in snapshots] == [s[1] for s in states]
        assert [s.frontier_size for s in snapshots] == [
            s[2] for s in states
        ]
        np.testing.assert_array_equal(
            snapshots[-1].scores, reference.scores
        )

    def test_disk_stream_with_truncated_prime_push(self, disk_setup):
        # A fault-budget-truncated query still streams its snapshots,
        # and the served result carries truncated=True.
        root, graph, assignment, index_path = disk_setup
        store = DiskGraphStore(graph, assignment, root / "stream_trunc")
        with DiskPPVStore(index_path) as ppv_store:
            non_hub = next(
                q for q in range(graph.num_nodes) if q not in ppv_store
            )
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0, fault_budget=1,
                cache_size=0,
            ) as service:
                snapshots = list(
                    service.stream(QuerySpec(non_hub, stop=STOP))
                )
                result = service.query(QuerySpec(non_hub, stop=STOP))
        assert result.truncated
        assert len(snapshots) == result.result.iterations + 1
        np.testing.assert_array_equal(snapshots[-1].scores, result.scores)

    def test_disk_top_k_certificate_streams(self, disk_setup, small_social,
                                            tmp_path):
        # Certificates need unclipped prime PPVs; rebuild and stream a
        # top-k spec on the disk backend.
        from repro import build_index as _build_index
        root, graph, assignment, index_path = disk_setup
        with DiskPPVStore(index_path) as existing:
            hubs = [int(h) for h in np.nonzero(existing.hub_mask)[0][:40]]
        index = _build_index(small_social, hubs, clip=0.0, epsilon=1e-6)
        path = tmp_path / "unclipped.fppv"
        save_index(index, path)
        store = DiskGraphStore(graph, assignment, tmp_path / "cert")
        with DiskPPVStore(path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0
            ) as service:
                snapshots = list(service.stream(QuerySpec(7, top_k=3)))
        assert all(s.certified is not None for s in snapshots)


class TestMultiNodeSpecs:
    def test_matches_multi_node_ppv_on_memory(self, small_social,
                                              small_social_index,
                                              memory_service):
        nodes, weights = (3, 9, 40), (2.0, 1.0, 1.0)
        served = memory_service.query(
            QuerySpec(nodes, weights=weights, stop=STOP)
        )
        scalar = ReferenceFastPPV(small_social, small_social_index, delta=1e-4)
        reference = multi_node_ppv(
            scalar, list(nodes), weights=list(weights), stop=STOP
        )
        assert served.query == reference.query
        assert served.iterations == reference.iterations
        np.testing.assert_array_equal(served.scores, reference.scores)
        np.testing.assert_array_equal(
            served.error_history, reference.error_history
        )

    def test_matches_manual_combination_on_disk(self, disk_setup):
        root, graph, assignment, index_path = disk_setup
        nodes, weights = (3, 9), (1.0, 3.0)
        store = DiskGraphStore(graph, assignment, root / "multi")
        with DiskPPVStore(index_path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0
            ) as service:
                served = service.query(
                    QuerySpec(nodes, weights=weights, stop=STOP)
                )
        reference_store = DiskGraphStore(graph, assignment, root / "multi2")
        with DiskPPVStore(index_path) as ppv_store:
            scalar = DiskFastPPV(reference_store, ppv_store, delta=0.0)
            parts = [scalar.query(n, stop=STOP) for n in nodes]
        expected = combine_results(
            nodes,
            normalise_weights(len(nodes), weights),
            [p.result for p in parts],
        )
        np.testing.assert_array_equal(served.scores, expected.scores)
        assert served.cluster_faults == sum(p.cluster_faults for p in parts)
        assert served.hub_reads == sum(p.hub_reads for p in parts)

    def test_multi_node_top_k_certifies_on_the_mixture(self, small_social,
                                                       certifiable_index):
        with PPVService.open(
            certifiable_index, graph=small_social, delta=0.0
        ) as service:
            result = service.query(
                QuerySpec((3, 9), top_k=5, top_k_budget=30)
            )
        assert result.nodes.size == 5
        # The certificate is re-evaluated on the combined estimate.
        assert isinstance(result.certified, bool)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec((1, 2), weights=(1.0,))
        with pytest.raises(ValueError):
            QuerySpec((1, 2), weights=(-1.0, 2.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuerySpec(())
        with pytest.raises(ValueError):
            QuerySpec(1, stop=STOP, top_k=5)
        with pytest.raises(ValueError):
            QuerySpec(1, top_k=0)


class TestCloseStreamInteraction:
    """PR-5 audit: closing the service with live streaming iterators
    must cancel them cleanly, never hang, and be idempotent."""

    class _SlowNeverStop:
        """Never stops on its own; each check costs ~20 ms, so a
        32-iteration query takes >600 ms unless cancellation cuts in."""

        def should_stop(self, state) -> bool:
            time.sleep(0.02)
            return False

    def test_close_cancels_a_live_stream(self, small_social,
                                         small_social_index):
        service = PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        )
        spec = QuerySpec(7, stop=self._SlowNeverStop())
        iterator = service.stream(spec)
        first = next(iterator)
        assert first.iteration == 0
        started = time.monotonic()
        service.close()
        elapsed = time.monotonic() - started
        # The cancellable stop fires at the next iteration boundary:
        # close() must not sit through the full iteration budget.
        assert elapsed < 2.0, f"close() blocked for {elapsed:.2f}s"
        remaining = list(iterator)
        assert len(remaining) <= 2

    def test_close_is_idempotent(self, small_social, small_social_index):
        service = PPVService.open(small_social_index, graph=small_social)
        assert service.query(QuerySpec(3)).iterations == 2
        service.close()
        service.close()  # second close is a no-op, not an error

    def test_close_with_queued_streams_resolves_all_iterators(
        self, small_social, small_social_index
    ):
        service = PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        )
        iterators = [
            service.stream(QuerySpec(node, stop=StopAfterIterations(1)))
            for node in (3, 7, 11, 19)
        ]
        service.close()
        # Every iterator terminates (frames then the internal DONE
        # sentinel) instead of hanging on a dead drain thread.
        for iterator in iterators:
            assert len(list(iterator)) <= 2

    def test_stream_after_close_raises(self, small_social,
                                       small_social_index):
        service = PPVService.open(small_social_index, graph=small_social)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.stream(QuerySpec(3))
        # The failed submission must not leak into the live-stream set.
        assert not service._active_streams

    def test_closing_the_iterator_unregisters_the_stream(
        self, small_social, small_social_index
    ):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        ) as service:
            iterator = service.stream(QuerySpec(7))
            next(iterator)
            iterator.close()
            deadline = time.monotonic() + 5
            while service._active_streams and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not service._active_streams
