"""The popularity-aware cache: unit mechanics (hit-count eviction) and
service-level behaviour (shared across backends, invalidation on index
updates)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    PPVService,
    QuerySpec,
    StopAfterIterations,
    build_index,
    select_hubs,
    social_graph,
)
from repro.core.dynamic import add_edges, update_index
from repro.core.splice import invalidate_splice_cache
from repro.serving.cache import PopularityCache
from repro.storage import DiskGraphStore, DiskPPVStore, cluster_graph, save_index

STOP = StopAfterIterations(2)


def _result(service, node):
    return service.query(QuerySpec(node, stop=STOP))


SERVED_SPECS = {
    "ppv": QuerySpec(5, stop=STOP),
    "top_k": QuerySpec(5, top_k=4),
    "multi_ppv": QuerySpec((3, 9), weights=(2, 1), stop=STOP),
    "hitting": QuerySpec(5, family="hitting", params={"target": 9}),
    "reachability": QuerySpec(
        5, family="reachability", params={"max_length": 3}
    ),
}
SERVED_CASES = [
    (backend, kind)
    for backend in ("memory", "disk")
    for kind in ("ppv", "top_k", "multi_ppv")
] + [("memory", "hitting"), ("memory", "reachability")]


@pytest.fixture(scope="module", params=SERVED_CASES, ids="-".join)
def served(request, small_social, small_social_index, tmp_path_factory):
    """``(backend, kind, result)``: one result as the service serves it,
    for every result shape it serves."""
    backend, kind = request.param
    spec = SERVED_SPECS[kind]
    if backend == "memory":
        with PPVService.open(
            small_social_index, graph=small_social, delta=0.0
        ) as service:
            return backend, kind, service.query(spec)
    root = tmp_path_factory.mktemp("served")
    save_index(small_social_index, root / "index.fppv")
    assignment = cluster_graph(small_social, 4, seed=1)
    store = DiskGraphStore(small_social, assignment, root / "c")
    with DiskPPVStore(root / "index.fppv") as ppv_store:
        with PPVService.open(
            ppv_store, graph_store=store, delta=0.0
        ) as service:
            return backend, kind, service.query(spec)


def _assert_same_fields(got, want) -> None:
    assert type(got) is type(want)
    for item in dataclasses.fields(want):
        a, b = getattr(got, item.name), getattr(want, item.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), item.name
        else:
            assert a == b, item.name


def _buffers(result) -> list:
    """The mutable containers a result holds: arrays and lists."""
    return [
        value
        for value in vars(result).values()
        if isinstance(value, (np.ndarray, list))
    ]


def _scribble(result) -> None:
    """Overwrite every buffer of ``result`` in place."""
    for value in _buffers(result):
        if isinstance(value, np.ndarray):
            value.fill(-1)
        else:
            value.append(-1.0)


class TestPopularityCacheUnit:
    def test_eviction_prefers_fewest_hits(self, small_social,
                                          small_social_index):
        # Real QueryResults, so the cache's copy() round-trips them.
        from repro import FastPPV

        engine = FastPPV(small_social, small_social_index)
        value = engine.query(0, stop=STOP)
        cache = PopularityCache(3)
        for key in ("a", "b", "c"):
            cache.put((key,), value)
        # Popularity: a twice, b once, c never.
        cache.get(("a",))
        cache.get(("a",))
        cache.get(("b",))
        cache.put(("d",), value)  # evicts c (0 hits)
        assert ("c",) not in cache
        assert all(key in cache for key in [("a",), ("b",), ("d",)])
        cache.put(("e",), value)  # evicts d (0 hits, least recent of the 0s)
        assert ("d",) not in cache
        # The popular entries survived both one-off bursts.
        assert ("a",) in cache and ("b",) in cache
        assert cache.evictions == 2
        assert cache.popularity(("a",)) == 2

    def test_zero_hit_ties_break_least_recently_used(self, small_social,
                                                     small_social_index):
        from repro import FastPPV

        value = FastPPV(small_social, small_social_index).query(0, stop=STOP)
        cache = PopularityCache(2)
        cache.put(("old",), value)
        cache.put(("new",), value)
        cache.put(("newest",), value)
        assert ("old",) not in cache
        assert ("new",) in cache and ("newest",) in cache

    def test_served_results_carry_their_records(self, served):
        backend, kind, result = served
        if kind in ("ppv", "top_k", "multi_ppv"):
            assert (result.cluster_faults is not None) == (backend == "disk")
            assert (result.certified is not None) == (kind == "top_k")

    def test_copy_equals_the_original_in_every_field(self, served):
        _backend, _kind, result = served
        _assert_same_fields(result.copy(), result)

    def test_copy_shares_no_buffer(self, served):
        _backend, _kind, result = served
        copy = result.copy()
        pairs = list(zip(_buffers(copy), _buffers(result)))
        assert pairs
        for mine, theirs in pairs:
            if isinstance(theirs, np.ndarray):
                assert not np.shares_memory(mine, theirs)
            else:
                assert mine is not theirs

    def test_copies_in_both_directions(self, served):
        _backend, _kind, result = served
        value = result.copy()
        expected = result.copy()
        cache = PopularityCache(4)
        cache.put(("k",), value)
        _scribble(value)  # caller mutates after put
        first = cache.get(("k",))
        _assert_same_fields(first, expected)
        _scribble(first)  # caller mutates a hit
        _assert_same_fields(cache.get(("k",)), expected)

    def test_capacity_zero_disables(self):
        cache = PopularityCache(0)
        cache.put(("k",), None)
        assert len(cache) == 0

    def test_a_result_without_copy_is_not_cached(self):
        cache = PopularityCache(4)
        cache.put(("k",), object())
        assert len(cache) == 0
        assert cache.get(("k",)) is None


class TestServiceCacheMemory:
    def test_repeats_hit_the_cache(self, small_social, small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        ) as service:
            first = _result(service, 5)
            second = _result(service, 5)
            stats = service.stats()
        np.testing.assert_array_equal(first.scores, second.scores)
        assert stats.cache_hits == 1
        assert stats.cache_entries == 1

    def test_hit_count_eviction_order_through_service(self, small_social,
                                                      small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4,
            cache_size=3,
        ) as service:
            for node in (1, 2, 3):
                _result(service, node)
            # Node 1 becomes popular; 2 is touched once; 3 never again.
            _result(service, 1)
            _result(service, 1)
            _result(service, 2)
            _result(service, 4)  # capacity exceeded -> node 3 evicted
            assert ("ppv", "stop", 3, STOP) not in service.cache
            for node in (1, 2, 4):
                assert ("ppv", "stop", node, STOP) in service.cache

    def test_distinct_stops_cached_separately(self, small_social,
                                              small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        ) as service:
            eta1 = service.query(QuerySpec(5, stop=StopAfterIterations(1)))
            eta2 = service.query(QuerySpec(5, stop=StopAfterIterations(2)))
            assert service.stats().cache_entries == 2
        assert eta1.iterations == 1
        assert eta2.iterations == 2

    def test_top_k_results_cached(self, small_social, small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=0.0
        ) as service:
            first = service.query(QuerySpec(5, top_k=4))
            second = service.query(QuerySpec(5, top_k=4))
            stats = service.stats()
        np.testing.assert_array_equal(first.top, second.top)
        assert stats.cache_hits == 1

    def test_cached_results_are_isolated(self, small_social,
                                         small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        ) as service:
            first = _result(service, 5)
            first.scores[:] = -1.0
            second = _result(service, 5)
            assert second.scores[0] != -1.0

    def test_stream_bypasses_the_cache(self, small_social,
                                       small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        ) as service:
            list(service.stream(QuerySpec(5, stop=STOP)))
            assert service.stats().cache_entries == 0
            # And a stream never serves stale frames from a cached result.
            _result(service, 5)
            frames = list(service.stream(QuerySpec(5, stop=STOP)))
            assert len(frames) == 3

    def test_time_based_stops_never_cached(self, small_social,
                                           small_social_index):
        from repro import StopAfterTime, any_of

        with PPVService.open(
            small_social_index, graph=small_social, delta=1e-4
        ) as service:
            stop = any_of(StopAfterIterations(2), StopAfterTime(1e9))
            service.query(QuerySpec(5, stop=stop))
            assert service.stats().cache_entries == 0


class TestInvalidation:
    def test_update_index_drops_the_cache(self):
        graph = social_graph(num_nodes=300, seed=3)
        hubs = select_hubs(graph, num_hubs=30)
        index = build_index(graph, hubs)
        with PPVService.open(index, graph=graph, delta=1e-4) as service:
            stale = _result(service, 5)
            assert service.stats().cache_entries == 1

            new_graph = add_edges(graph, [(5, 17), (5, 23), (17, 5)])
            new_index, recomputed = update_index(graph, new_graph, index)
            assert recomputed > 0
            service.update_index(new_index, graph=new_graph)
            assert service.stats().cache_entries == 0

            fresh = _result(service, 5)
            # Served from the new index, not the stale cache entry.
            from repro import FastPPV

            reference = FastPPV(new_graph, new_index, delta=1e-4).query(
                5, stop=STOP
            )
            np.testing.assert_allclose(
                fresh.scores, reference.scores, atol=1e-12
            )
            assert float(np.abs(fresh.scores - stale.scores).max()) > 1e-6

    def test_update_index_rejected_on_disk_backend(self, small_social,
                                                   small_social_index,
                                                   tmp_path):
        index_path = tmp_path / "index.fppv"
        save_index(small_social_index, index_path)
        assignment = cluster_graph(small_social, 4, seed=1)
        store = DiskGraphStore(small_social, assignment, tmp_path / "c")
        with DiskPPVStore(index_path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store
            ) as service:
                with pytest.raises(NotImplementedError):
                    service.update_index(small_social_index)

    def test_in_place_invalidation_via_splice_cache(self, small_social):
        hubs = select_hubs(small_social, num_hubs=30)
        index = build_index(small_social, hubs)
        with PPVService.open(index, graph=small_social, delta=1e-4) as service:
            _result(service, 5)
            assert service.stats().cache_entries == 1
            invalidate_splice_cache(index)
            # The next drain observes a rebuilt lowering token and must
            # not serve results computed against the old one.
            _result(service, 6)
            assert ("ppv", "stop", 5, STOP) not in service.cache
            assert ("ppv", "stop", 6, STOP) in service.cache


class TestServiceCacheDisk:
    def test_repeats_cost_no_physical_io(self, small_social,
                                         small_social_index, tmp_path):
        index_path = tmp_path / "index.fppv"
        save_index(small_social_index, index_path)
        assignment = cluster_graph(small_social, 4, seed=1)
        store = DiskGraphStore(small_social, assignment, tmp_path / "c")
        with DiskPPVStore(index_path) as ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, delta=0.0
            ) as service:
                first = _result(service, 9)
                faults = store.faults
                reads = ppv_store.reads
                second = _result(service, 9)
                assert store.faults == faults  # no new cluster I/O
                assert ppv_store.reads == reads  # no new index I/O
        np.testing.assert_array_equal(first.scores, second.scores)
        assert second.cluster_faults == first.cluster_faults
