"""Integration tests for disk-based online query processing (Sect. 5.3)."""

import numpy as np
import pytest

from oracles import sharded_over
from repro import (
    FastPPV,
    StopAfterIterations,
    StopAtL1Error,
    build_index,
    select_hubs,
)
from repro.storage import (
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    cluster_graph,
    save_index,
)


@pytest.fixture(scope="module")
def disk_setup(small_social, small_social_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("disk")
    index_path = root / "index.fppv"
    save_index(small_social_index, index_path)
    assignment = cluster_graph(small_social, 6, seed=1)
    graph_store = DiskGraphStore(small_social, assignment, root / "clusters")
    ppv_store = DiskPPVStore(index_path)
    return graph_store, ppv_store


class TestDiskGraphStore:
    def test_neighbors_match_in_memory(self, disk_setup, small_social):
        graph_store, _ = disk_setup
        for node in range(0, small_social.num_nodes, 37):
            expected = sorted(small_social.out_neighbors(node).tolist())
            got = sorted(int(v) for v in graph_store.out_neighbors(node))
            assert got == expected

    def test_fault_counting(self, disk_setup, small_social):
        graph_store, _ = disk_setup
        before = graph_store.faults
        # Touch a node from every cluster: at least num_clusters - 1 swaps.
        for cluster in range(graph_store.num_clusters):
            members = np.nonzero(graph_store.labels == cluster)[0]
            graph_store.out_neighbors(int(members[0]))
        assert graph_store.faults - before >= graph_store.num_clusters - 1

    def test_no_fault_within_resident_cluster(self, disk_setup):
        graph_store, _ = disk_setup
        cluster = 0
        members = np.nonzero(graph_store.labels == cluster)[0][:5]
        graph_store.out_neighbors(int(members[0]))
        before = graph_store.faults
        for node in members[1:]:
            graph_store.out_neighbors(int(node))
        assert graph_store.faults == before

    def test_sizes_accounted(self, disk_setup):
        graph_store, _ = disk_setup
        assert graph_store.largest_cluster_bytes > 0
        assert graph_store.total_bytes >= graph_store.largest_cluster_bytes


class TestDiskFastPPV:
    def test_matches_in_memory_engine_for_hub_query(
        self, disk_setup, small_social, small_social_index
    ):
        graph_store, ppv_store = disk_setup
        disk_engine = DiskFastPPV(graph_store, ppv_store, delta=0.0)
        memory_engine = FastPPV(small_social, small_social_index, delta=0.0)
        hub = int(small_social_index.hubs[0])
        a = disk_engine.query(hub, stop=StopAfterIterations(2))
        b = memory_engine.query(hub, stop=StopAfterIterations(2))
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    @pytest.mark.parametrize(
        "stop",
        [StopAfterIterations(2), StopAfterIterations(6), StopAtL1Error(1e-5)],
    )
    @pytest.mark.parametrize("delta", [0.0, 0.005])
    def test_hub_query_bitwise_equal_to_in_memory_engine(
        self, disk_setup, small_social, small_social_index, stop, delta
    ):
        # A hub query does no prime push, so both backends run Algorithm
        # 2's rounds over the same payloads: the disk engine's exact
        # kernel reproduces FastPPV's scalar loop bit for bit.
        graph_store, ppv_store = disk_setup
        disk_engine = DiskFastPPV(graph_store, ppv_store, delta=delta)
        memory_engine = FastPPV(small_social, small_social_index, delta=delta)
        for hub in small_social_index.hubs[:8].tolist():
            a = disk_engine.query(hub, stop=stop)
            b = memory_engine.query(hub, stop=stop)
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.error_history == b.error_history
            assert a.hubs_expanded == b.hubs_expanded

    def test_matches_in_memory_engine_for_non_hub_query(
        self, disk_setup, small_social, small_social_index
    ):
        graph_store, ppv_store = disk_setup
        disk_engine = DiskFastPPV(
            graph_store, ppv_store, delta=0.0, fault_budget=10**9
        )
        memory_engine = FastPPV(small_social, small_social_index, delta=0.0)
        query = next(
            q for q in range(small_social.num_nodes) if q not in small_social_index
        )
        a = disk_engine.query(query, stop=StopAfterIterations(2))
        b = memory_engine.query(query, stop=StopAfterIterations(2))
        assert not a.truncated
        # The disk engine's cluster-draining push truncates epsilon mass in
        # a different (equally valid) pattern than the level-synchronous
        # in-memory push: both converge to the same vector as epsilon -> 0
        # (verified by the epsilon sweep below), but at a fixed epsilon the
        # disk push drops a constant factor more sub-threshold mass.
        assert np.abs(a.scores - b.scores).max() < 1e-3
        assert abs(a.scores.sum() - b.scores.sum()) < 5e-3

    def test_disk_push_converges_with_epsilon(
        self, small_social, small_social_index, tmp_path
    ):
        # Halving epsilon must shrink the disk-vs-memory gap towards zero.
        from repro.core.prime import prime_ppv

        assignment = cluster_graph(small_social, 5, seed=2)
        query = next(
            q for q in range(small_social.num_nodes)
            if q not in small_social_index
        )
        gaps = []
        for i, epsilon in enumerate((1e-6, 1e-8, 1e-10)):
            index = build_index(
                small_social, small_social_index.hubs, epsilon=epsilon
            )
            path = tmp_path / f"i{i}.fppv"
            save_index(index, path)
            store = DiskGraphStore(
                small_social, assignment, tmp_path / f"c{i}"
            )
            with DiskPPVStore(path) as ppv_store:
                engine = DiskFastPPV(
                    store, ppv_store, delta=0.0, fault_budget=10**9
                )
                disk = engine.query(query, stop=StopAfterIterations(0))
            memory = prime_ppv(
                small_social, query, index.hub_mask, epsilon=epsilon
            ).to_dense(small_social.num_nodes)
            gaps.append(np.abs(disk.scores - memory).sum())
        assert gaps[2] < gaps[1] < gaps[0]

    def test_io_accounting(self, disk_setup, small_social, small_social_index):
        graph_store, ppv_store = disk_setup
        engine = DiskFastPPV(graph_store, ppv_store, delta=0.0)
        non_hub = next(
            q for q in range(small_social.num_nodes) if q not in small_social_index
        )
        result = engine.query(non_hub, stop=StopAfterIterations(1))
        # A non-hub query reads exactly one payload per spliced hub.
        assert result.hub_reads == result.hubs_expanded
        assert result.cluster_faults >= 0
        # A hub query pays one extra read for its own iteration-0 vector.
        hub = int(small_social_index.hubs[0])
        hub_result = engine.query(hub, stop=StopAfterIterations(1))
        assert hub_result.hub_reads == hub_result.hubs_expanded + 1

    def test_fault_budget_truncates(self, disk_setup, small_social, small_social_index):
        graph_store, ppv_store = disk_setup
        tight = DiskFastPPV(graph_store, ppv_store, delta=0.0, fault_budget=1)
        loose = DiskFastPPV(graph_store, ppv_store, delta=0.0, fault_budget=10**9)
        query = next(
            q for q in range(small_social.num_nodes) if q not in small_social_index
        )
        a = tight.query(query, stop=StopAfterIterations(0))
        b = loose.query(query, stop=StopAfterIterations(0))
        # The truncated search can only cover less mass.
        assert a.scores.sum() <= b.scores.sum() + 1e-12

    @pytest.mark.parametrize("budget", [0, -2])
    def test_a_non_positive_fault_budget_is_refused(self, disk_setup, budget):
        # It used to be served: every non-hub query truncated before its
        # first drain, with the source's alpha as its whole estimate.
        graph_store, ppv_store = disk_setup
        with pytest.raises(ValueError, match="fault_budget must be at least one"):
            DiskFastPPV(graph_store, ppv_store, fault_budget=budget)

    def test_out_of_range_query(self, disk_setup):
        graph_store, ppv_store = disk_setup
        engine = DiskFastPPV(graph_store, ppv_store)
        with pytest.raises(ValueError):
            engine.query(10**6)

    def test_mismatched_stores_rejected(self, disk_setup, fig1_graph, tmp_path):
        _, ppv_store = disk_setup
        index = build_index(fig1_graph, [1, 3])
        path = tmp_path / "small.fppv"
        save_index(index, path)
        assignment = cluster_graph(fig1_graph, 2, seed=0)
        small_store = DiskGraphStore(fig1_graph, assignment, tmp_path / "c")
        with pytest.raises(ValueError, match="disagree"):
            DiskFastPPV(small_store, ppv_store)
        with DiskPPVStore(path) as small_ppv:
            with pytest.raises(ValueError, match="disagree"):
                DiskFastPPV(
                    disk_setup[0], small_ppv
                )


class TestMemoryBudget:
    def test_invalid_budget(self, small_social, tmp_path):
        assignment = cluster_graph(small_social, 3, seed=0)
        with pytest.raises(ValueError):
            DiskGraphStore(small_social, assignment, tmp_path / "c", memory_budget=0)

    def test_larger_budget_fewer_faults(self, small_social, tmp_path):
        assignment = cluster_graph(small_social, 6, seed=1)
        single = DiskGraphStore(
            small_social, assignment, tmp_path / "c1", memory_budget=1
        )
        triple = DiskGraphStore(
            small_social, assignment, tmp_path / "c3", memory_budget=3
        )
        # Alternate between nodes of three clusters: thrashes a 1-cluster
        # cache, fits entirely in a 3-cluster cache.
        anchors = [
            int(np.nonzero(assignment.labels == c)[0][0]) for c in range(3)
        ]
        for _ in range(5):
            for node in anchors:
                single.out_neighbors(node)
                triple.out_neighbors(node)
        assert triple.faults < single.faults
        assert triple.faults == 3  # compulsory misses only

    @pytest.mark.parametrize("kind", ["disk", "sharded"])
    def test_lru_eviction_order(self, small_social, tmp_path, kind):
        # One LRU (repro.storage.residency) behind both stores.
        assignment = cluster_graph(small_social, 4, seed=2)
        store = DiskGraphStore(
            small_social, assignment, tmp_path / "c", memory_budget=2
        )
        if kind == "sharded":
            store = sharded_over(store, memory_budget=2)
        anchors = [
            int(np.nonzero(assignment.labels == c)[0][0]) for c in range(3)
        ]
        store.out_neighbors(anchors[0])  # cache: [0]
        store.out_neighbors(anchors[1])  # cache: [0, 1]
        store.out_neighbors(anchors[0])  # cache: [1, 0] (0 refreshed)
        store.out_neighbors(anchors[2])  # evicts 1 -> cache: [0, 2]
        faults_before = store.faults
        store.out_neighbors(anchors[0])  # hit
        store.out_neighbors(anchors[2])  # hit
        assert store.faults == faults_before
        store.out_neighbors(anchors[1])  # miss (was evicted)
        assert store.faults == faults_before + 1
        np.testing.assert_array_equal(
            store.out_neighbors(anchors[1]),
            small_social.out_neighbors(anchors[1]),
        )

    def test_result_faults_are_drains_store_faults_are_physical(
        self, small_social, small_social_index, tmp_path
    ):
        # One meaning for a disk result's cluster_faults: the drain
        # count, whatever is resident.  A warm repeat on a store that
        # holds every cluster reports the same drains while the store
        # itself pays no further physical fault.
        index_path = tmp_path / "i.fppv"
        save_index(small_social_index, index_path)
        assignment = cluster_graph(small_social, 5, seed=3)
        store = DiskGraphStore(
            small_social, assignment, tmp_path / "c", memory_budget=5
        )
        query = next(
            q for q in range(small_social.num_nodes)
            if q not in small_social_index
        )
        with DiskPPVStore(index_path) as ppv_store:
            engine = DiskFastPPV(store, ppv_store, delta=0.0)
            cold = engine.query(query, stop=StopAfterIterations(1))
            physical_cold = store.faults
            warm = engine.query(query, stop=StopAfterIterations(1))
        assert cold.cluster_faults == warm.cluster_faults > 0
        assert physical_cold > 0
        assert store.faults == physical_cold

    def test_budget_sweep_reports_physical_faults(
        self, small_social, small_social_index, tmp_path
    ):
        from repro.experiments.fig16_disk import run_budget_sweep

        points = run_budget_sweep(
            small_social, small_social_index, num_clusters=6,
            budgets=(1, 6), queries=[3, 57, 200, 3, 57, 200],
            workdir=str(tmp_path),
        )
        # Holding every cluster leaves compulsory misses only.
        assert points[1].faults_per_query <= 6 / 6
        assert points[0].faults_per_query > points[1].faults_per_query

    def test_budget_results_identical(self, small_social, small_social_index, tmp_path):
        from repro.storage import save_index

        index_path = tmp_path / "i.fppv"
        save_index(small_social_index, index_path)
        assignment = cluster_graph(small_social, 5, seed=3)
        query = next(
            q for q in range(small_social.num_nodes)
            if q not in small_social_index
        )
        results = []
        for budget in (1, 4):
            store = DiskGraphStore(
                small_social, assignment, tmp_path / f"c{budget}",
                memory_budget=budget,
            )
            with DiskPPVStore(index_path) as ppv_store:
                engine = DiskFastPPV(store, ppv_store, delta=0.0,
                                     fault_budget=10**9)
                results.append(engine.query(query, stop=StopAfterIterations(1)))
        np.testing.assert_allclose(
            results[0].scores, results[1].scores, atol=0
        )
