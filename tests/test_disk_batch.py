"""Batched disk serving: a query served alone equals the same query
inside a batch, the engine equals the oracle loops of ``oracles.py``,
and cluster faults / hub reads amortise across the batch."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FastPPV,
    StopAfterIterations,
    StopAtL1Error,
    build_index,
    query_top_k,
    select_hubs,
)
from oracles import (
    DemandOnlyDiskFastPPV,
    ReferenceWavesDiskFastPPV,
    clusters_pool,
    reference_disk_query,
    sharded_over,
)
from repro.core.topk import StopWhenCertified, top_k_result
from repro.serving import PPVService
from repro.storage import (
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    StoredBytes,
    cluster_graph,
    save_index,
)

BATCH = 16


@pytest.fixture(scope="module")
def disk_batch_setup(small_social, small_social_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("disk_batch")
    index_path = root / "index.fppv"
    save_index(small_social_index, index_path)
    assignment = cluster_graph(small_social, 6, seed=1)
    rng = np.random.default_rng(7)
    queries = [
        int(q)
        for q in rng.choice(small_social.num_nodes, size=BATCH, replace=False)
    ]
    queries[0] = int(small_social_index.hubs[0])  # one hub query
    return root, assignment, index_path, queries


def _fresh_engine(small_social, setup, name, **kwargs):
    root, assignment, index_path, _ = setup
    # The paper's deployment: one cluster resident, no hub record.
    store = DiskGraphStore(small_social, assignment, root / name)
    store = DiskGraphStore.open(store.directory, pool=clusters_pool(store, 1))
    ppv_store = DiskPPVStore(index_path, pool=StoredBytes(0))
    return store, ppv_store, DiskFastPPV(store, ppv_store, **kwargs)


class TestEquality:
    @pytest.mark.parametrize(
        "stop",
        [StopAfterIterations(0), StopAfterIterations(2), StopAtL1Error(0.05)],
    )
    def test_batch_matches_scalar_bitwise(
        self, disk_batch_setup, small_social, stop
    ):
        root, assignment, index_path, queries = disk_batch_setup
        scalar_results = []
        for i, q in enumerate(queries):
            store, ppv_store, engine = _fresh_engine(
                small_social, disk_batch_setup, f"s_{stop}_{i}",
                delta=0.0,
            )
            with ppv_store:
                scalar_results.append(engine.query(q, stop=stop))
        store, ppv_store, batch = _fresh_engine(
            small_social, disk_batch_setup, f"b_{stop}",
            delta=0.0,
        )
        with ppv_store:
            batch_results = batch.query_many(queries, stop=stop)
        for scalar, batched in zip(scalar_results, batch_results):
            # Bitwise, not approximate: the batch scheduler only reorders
            # physical residency, never a query's mass flow.
            np.testing.assert_array_equal(scalar.scores, batched.scores)
            assert scalar.iterations == batched.iterations
            assert scalar.hubs_expanded == batched.hubs_expanded
            assert scalar.error_history == batched.error_history
            assert scalar.truncated == batched.truncated
            # Scalar-equivalent per-query I/O accounting.
            assert scalar.hub_reads == batched.hub_reads
            assert scalar.cluster_faults == batched.cluster_faults
            assert scalar.work_units == batched.work_units

    def test_duplicates_share_push_but_not_buffers(
        self, disk_batch_setup, small_social
    ):
        _, ppv_store, batch = _fresh_engine(
            small_social, disk_batch_setup, "dup", delta=0.0
        )
        with ppv_store:
            results = batch.query_many([9, 9, 9], stop=StopAfterIterations(1))
        np.testing.assert_array_equal(results[0].scores, results[1].scores)
        results[0].scores[0] += 1.0
        assert results[1].scores[0] != results[0].scores[0]

    def test_truncation_matches_scalar(self, disk_batch_setup, small_social):
        _, _, _, queries = disk_batch_setup
        non_hub = queries[1]
        _, scalar_ppv, scalar = _fresh_engine(
            small_social, disk_batch_setup, "trunc_s",
            delta=0.0, fault_budget=1,
        )
        _, batch_ppv, batch = _fresh_engine(
            small_social, disk_batch_setup, "trunc_b",
            delta=0.0, fault_budget=1,
        )
        with scalar_ppv, batch_ppv:
            a = scalar.query(non_hub, stop=StopAfterIterations(0))
            (b,) = batch.query_many([non_hub], stop=StopAfterIterations(0))
        assert a.truncated and b.truncated
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_out_of_range_rejected(self, disk_batch_setup, small_social):
        _, ppv_store, batch = _fresh_engine(
            small_social, disk_batch_setup, "range"
        )
        with ppv_store:
            with pytest.raises(ValueError):
                batch.query_many([10**6])

    def test_non_integer_rejected(self, disk_batch_setup, small_social):
        _, ppv_store, batch = _fresh_engine(
            small_social, disk_batch_setup, "integer"
        )
        with ppv_store:
            with pytest.raises(TypeError):
                batch.query_many([3.7])

    def test_query_is_the_batch_of_one(self, disk_batch_setup, small_social):
        _, ppv_store, engine = _fresh_engine(
            small_social, disk_batch_setup, "deleg", delta=0.0
        )
        with ppv_store:
            results = engine.query_many([4, 8], stop=StopAfterIterations(1))
            reference = engine.query(4, stop=StopAfterIterations(1))
        assert [r.query for r in results] == [4, 8]
        np.testing.assert_array_equal(results[0].scores, reference.scores)

    def test_negative_delta_rejected_at_every_entry(
        self, disk_batch_setup, small_social
    ):
        # The in-memory engines always refused a negative delta; the
        # disk engines used to accept it silently.
        store, ppv_store, _ = _fresh_engine(
            small_social, disk_batch_setup, "neg_delta"
        )
        with ppv_store:
            with pytest.raises(ValueError, match="delta must be non-negative"):
                DiskFastPPV(store, ppv_store, delta=-1.0)
            with pytest.raises(ValueError, match="delta must be non-negative"):
                PPVService.open(ppv_store, graph_store=store, delta=-1)


    def test_chunked_batch_equals_the_whole(
        self, disk_batch_setup, small_social, monkeypatch
    ):
        # A batch is served in chunks of _chunk_size queries; the chunk
        # never changes a query's result or its I/O record.
        from repro.core import batch as batch_module

        _, _, _, queries = disk_batch_setup
        workload = queries + queries[:4]  # duplicates across chunks
        stop = StopAfterIterations(3)
        _, whole_ppv, whole = _fresh_engine(
            small_social, disk_batch_setup, "chunk_whole", fault_budget=2
        )
        seen = {"whole": [], "chunked": []}
        with whole_ppv:
            expected = whole.query_many(
                workload, stop=stop,
                on_iteration=lambda at, state: seen["whole"].append(
                    (at, state.iteration, state.l1_error)
                ),
            )
        calls = []
        splice_batch = batch_module.splice_batch
        monkeypatch.setattr(batch_module, "_chunk_size", lambda num_nodes: 3)
        monkeypatch.setattr(
            batch_module, "splice_batch",
            lambda ids, *rest: calls.append(len(ids)) or splice_batch(ids, *rest),
        )
        _, chunked_ppv, chunked = _fresh_engine(
            small_social, disk_batch_setup, "chunk_three", fault_budget=2
        )
        with chunked_ppv:
            got = chunked.query_many(
                workload, stop=stop,
                on_iteration=lambda at, state: seen["chunked"].append(
                    (at, state.iteration, state.l1_error)
                ),
            )
        assert calls == [3] * 6 + [2]
        # Callback positions are the caller's, not the chunk's.
        assert sorted(seen["chunked"]) == sorted(seen["whole"])
        for a, b in zip(expected, got):
            assert a.query == b.query
            assert a.scores.tobytes() == b.scores.tobytes()
            assert a.error_history == b.error_history
            assert (a.cluster_faults, a.hub_reads, a.truncated, a.work_units) == (
                b.cluster_faults, b.hub_reads, b.truncated, b.work_units
            )
        assert 0 < sum(r.truncated for r in got) < len(got)


class TestKernels:
    """The engine's vectorised push and splice kernels against the
    oracle loops of ``oracles.py`` (the historical per-edge drain and the
    per-hub scalar splice loop): bit-for-bit equality everywhere."""

    @pytest.mark.parametrize(
        "stop",
        [
            StopAfterIterations(2),
            StopAfterIterations(6),
            StopAtL1Error(1e-5),
        ],
    )
    @pytest.mark.parametrize("delta", [0.0, 0.005])
    def test_vectorised_matches_reference_bitwise(
        self, disk_batch_setup, small_social, stop, delta
    ):
        _, _, _, queries = disk_batch_setup
        reference_results = []
        for i, q in enumerate(queries):
            store, ppv_store, _ = _fresh_engine(
                small_social, disk_batch_setup, f"kr_{stop}_{delta}_{i}",
                delta=delta,
            )
            with ppv_store:
                reference_results.append(
                    reference_disk_query(
                        store, ppv_store, q, stop=stop, delta=delta
                    )
                )
        # The engine, one query at a time.
        for i, q in enumerate(queries):
            _, ppv_store, engine = _fresh_engine(
                small_social, disk_batch_setup, f"kv_{stop}_{delta}_{i}",
                delta=delta,
            )
            with ppv_store:
                vectorised = engine.query(q, stop=stop)
            reference = reference_results[i]
            np.testing.assert_array_equal(
                reference.scores, vectorised.scores
            )
            assert (
                reference.error_history
                == vectorised.error_history
            )
            assert reference.iterations == vectorised.iterations
            assert reference.hub_reads == vectorised.hub_reads
            assert reference.cluster_faults == vectorised.cluster_faults
            assert reference.truncated == vectorised.truncated
        # The engine, whole batch at once.
        _, ppv_store, batch = _fresh_engine(
            small_social, disk_batch_setup, f"kb_{stop}_{delta}",
            delta=delta,
        )
        with ppv_store:
            batched = batch.query_many(queries, stop=stop)
        for reference, result in zip(reference_results, batched):
            np.testing.assert_array_equal(reference.scores, result.scores)
            assert (
                reference.error_history
                == result.error_history
            )
            assert reference.hub_reads == result.hub_reads
            assert reference.cluster_faults == result.cluster_faults

    @pytest.mark.parametrize("fault_budget", [1, 2, 3])
    def test_truncated_push_matches_reference_bitwise(
        self, disk_batch_setup, small_social, fault_budget
    ):
        # A budget that cuts the push mid-way: the oracle drain and the
        # fast drain must stop at the same step with the same mass.
        _, _, _, queries = disk_batch_setup
        truncated = 0
        for i, q in enumerate(queries[1:5]):
            store, ppv_store, engine = _fresh_engine(
                small_social, disk_batch_setup, f"kt_{fault_budget}_{i}",
                delta=0.0, fault_budget=fault_budget,
            )
            with ppv_store:
                reference = reference_disk_query(
                    store, ppv_store, q, delta=0.0, fault_budget=fault_budget
                )
                result = engine.query(q)
            np.testing.assert_array_equal(reference.scores, result.scores)
            assert reference.truncated == result.truncated
            assert reference.cluster_faults == result.cluster_faults
            truncated += result.truncated
        assert truncated > 0

    def test_kernel_option_is_gone(self, disk_batch_setup, small_social):
        # One engine per backend: there is no kernel to choose.
        store, ppv_store, _ = _fresh_engine(
            small_social, disk_batch_setup, "no_kernel"
        )
        with ppv_store:
            with pytest.raises(TypeError):
                DiskFastPPV(store, ppv_store, kernel="reference")
            with pytest.raises(TypeError):
                PPVService.open(
                    ppv_store, graph_store=store, kernel="vectorised"
                )

    def test_serving_adapter_carries_cap(self, disk_batch_setup,
                                         small_social):
        store, ppv_store, _ = _fresh_engine(
            small_social, disk_batch_setup, "adapter"
        )
        with ppv_store:
            with PPVService.open(
                ppv_store, graph_store=store, max_iterations=7
            ) as service:
                assert service.engine.max_iterations == 7

    def test_batch_on_iteration_counts(self, disk_batch_setup,
                                       small_social):
        # The new BatchCallback contract on the disk batch engine: one
        # invocation per executed iteration per query, iteration 0
        # included, keyed by batch position.
        _, _, _, queries = disk_batch_setup
        workload = queries[:4]
        _, ppv_store, batch = _fresh_engine(
            small_social, disk_batch_setup, "cb",
            delta=0.0,
        )
        seen: dict[int, list[int]] = {}
        with ppv_store:
            results = batch.query_many(
                workload,
                stop=StopAfterIterations(2),
                on_iteration=lambda position, state: seen.setdefault(
                    position, []
                ).append(state.iteration),
            )
        for position, result in enumerate(results):
            assert seen[position] == list(
                range(result.iterations + 1)
            )


class TestMaxIterations:
    def test_cap_respected_like_memory_engine(self, disk_batch_setup,
                                              small_social,
                                              small_social_index):
        # An unreachable accuracy target must stop at max_iterations on
        # every engine — the disk path used to hardcode 64.
        _, _, _, queries = disk_batch_setup
        non_hub = queries[1]
        unreachable = StopAtL1Error(0.0)
        memory = FastPPV(
            small_social, small_social_index, delta=0.0, max_iterations=3
        )
        memory_result = memory.query(non_hub, stop=unreachable)
        assert memory_result.iterations == 3
        _, scalar_ppv, scalar = _fresh_engine(
            small_social, disk_batch_setup, "cap_s",
            delta=0.0, max_iterations=3,
        )
        _, batch_ppv, batch = _fresh_engine(
            small_social, disk_batch_setup, "cap_b",
            delta=0.0, max_iterations=3,
        )
        ref_store, ref_ppv, _ = _fresh_engine(
            small_social, disk_batch_setup, "cap_r",
        )
        with scalar_ppv, batch_ppv, ref_ppv:
            scalar_result = scalar.query(non_hub, stop=unreachable)
            (batch_result,) = batch.query_many(
                [non_hub], stop=unreachable
            )
            reference_result = reference_disk_query(
                ref_store, ref_ppv, non_hub, stop=unreachable,
                delta=0.0, max_iterations=3,
            )
        assert scalar_result.iterations == 3
        assert batch_result.iterations == 3
        assert reference_result.iterations == 3

    def test_default_cap_matches_memory_default(self, disk_batch_setup,
                                                small_social):
        _, ppv_store, engine = _fresh_engine(
            small_social, disk_batch_setup, "cap_default"
        )
        ppv_store.close()
        assert engine.max_iterations == 64  # repro.core.query default


class TestAmortisation:
    def test_batch16_faults_below_16x_single(
        self, disk_batch_setup, small_social
    ):
        root, assignment, index_path, queries = disk_batch_setup
        # Single-query baseline: every query on its own cold store.
        single_faults = []
        for i, q in enumerate(queries):
            store, ppv_store, engine = _fresh_engine(
                small_social, disk_batch_setup, f"amort_s{i}",
                delta=0.0,
            )
            with ppv_store:
                engine.query(q, stop=StopAfterIterations(2))
            single_faults.append(store.faults)
        store, ppv_store, batch = _fresh_engine(
            small_social, disk_batch_setup, "amort_b",
            delta=0.0,
        )
        with ppv_store:
            batch.query_many(queries, stop=StopAfterIterations(2))
        batch_faults = store.faults
        non_hub_single = max(single_faults)
        assert batch_faults < BATCH * non_hub_single
        # Stronger: beat even the exact sum of cold per-query costs.
        assert batch_faults < sum(single_faults)

    def test_per_query_faults_are_budget_independent(
        self, disk_batch_setup, small_social
    ):
        # Per-query cluster_faults reports the deterministic budget-1
        # scalar equivalent (drain steps), whatever pool the batch store
        # actually has; scores stay bitwise equal.  (A scalar engine on
        # the same three-cluster pool may report *fewer* physical
        # faults — pool hits are free there; see the disk_engine module
        # docstring.)
        root, assignment, index_path, queries = disk_batch_setup
        non_hub = queries[1]
        store1, ppv1, _ = _fresh_engine(
            small_social, disk_batch_setup, "budget1", delta=0.0
        )
        scalar1 = DiskFastPPV(store1, ppv1, delta=0.0)
        store3 = DiskGraphStore(small_social, assignment, root / "budget3")
        store3 = DiskGraphStore.open(store3.directory, pool=clusters_pool(store3, 3))
        with ppv1, DiskPPVStore(index_path) as ppv3:
            reference = scalar1.query(non_hub, stop=StopAfterIterations(1))
            batch = DiskFastPPV(store3, ppv3, delta=0.0)
            (batched,) = batch.query_many(
                [non_hub], stop=StopAfterIterations(1)
            )
        assert batched.cluster_faults == reference.cluster_faults
        np.testing.assert_array_equal(batched.scores, reference.scores)
        # The larger budget shows up in the *physical* counter instead.
        assert store3.faults <= store1.faults

    def test_hub_reads_amortised(self, disk_batch_setup, small_social):
        _, _, _, queries = disk_batch_setup
        store, ppv_store, batch = _fresh_engine(
            small_social, disk_batch_setup, "reads",
            delta=0.0,
        )
        with ppv_store:
            results = batch.query_many(queries, stop=StopAfterIterations(2))
            physical = ppv_store.reads
        requested = sum(r.hub_reads for r in results)
        assert physical < requested
        # One physical read per unique hub at most.
        assert physical <= ppv_store.hubs.size


class _TouchLog(DiskGraphStore):
    """A store that also records every cluster a drain resolves."""

    def _attach(self, *args) -> None:
        super()._attach(*args)
        self.touched: set[int] = set()

    def resident_cluster(self, cluster):
        self.touched.add(cluster)
        return super().resident_cluster(cluster)


# 1, 2, 4, num_clusters - 1 and num_clusters of the fixture's 6 clusters.
WAVE_BUDGETS = (1, 2, 4, 5, 6)


@pytest.fixture(scope="module")
def wave_setup(disk_batch_setup, small_social):
    """One cluster directory and a seeded stream of five 12-query
    batches (distinct nodes, hubs among them)."""
    root, assignment, index_path, _ = disk_batch_setup
    assert assignment.num_clusters == 6
    DiskGraphStore(small_social, assignment, root / "waves")
    nodes = np.random.default_rng(11).permutation(small_social.num_nodes)
    stream = [nodes[i:i + 12].tolist() for i in range(0, 60, 12)]
    return root / "waves", index_path, stream


@pytest.fixture(params=["native"])
def selection(request):
    """The compiled kernels' row, under the id it had while a Python
    row ran beside it."""
    return request.param


def _fields(result) -> tuple:
    """Every field of a disk result except its wall-clock time."""
    inner = result.result
    return (
        inner.query, inner.scores.tobytes(), inner.iterations,
        inner.error_history, inner.hubs_expanded, result.work_units,
        result.cluster_faults, result.hub_reads, result.truncated,
    )


def _serve_stream(engine_class, wave_setup, budget, stream=None):
    """Serve the stream batch by batch through one store over a pool of
    ``budget`` largest clusters; return the store and every result's
    fields."""
    directory, index_path, default_stream = wave_setup
    store = _TouchLog.open(
        directory, pool=clusters_pool(DiskGraphStore.open(directory), budget)
    )
    with DiskPPVStore(index_path) as ppv_store:
        engine = engine_class(store, ppv_store, delta=0.0)
        fields = [
            _fields(result)
            for batch in stream or default_stream
            for result in engine.query_many(batch, stop=StopAfterIterations(2))
        ]
    return store, fields


class TestResidencyFirstWaves:
    """The wave order is free — every result is the one the demand-only
    rule (``oracles.DemandOnlyDiskFastPPV``) and a solo query give — and
    it pays: never more physical faults than demand-only waves."""

    @pytest.mark.parametrize("budget", WAVE_BUDGETS)
    def test_same_results_never_more_faults(
        self, wave_setup, selection, budget
    ):
        store, served = _serve_stream(DiskFastPPV, wave_setup, budget)
        oracle_store, oracle = _serve_stream(
            DemandOnlyDiskFastPPV, wave_setup, budget
        )
        solo = [[q] for batch in wave_setup[2] for q in batch]
        _, alone = _serve_stream(DiskFastPPV, wave_setup, budget, solo)
        assert served == oracle == alone
        assert store.faults <= oracle_store.faults

    def test_fewer_faults_when_more_than_one_cluster_fits(
        self, wave_setup, selection
    ):
        saved = [
            _serve_stream(DemandOnlyDiskFastPPV, wave_setup, budget)[0].faults
            - _serve_stream(DiskFastPPV, wave_setup, budget)[0].faults
            for budget in range(2, 6)
        ]
        assert max(saved) > 0, saved

    @pytest.mark.parametrize("budget", [6, 7])
    def test_a_budget_holding_every_cluster_faults_each_once(
        self, wave_setup, selection, budget
    ):
        store, _ = _serve_stream(DiskFastPPV, wave_setup, budget)
        assert len(store.touched) > 1
        assert store.faults == len(store.touched)


class TestCompiledWaves:
    """The compiled waves keep the physical schedule: on the seeded
    stream, every result and every physical counter — the graph store's
    ``faults``, the bytes read from its segments, the PPV store's
    ``reads`` — equals the reference wave loop of ``oracles.py``,
    locally and through the router's ``ShardedGraphStore``."""

    @pytest.mark.parametrize("backend", ["disk", "sharded"])
    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_same_results_and_counters_as_the_reference_loop(
        self, wave_setup, budget, backend
    ):
        directory, index_path, stream = wave_setup

        def serve(engine_class):
            pool = clusters_pool(DiskGraphStore.open(directory), budget)
            local = DiskGraphStore.open(directory, pool=pool)
            store = local if backend == "disk" else sharded_over(local, pool)
            with DiskPPVStore(index_path) as ppv_store:
                engine = engine_class(store, ppv_store, delta=0.0)
                fields = [
                    _fields(result)
                    for batch in stream
                    for result in engine.query_many(
                        batch, stop=StopAfterIterations(2)
                    )
                ]
                reads = (ppv_store.reads, ppv_store.bytes_read)
            return fields, (store.faults, local.faults, local.bytes_read, reads)

        served, counters = serve(DiskFastPPV)
        oracle, oracle_counters = serve(ReferenceWavesDiskFastPPV)
        assert served == oracle
        assert counters == oracle_counters
        assert counters[0] > len(stream)  # more than one wave per batch


class TestWorkUnits:
    """A disk result's ``work_units`` means what a memory result's does —
    the push's edges plus the index entries the splices touched — and,
    like the I/O record, is independent of the batch and the backend."""

    def test_equals_the_oracle_alone_in_a_batch_and_sharded(self, wave_setup):
        directory, index_path, stream = wave_setup
        queries = stream[0]
        stop = StopAfterIterations(2)
        with DiskPPVStore(index_path) as ppv_store:
            want = [
                reference_disk_query(
                    DiskGraphStore.open(directory), ppv_store, q, stop=stop,
                    delta=0.0,
                ).work_units
                for q in queries
            ]
            engine = DiskFastPPV(DiskGraphStore.open(directory), ppv_store, delta=0.0)
            batched = [r.work_units for r in engine.query_many(queries, stop=stop)]
            alone = [engine.query(q, stop=stop).work_units for q in queries]
            mixed = engine.query_many(queries[::-1] + queries[:3], stop=stop)
            sharded = DiskFastPPV(
                sharded_over(DiskGraphStore.open(directory)), ppv_store, delta=0.0
            ).query_many(queries, stop=stop)
        assert batched == alone == want
        assert [r.work_units for r in mixed] == want[::-1] + want[:3]
        assert [r.work_units for r in sharded] == want
        pushed = [w for q, w in zip(queries, want) if q not in ppv_store]
        assert pushed and min(pushed) > 0


class TestDiskTopK:
    def test_certified_sets_match_memory_engine(
        self, disk_batch_setup, small_social, small_social_index, tmp_path
    ):
        # Certificates need full prime PPVs: rebuild the index unclipped.
        index = build_index(
            small_social, small_social_index.hubs, clip=0.0
        )
        index_path = tmp_path / "unclipped.fppv"
        save_index(index, index_path)
        assignment = cluster_graph(small_social, 6, seed=1)
        store = DiskGraphStore(small_social, assignment, tmp_path / "c")
        memory = FastPPV(small_social, index, delta=0.0)
        queries = [3, 57, 200, int(index.hubs[0])]
        with DiskPPVStore(index_path) as ppv_store:
            batch = DiskFastPPV(
                store, ppv_store, delta=0.0, fault_budget=10**9
            )
            results = batch.query_top_k_many(queries, k=5, max_iterations=40)
        certified = 0
        for q, disk_result in zip(queries, results):
            reference = query_top_k(memory, q, k=5, max_iterations=40)
            if disk_result.certified and reference.certified:
                assert set(disk_result.top.tolist()) == set(
                    reference.top.tolist()
                )
                certified += 1
            assert disk_result.hub_reads > 0
        assert certified > 0

    def test_top_k_alone_matches_top_k_in_a_batch(
        self, disk_batch_setup, small_social
    ):
        _, _, _, queries = disk_batch_setup
        _, ppv_store, engine = _fresh_engine(
            small_social, disk_batch_setup, "topk_solo", delta=0.0
        )
        with ppv_store:
            batched = engine.query_top_k_many(queries, k=5)
            for q, in_batch in zip(queries[:6], batched):
                (alone,) = engine.query_top_k_many([q], k=5)
                np.testing.assert_array_equal(
                    alone.scores, in_batch.scores
                )
                np.testing.assert_array_equal(
                    alone.top, in_batch.top
                )
                assert alone.iterations == in_batch.iterations
                assert alone.certified == in_batch.certified
                assert alone.hub_reads == in_batch.hub_reads
                assert alone.cluster_faults == in_batch.cluster_faults

    def test_on_iteration_sees_every_round_of_every_query(
        self, disk_batch_setup, small_social
    ):
        _, _, _, queries = disk_batch_setup
        _, ppv_store, engine = _fresh_engine(
            small_social, disk_batch_setup, "topk_trace", delta=0.0
        )
        seen = []
        with ppv_store:
            results = engine.query_top_k_many(
                queries[:4], k=5,
                on_iteration=lambda i, state: seen.append((i, state.iteration)),
            )
        assert sorted(seen) == [
            (i, iteration)
            for i, result in enumerate(results)
            for iteration in range(result.iterations + 1)
        ]

    def test_invalid_k(self, disk_batch_setup, small_social):
        _, ppv_store, batch = _fresh_engine(
            small_social, disk_batch_setup, "topk_k"
        )
        with ppv_store:
            with pytest.raises(ValueError):
                batch.query_top_k_many([3], k=0)


class _RecordingStore:
    """A PPV store that records every hub ``get`` asks for."""

    def __init__(self, store):
        self.store = store
        self.hubs: set[int] = set()

    def get(self, hub):
        self.hubs.add(int(hub))
        return self.store.get(hub)

    def __contains__(self, hub) -> bool:
        return hub in self.store

    def __getattr__(self, name):
        return getattr(self.store, name)


class TestHubRecordsAsRowBatches:
    """Hub records reach the batch's splice block as decoded row batches
    — a hub query reads iteration 0 back from its own row.  Mixed
    batches (hub queries, duplicates, pushed queries) equal the oracle
    loops in every field, and the batch reads each hub the oracle
    fetches exactly once: ``reads`` and ``bytes_read`` are those of the
    distinct hubs."""

    @staticmethod
    def _batch(disk_batch_setup):
        root, _, index_path, queries = disk_batch_setup
        with DiskPPVStore(index_path) as store:
            hubs = store.hubs.tolist()
        return [hubs[0], queries[1], hubs[0], hubs[1], queries[1],
                queries[2], hubs[2], queries[3], hubs[1]]

    def _oracle(self, small_social, disk_batch_setup, batch, stop, delta, name):
        store, ppv_store, _ = _fresh_engine(small_social, disk_batch_setup, name)
        with ppv_store:
            recording = _RecordingStore(ppv_store)
            results = [
                reference_disk_query(store, recording, q, stop=stop, delta=delta)
                for q in batch
            ]
            size = sum(
                len(ppv_store.read_record(hub)[2]) for hub in recording.hubs
            )
        return results, len(recording.hubs), size

    @pytest.mark.parametrize("delta", [0.0, 0.005])
    def test_query_many_equals_the_oracle(
        self, disk_batch_setup, small_social, selection, delta
    ):
        batch = self._batch(disk_batch_setup)
        stop = StopAfterIterations(3)
        want, reads, size = self._oracle(
            small_social, disk_batch_setup, batch, stop, delta,
            f"rows_o_{selection}_{delta}",
        )
        _, ppv_store, engine = _fresh_engine(
            small_social, disk_batch_setup, f"rows_e_{selection}_{delta}",
            delta=delta,
        )
        with ppv_store:
            got = engine.query_many(batch, stop=stop)
            assert (ppv_store.reads, ppv_store.bytes_read) == (reads, size)
        assert [_fields(r) for r in got] == [_fields(r) for r in want]

    def test_query_top_k_many_equals_the_oracle(
        self, disk_batch_setup, small_social, selection
    ):
        batch = self._batch(disk_batch_setup)
        k, cap = 5, 8
        want, reads, size = self._oracle(
            small_social, disk_batch_setup, batch,
            StopWhenCertified(k=k, max_iterations=cap), 0.0,
            f"rows_ko_{selection}",
        )
        _, ppv_store, engine = _fresh_engine(
            small_social, disk_batch_setup, f"rows_ke_{selection}", delta=0.0
        )
        with ppv_store:
            got = engine.query_top_k_many(batch, k=k, max_iterations=cap)
            assert (ppv_store.reads, ppv_store.bytes_read) == (reads, size)
        for result, reference in zip(got, want):
            expected = top_k_result(reference.result, k)
            assert result.top.tolist() == expected.top.tolist()
            assert result.scores.tobytes() == expected.scores.tobytes()
            assert (result.certified, result.iterations,
                    result.l1_error) == (
                expected.certified, expected.iterations, expected.l1_error)
            assert (result.cluster_faults, result.hub_reads, result.truncated) == (
                reference.cluster_faults, reference.hub_reads,
                reference.truncated)
