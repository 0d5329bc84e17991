"""The one pool of stored bytes (``repro.storage.residency.StoredBytes``).

Unit and property tests of the pool itself — an LRU over ``(kind, id)``
bounded in bytes — and of the three calls that look it up before they
fetch: ``ClusterResidency.resident_cluster`` and both PPV stores'
``get_many``.  A hit must cost no physical read: no fault site fires and
no counter moves.  A refused segment or record must never enter the
pool.  The inclusion property (the contents at a capacity are a subset
of the contents at any larger one) is what the Fig. 16 shape claim
"more resident clusters never fault more" rests on.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StopAfterIterations, StopAtL1Error
from repro.faults import FaultPlan
from repro.serving import PPVService
from repro.storage import (
    DEFAULT_MEMORY_BYTES,
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    StoredBytes,
    cluster_graph,
    save_index,
)

NUM_IDS = 6


def _access(pool: StoredBytes, kind, key: int, size: int) -> bool:
    """One store-style access: a lookup, and a put on a miss.  True on a
    hit."""
    if pool.get(kind, key) is not None:
        return True
    pool.put(kind, key, f"{kind[0]}{key}", size)
    return False


class TestPool:
    def test_lookups_refresh_and_puts_evict_from_the_lru_end(self):
        pool = StoredBytes(10)
        kind = pool.kind("x")
        pool.put(kind, 1, "a", 4)
        pool.put(kind, 2, "b", 4)
        assert pool.get(kind, 1) == "a"  # 1 is now the most recent
        pool.put(kind, 3, "c", 4)  # 12 > 10: evicts 2, the LRU end
        assert pool.keys() == [(kind, 1), (kind, 3)]
        assert pool.held == 8
        assert pool.get(kind, 2) is None

    def test_eviction_stops_as_soon_as_the_entry_fits(self):
        pool = StoredBytes(10)
        kind = pool.kind("x")
        for key, size in ((1, 3), (2, 3), (3, 3)):
            pool.put(kind, key, key, size)
        pool.put(kind, 4, 4, 6)  # 15 > 10, 12 > 10, 9 <= 10
        assert pool.keys() == [(kind, 3), (kind, 4)]
        assert pool.held == 9

    def test_an_oversize_entry_is_admitted_alone(self):
        pool = StoredBytes(10)
        kind = pool.kind("x")
        pool.put(kind, 1, "small", 4)
        pool.put(kind, 2, "big", 25)
        assert pool.keys() == [(kind, 2)]
        assert pool.held == 25
        pool.put(kind, 3, "small", 4)  # the oversize one goes first
        assert pool.keys() == [(kind, 3)]

    def test_capacity_zero_holds_only_the_newest_entry(self):
        pool = StoredBytes(0)
        kind = pool.kind("x")
        for key in range(4):
            pool.put(kind, key, key, 16)
            assert pool.keys() == [(kind, key)]
        assert pool.get(kind, 3) == 3

    def test_a_negative_capacity_is_refused(self):
        with pytest.raises(ValueError, match="byte count"):
            StoredBytes(-1)

    def test_the_default_holds_the_social4k_dataset(self):
        # 10 segments (365 644 B) + 400 records (1 235 328 B).
        assert DEFAULT_MEMORY_BYTES >= 365_644 + 1_235_328
        assert StoredBytes().capacity == DEFAULT_MEMORY_BYTES

    def test_two_stores_share_the_bytes_not_the_entries(self):
        pool = StoredBytes(10)
        first, second = pool.kind("hub"), pool.kind("hub")
        pool.put(first, 7, "first's record", 6)
        assert pool.get(second, 7) is None
        pool.put(second, 7, "second's record", 6)  # evicts first's
        assert pool.get(first, 7) is None
        assert pool.get(second, 7) == "second's record"

    def test_flags_follow_inserts_evictions_and_drops(self):
        pool = StoredBytes(8)
        flags = np.zeros(4, np.uint8)
        clusters, hubs = pool.kind("cluster", flags), pool.kind("hub")
        pool.put(clusters, 1, "c1", 4)
        pool.put(clusters, 2, "c2", 4)
        assert flags.tolist() == [0, 1, 1, 0]
        pool.put(hubs, 9, "record", 4)  # a record evicts cluster 1
        assert flags.tolist() == [0, 0, 1, 0]
        pool.drop(clusters)
        assert flags.tolist() == [0, 0, 0, 0]
        assert pool.keys() == [(hubs, 9)] and pool.held == 4

    def test_evictions_are_counted_per_kind(self):
        pool = StoredBytes(8)
        clusters, hubs = pool.kind("cluster"), pool.kind("hub")
        pool.put(clusters, 1, "c1", 4)
        pool.put(hubs, 9, "record", 4)
        pool.put(hubs, 9, "record again", 4)  # a refresh evicts nothing
        assert (pool.evicted(clusters), pool.evicted(hubs)) == (0, 0)
        pool.put(hubs, 8, "record", 4)  # evicts cluster 1
        assert (pool.evicted(clusters), pool.evicted(hubs)) == (1, 0)
        pool.drop(hubs)
        assert (pool.evicted(clusters), pool.evicted(hubs)) == (1, 2)


# --------------------------------------------------------------------- #
# Properties over access sequences of sized keys

_SIZES = st.lists(st.integers(0, 40), min_size=2 * NUM_IDS, max_size=2 * NUM_IDS)
_ACCESSES = st.lists(
    st.tuples(st.sampled_from(["cluster", "hub"]), st.integers(0, NUM_IDS - 1)),
    max_size=60,
)


def _replay(capacity: int, sizes: list[int], accesses):
    """Yield ``(pool, flags, kinds)`` after every access of ``accesses``
    (a stored id keeps its size: ``sizes`` per kind and id)."""
    pool = StoredBytes(capacity)
    flags = np.zeros(NUM_IDS, np.uint8)
    kinds = {"cluster": pool.kind("cluster", flags), "hub": pool.kind("hub")}
    for name, key in accesses:
        size = sizes[key + (NUM_IDS if name == "hub" else 0)]
        _access(pool, kinds[name], key, size)
        yield pool, flags, kinds


@given(
    sizes=_SIZES, accesses=_ACCESSES,
    capacity=st.integers(0, 120), more=st.integers(0, 120),
)
def test_contents_at_a_capacity_are_included_at_any_larger_one(
    sizes, accesses, capacity, more
):
    small = _replay(capacity, sizes, accesses)
    large = _replay(capacity + more, sizes, accesses)
    for (pool, _, kinds), (bigger, _, bigger_kinds) in zip(small, large):
        names = {kind: name for name, kind in kinds.items()}
        bigger_names = {kind: name for name, kind in bigger_kinds.items()}
        held = {(names[kind], key) for kind, key in pool.keys()}
        assert held <= {(bigger_names[kind], key) for kind, key in bigger.keys()}


@given(sizes=_SIZES, accesses=_ACCESSES, capacity=st.integers(0, 120))
def test_the_pool_holds_the_longest_recent_prefix_that_fits(
    sizes, accesses, capacity
):
    recency: list[tuple[str, int]] = []  # most recent first
    for (pool, flags, kinds), access in zip(
        _replay(capacity, sizes, accesses), accesses
    ):
        recency = [access] + [seen for seen in recency if seen != access]
        prefix, total = [], 0
        for name, key in recency:
            total += sizes[key + (NUM_IDS if name == "hub" else 0)]
            if prefix and total > capacity:
                break
            prefix.append((name, key))
        names = {kind: name for name, kind in kinds.items()}
        held = [(names[kind], key) for kind, key in pool.keys()]
        assert held[::-1] == prefix
        assert pool.held == sum(
            sizes[key + (NUM_IDS if name == "hub" else 0)] for name, key in held
        )
        assert pool.held <= capacity or len(held) == 1
        # resident_flags is the set of held clusters after every access.
        assert set(np.flatnonzero(flags).tolist()) == {
            key for name, key in held if name == "cluster"
        }


# --------------------------------------------------------------------- #
# The stores look the pool up first


@pytest.fixture(scope="module")
def deployment(small_social, small_social_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("pooled")
    save_index(small_social_index, root / "i.fppv")
    DiskGraphStore(small_social, cluster_graph(small_social, 4, seed=1), root / "c")
    return root


def test_a_pool_hit_reads_nothing(deployment, small_social_index):
    plan = FaultPlan()  # no rule: it only counts the fault sites' hits
    pool = StoredBytes()
    graph_store = DiskGraphStore.open(deployment / "c", pool=pool, fault_plan=plan)
    hubs = small_social_index.hubs[:3].tolist()
    with DiskPPVStore(deployment / "i.fppv", pool=pool, fault_plan=plan) as store:
        graph_store.resident_cluster(2)
        rows = [
            array.tobytes() for hub in hubs
            for array in store.get_many(hubs).prime_of(hub)
        ]

        def physical():
            return (plan.hits("graph_store.load"), plan.hits("ppv_store.read"),
                    graph_store.faults, graph_store.bytes_read, store.reads,
                    store.bytes_read)

        cold = physical()
        assert cold[:3] == (1, 3, 1) and cold[4] == 3
        again = graph_store.resident_cluster(2)
        hit = store.get_many(hubs[::-1])
        assert physical() == cold
        assert again.segment == graph_store.read_segment(2)
        assert [
            array.tobytes() for hub in hubs for array in hit.prime_of(hub)
        ] == rows


def test_one_deployment_shares_one_pool(deployment):
    graph_store = DiskGraphStore.open(deployment / "c", pool=StoredBytes(10**6))
    with PPVService.open(
        str(deployment / "i.fppv"), graph_store=graph_store, cache_size=0
    ) as service:
        assert service.engine.ppv_store.pool is graph_store.pool
        service.query_many([0, 1, 2])
        kinds = {kind[0] for kind, _ in graph_store.pool.keys()}
        assert kinds == {"cluster", "hub"}
    # Closing the service closed its PPV store, which dropped its records.
    assert {kind[0] for kind, _ in graph_store.pool.keys()} == {"cluster"}


def test_physical_io_falls_and_served_bits_do_not_move(deployment):
    nodes = list(range(0, 200, 7))

    def serve(capacity):
        pool = StoredBytes(capacity)
        graph_store = DiskGraphStore.open(deployment / "c", pool=pool)
        with DiskPPVStore(deployment / "i.fppv", pool=pool) as store:
            engine = DiskFastPPV(graph_store, store, delta=1e-4)
            results = [
                engine.query_many(nodes[i:i + 4], stop=StopAfterIterations(2))
                for i in range(0, len(nodes), 4)
            ]
            return [r for batch in results for r in batch], graph_store, store

    paper, paper_graph, paper_ppv = serve(0)
    pooled, pooled_graph, pooled_ppv = serve(DEFAULT_MEMORY_BYTES)
    for a, b in zip(paper, pooled):
        assert a.scores.tobytes() == b.scores.tobytes()
        assert (a.cluster_faults, a.hub_reads, a.truncated) == (
            b.cluster_faults, b.hub_reads, b.truncated)
    assert pooled_graph.faults <= 4  # each cluster at most once
    assert pooled_graph.faults < paper_graph.faults
    assert pooled_ppv.reads < paper_ppv.reads


# --------------------------------------------------------------------- #
# A store's block holds the hubs its pool holds


def _pooled_engine(deployment, capacity: int):
    pool = StoredBytes(capacity)
    graph_store = DiskGraphStore.open(deployment / "c", pool=pool)
    store = DiskPPVStore(deployment / "i.fppv", pool=pool)
    return DiskFastPPV(graph_store, store, delta=1e-4), store


def _served(result) -> tuple:
    return (result.scores.tobytes(), result.error_history, result.hub_reads,
            result.cluster_faults, result.truncated, result.work_units)


_STOPS = (StopAfterIterations(2), StopAfterIterations(5), StopAtL1Error(0.2))


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.sampled_from(["nothing", "one record", "default"]),
    batches=st.lists(
        st.tuples(
            st.lists(st.tuples(st.booleans(), st.integers(0, 399)),
                     min_size=1, max_size=6),
            st.sampled_from(_STOPS),
        ),
        min_size=1, max_size=5,
    ),
)
def test_a_long_lived_block_serves_what_a_fresh_engine_serves(
    deployment, capacity, batches
):
    """Whatever the pool evicts between batches, each batch serves the
    bits and I/O record of a fresh engine, and after a trim the block's
    rows are exactly the pool's hub entries: their bytes are the
    records', and the block allocates at most four times that (doubling
    slack, dropped rows not yet compacted)."""
    with DiskPPVStore(deployment / "i.fppv") as probe:
        sizes = {
            hub: 16 * (entries + borders)
            for hub, (_, entries, borders) in probe._directory.items()
        }
    hubs = sorted(sizes)
    capacity = {"nothing": 0, "one record": max(sizes.values()),
                "default": DEFAULT_MEMORY_BYTES}[capacity]
    engine, store = _pooled_engine(deployment, capacity)
    with store:
        for picks, stop in batches:
            nodes = [hubs[n % len(hubs)] if hub else n for hub, n in picks]
            got = engine.query_many(nodes, stop=stop)
            fresh, fresh_store = _pooled_engine(deployment, capacity)
            with fresh_store:
                want = fresh.query_many(nodes, stop=stop)
            assert list(map(_served, got)) == list(map(_served, want))
            store.trim()
            block, held = store.block, np.flatnonzero(store.held).tolist()
            assert block.hubs.tolist() == held
            live = sum(
                view.size for hub in held for view in block.prime_of(hub)[::2]
            )
            assert 16 * live == sum(sizes[hub] for hub in held)
            allocated = block._scores._indices.size + block._borders._indices.size
            assert allocated <= 4 * live


def test_a_warm_batch_trims_without_a_scan(deployment, small_social,
                                           monkeypatch):
    """A batch after which the pool evicted none of the store's hubs
    leaves the next trim nothing to do: it never lists the block's hubs.
    Once the pool does evict one, the trim scans and drops it."""
    engine, store = _pooled_engine(deployment, DEFAULT_MEMORY_BYTES)
    hubs = store.hubs.tolist()
    scans = []
    listed = type(store.block).hubs
    monkeypatch.setattr(
        type(store.block), "hubs",
        property(lambda block: scans.append(1) or listed.fget(block)),
    )
    with store:
        nodes = list(range(0, small_social.num_nodes, 7))
        cold = engine.query_many(nodes)
        assert store.pool.evicted(store._kind) == 0
        scans.clear()
        warm = engine.query_many(nodes)
        assert scans == []
        assert list(map(_served, warm)) == list(map(_served, cold))
        store.pool.put(store.pool.kind("x"), 0, "big", store.pool.capacity)
        store.trim()
        assert scans and store.block.hubs.size == 0
        assert not np.any(store.held[hubs])


def test_a_dropped_hub_read_back_damaged_is_refused(
    deployment, small_social, tmp_path
):
    """A drop clears the hub's checked flag: a hub the rounds checked,
    evicted and then read back from a damaged record is refused, not
    spliced on the strength of the old row's check."""
    path = tmp_path / "i.fppv"
    shutil.copy(deployment / "i.fppv", path)
    graph_store = DiskGraphStore.open(deployment / "c")
    with DiskPPVStore(path, pool=StoredBytes(0)) as store:
        engine = DiskFastPPV(graph_store, store, delta=0.0)
        query = next(q for q in range(small_social.num_nodes) if q not in store)
        engine.query(query)
        hub = next(
            hub for hub in store.block.hubs.tolist()
            if store.block._checked[hub] and not store.held[hub]
            and store._directory[hub][1]
        )
        with open(path, "r+b") as handle:  # the record's first node id
            handle.seek(store._directory[hub][0])
            handle.write((small_social.num_nodes + 5).to_bytes(8, "little"))
        with pytest.raises(ValueError, match=f"prime PPV of hub {hub} names"):
            engine.query(query)


# --------------------------------------------------------------------- #
# Refused bytes never enter the pool


def test_a_corrupt_segment_is_refused_at_every_request(deployment, tmp_path):
    directory = tmp_path / "c"
    shutil.copytree(deployment / "c", directory)
    path = directory / "cluster_00001.seg"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    store = DiskGraphStore.open(directory)
    for attempt in range(1, 3):
        with pytest.raises(ValueError, match="corrupt cluster segment"):
            store.resident_cluster(1)
        assert store.bytes_read == attempt * len(data)  # read again
        assert store.pool.keys() == [] and store.resident_flags[1] == 0
    assert store.faults == 0


def test_a_truncated_record_is_refused_at_every_request(
    deployment, small_social_index, tmp_path
):
    whole = (deployment / "i.fppv").read_bytes()
    cut = tmp_path / "cut.fppv"
    cut.write_bytes(whole[:-8])  # the last record loses a word
    last = int(small_social_index.hubs[-1])
    with DiskPPVStore(cut) as store:
        for attempt in range(1, 3):
            with pytest.raises(ValueError, match=f"hub {last}: .* payload bytes"):
                store.get_many([last])
            assert store.reads == attempt
            assert store.pool.keys() == []
        # Every other record still serves, and is remembered.
        store.get_many([int(small_social_index.hubs[0])])
        assert len(store.pool.keys()) == 1
