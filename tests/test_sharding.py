"""End-to-end behaviour of sharded serving (:mod:`repro.sharding`).

The acceptance bar mirrors the server suite's: results served through a
:class:`ShardRouter` must be **bitwise equal** to the unsharded disk
backend — plain multi-eta queries, certified top-k, weighted multi-node
splices — under eight concurrent clients, at one, two and three shards.
Plus the partitioner's own contracts, failure semantics (SIGKILL one
shard: structured ``shard_unavailable``, never a hang; survivors and
the front-end keep serving), rolling hot swap across the fleet, and
the router's stats aggregation.
"""

from __future__ import annotations

import base64
import json
import threading
import time

import numpy as np
import pytest

from oracles import clusters_pool
from repro import build_index, select_hubs
from repro.core.query import StopAfterIterations
from repro.server import (
    PPVClient,
    PPVServer,
    ServerConfig,
    ServerError,
    ServerPool,
    protocol,
)
from repro.obs import Histogram
from repro.serving import PPVService, QuerySpec
from repro.sharding import (
    ShardEngine,
    ShardRouter,
    assign_clusters,
    load_shard_map,
    partition_index,
    shard_dir_name,
    shard_service_factory,
)
from repro.storage import (
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    cluster_graph,
    save_index,
)

QUERY_NODES = [3, 7, 11, 19, 23, 42, 57, 99, 123, 222, 301, 388]
TOPK_NODES = [7, 42, 99, 301]


@pytest.fixture(scope="module")
def certifiable_index(small_social):
    """clip=0 so top-k certificates can actually fire."""
    hubs = select_hubs(small_social, num_hubs=40)
    return build_index(small_social, hubs, clip=0.0, epsilon=1e-6)


@pytest.fixture(scope="module")
def sharded_setup(small_social, small_social_index, certifiable_index,
                  tmp_path_factory):
    """Partition roots at 1, 2 and 3 shards, plus the matching unsharded
    disk deployment (same cluster assignment, so the kernels see the
    same segmentation either way)."""
    root = tmp_path_factory.mktemp("sharding")
    assignment = cluster_graph(small_social, 6, seed=1)
    index_path = root / "index.fppv"
    save_index(certifiable_index, index_path)
    index_b_path = root / "index_b.fppv"
    save_index(small_social_index, index_b_path)
    store_dir = root / "clusters"
    DiskGraphStore(small_social, assignment, store_dir)
    parts = {}
    for num_shards in (1, 2, 3):
        part_root = root / f"part{num_shards}"
        partition_index(
            small_social, certifiable_index, num_shards, part_root,
            assignment=assignment,
        )
        parts[num_shards] = part_root
    part_b = root / "part2b"  # a second 2-shard partition, for swaps
    partition_index(
        small_social, small_social_index, 2, part_b, assignment=assignment
    )
    return {
        "root": root,
        "assignment": assignment,
        "index_path": index_path,
        "index_b_path": index_b_path,
        "store_dir": store_dir,
        "parts": parts,
        "part_b": part_b,
    }


def _workload():
    """The specs every equivalence run serves, in order."""
    stop = StopAfterIterations(2)
    specs = [QuerySpec(node, stop=stop) for node in QUERY_NODES]
    specs += [QuerySpec(node, top_k=5) for node in TOPK_NODES]
    specs.append(QuerySpec((3, 9), weights=(2.0, 1.0)))
    return specs


def _reference_payloads(setup, index_path, top=20):
    """The unsharded disk deployment's rendered payloads (bitwise bar)."""
    graph_store = DiskGraphStore.open(setup["store_dir"])
    with PPVService.open(
        str(index_path), backend="disk", graph_store=graph_store,
        delta=0.0, cache_size=0,
    ) as service:
        specs = _workload()
        results = service.query_many(specs)
        return [
            protocol.render_result(spec, result, top=top)
            for spec, result in zip(specs, results)
        ]


# --------------------------------------------------------------------- #
# The offline partitioner


class TestPartitioner:
    def test_assign_clusters_is_lpt(self):
        # Largest first, least-loaded shard, lowest id on ties.
        assert assign_clusters([3, 1, 1, 1], 2) == [0, 1, 1, 1]
        assert assign_clusters([5, 4, 3, 3, 1], 2) == [0, 1, 1, 0, 1]

    def test_assign_clusters_deterministic_and_total(self):
        sizes = [7, 2, 9, 4, 4, 1, 6, 3]
        first = assign_clusters(sizes, 3)
        assert first == assign_clusters(sizes, 3)
        assert len(first) == len(sizes)
        assert set(first) == {0, 1, 2}  # every shard gets work

    def test_assign_clusters_bounds(self):
        with pytest.raises(ValueError):
            assign_clusters([1, 2], 0)
        with pytest.raises(ValueError):
            assign_clusters([1, 2], 3)  # more shards than clusters

    def test_partition_rejects_oversharding(self, small_social,
                                            certifiable_index, tmp_path,
                                            sharded_setup):
        with pytest.raises(ValueError):
            partition_index(
                small_social, certifiable_index, 7, tmp_path / "over",
                assignment=sharded_setup["assignment"],
            )

    def test_manifest_roundtrip_covers_everything(self, sharded_setup,
                                                  certifiable_index):
        for num_shards, part_root in sharded_setup["parts"].items():
            manifest = load_shard_map(part_root)
            assert manifest["num_shards"] == num_shards
            assert manifest["num_nodes"] == 400
            assert len(manifest["shards"]) == num_shards
            hubs: list[int] = []
            clusters: list[int] = []
            nodes = 0
            for shard, entry in enumerate(manifest["shards"]):
                assert entry["shard"] == shard
                assert (part_root / entry["dir"] / "index.fppv").exists()
                hubs.extend(entry["hubs"])
                clusters.extend(entry["clusters"])
                nodes += entry["nodes"]
            # Disjoint, exhaustive: every hub and cluster owned once.
            assert sorted(hubs) == sorted(
                int(h) for h in np.nonzero(certifiable_index.hub_mask)[0]
            )
            assert sorted(clusters) == list(range(manifest["num_clusters"]))
            assert nodes == 400
            # The per-cluster ownership table agrees with the listings.
            for shard, entry in enumerate(manifest["shards"]):
                for cluster in entry["clusters"]:
                    assert manifest["cluster_shards"][cluster] == shard

    def test_shard_dirs_are_ordinary_stores(self, sharded_setup):
        part_root = sharded_setup["parts"][2]
        manifest = load_shard_map(part_root)
        entry = manifest["shards"][0]
        hub = entry["hubs"][0]
        with DiskPPVStore(part_root / entry["dir"] / "index.fppv") as sub:
            with DiskPPVStore(sharded_setup["index_path"]) as full:
                assert sorted(sub.hubs.tolist()) == sorted(entry["hubs"])
                assert sub.num_nodes == full.num_nodes
                # A shard's entry is byte-for-byte the full index's.
                ours, theirs = sub.get(hub), full.get(hub)
                assert np.array_equal(ours.nodes, theirs.nodes)
                assert np.array_equal(ours.scores, theirs.scores)
                assert np.array_equal(ours.border_hubs, theirs.border_hubs)
                assert np.array_equal(
                    ours.border_masses, theirs.border_masses
                )
        graph_store = DiskGraphStore.open(part_root / entry["dir"] / "graph")
        owned = entry["clusters"][0]
        foreign = manifest["shards"][1]["clusters"][0]
        assert graph_store.cluster_arrays(owned)["nodes"].size > 0
        with pytest.raises(ValueError, match="not stored here"):
            graph_store.cluster_arrays(foreign)

    def test_load_shard_map_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_shard_map(tmp_path)
        (tmp_path / "shard_map.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "num_shards": 1,
                    "shards": [{"shard": 0, "dir": shard_dir_name(0)}],
                }
            )
        )
        with pytest.raises(ValueError):
            load_shard_map(tmp_path)  # named shard dir does not exist


# --------------------------------------------------------------------- #
# Bitwise equivalence under concurrency (the tentpole's acceptance bar)


class TestOnTheFlyPartition:
    """``ShardRouter.partitioning`` — what ``serve --shards N`` runs."""

    def test_temp_root_lives_until_stop(self, small_social,
                                        small_social_index):
        router = ShardRouter.partitioning(
            small_social, small_social_index, 2, seed=1, delta=0.0,
        )
        root = router.root
        assert load_shard_map(root)["num_clusters"] == 8  # max(8, 2 * 2)
        with router as address:
            with PPVClient(*address, timeout=60) as client:
                assert client.query(7, eta=2)["iterations"] == 2
        assert not root.exists()

    def test_named_root_is_kept(self, small_social, small_social_index,
                                tmp_path):
        router = ShardRouter.partitioning(
            small_social, small_social_index, 2,
            root=tmp_path / "parts", num_clusters=5,
        )
        router.stop()
        assert load_shard_map(tmp_path / "parts")["num_clusters"] == 5

    def test_failed_partition_leaves_no_temp_root(self, small_social,
                                                  small_social_index,
                                                  monkeypatch, tmp_path):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ValueError, match="cannot split"):
            ShardRouter.partitioning(
                small_social, small_social_index, 9, num_clusters=4
            )
        assert list(tmp_path.iterdir()) == []


class TestShardedEquivalence:
    def _hammer(self, address, per_client_specs, top):
        """One thread per client; returns {client: [result payloads]}."""
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def client_main(client_id: int, specs) -> None:
            try:
                with PPVClient(*address, timeout=60) as client:
                    payloads = []
                    for spec in specs:
                        if spec.top_k is not None:
                            payloads.append(
                                client.query(
                                    spec.nodes[0], top_k=spec.top_k,
                                    budget=spec.top_k_budget, top=top,
                                )
                            )
                        else:
                            nodes = (
                                list(spec.nodes)
                                if spec.is_multi
                                else spec.nodes[0]
                            )
                            kwargs = (
                                {"weights": list(spec.weights)}
                                if spec.is_multi
                                else {}
                            )
                            payloads.append(
                                client.query(nodes, eta=2, top=top, **kwargs)
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
            thread.join(timeout=120)
        assert not errors, errors
        return results

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_eight_clients_bitwise_equal_to_unsharded(self, sharded_setup,
                                                      num_shards):
        expected = _reference_payloads(
            sharded_setup, sharded_setup["index_path"]
        )
        specs = _workload()
        with ShardRouter(
            sharded_setup["parts"][num_shards], delta=0.0, cache_size=0
        ) as address:
            results = self._hammer(
                address, [list(specs) for _ in range(8)], top=20
            )
        assert len(results) == 8
        for payloads in results.values():
            # JSON round-trips floats exactly: dict equality is bitwise
            # score equality — certified top-k and splices included.
            assert payloads == expected
        # At least one certificate actually fired (clip=0 index, delta=0)
        # so the certified path is genuinely exercised end to end.
        certified = [p for p in expected if "certified" in p]
        assert len(certified) == len(TOPK_NODES)
        assert any(p["certified"] for p in certified)


class TestRemoteResidency:
    @pytest.mark.parametrize("budget", [1, 4])
    def test_router_fetches_what_a_local_store_faults(self, sharded_setup,
                                                      budget):
        """One wave rule for both stores: the same batch stream through
        a router and through a local disk engine, each over one pool of
        ``budget`` largest clusters, fetches exactly what the local store
        faults, and serves the same bits."""
        stop = StopAfterIterations(2)
        nodes = np.random.default_rng(5).permutation(400)[:48].tolist()
        stream = [nodes[i:i + 12] for i in range(0, 48, 12)]
        pool = clusters_pool(DiskGraphStore.open(sharded_setup["store_dir"]), budget)
        local_store = DiskGraphStore.open(sharded_setup["store_dir"], pool=pool)
        # One pool for both stores, as the router's.
        with DiskPPVStore(sharded_setup["index_path"], pool=pool) as ppv_store:
            local = DiskFastPPV(local_store, ppv_store, delta=0.0)
            expected = [local.query_many(batch, stop=stop) for batch in stream]
        router = ShardRouter(
            sharded_setup["parts"][2], delta=0.0, cache_size=0,
            memory_bytes=pool.capacity,
        )
        with router:
            engine = router.service.engine
            served = [engine.query_batch(batch, stop) for batch in stream]
            fetches = sum(engine.graph_store.shard_fetches)
        assert fetches == local_store.faults > 0
        for ours, theirs in zip(sum(served, []), sum(expected, [])):
            np.testing.assert_array_equal(ours.scores, theirs.scores)
            assert ours.cluster_faults == theirs.cluster_faults


# --------------------------------------------------------------------- #
# Role separation on the wire


class TestRoleSeparation:
    def test_shard_refuses_queries_and_serves_fetches(self, sharded_setup):
        part_root = sharded_setup["parts"][2]
        manifest = load_shard_map(part_root)
        entry = manifest["shards"][0]
        pool = ServerPool(
            shard_service_factory(part_root / entry["dir"]),
            workers=1,
            config=ServerConfig(port=0),
        )
        try:
            address = pool.start()
            with PPVClient(*address, timeout=15) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query(3, eta=2)
                assert excinfo.value.code == protocol.E_UNSUPPORTED_FAMILY
                hub = entry["hubs"][0]
                payload = client.fetch_hubs([hub])
                record = payload[str(hub)]
                assert record["entries"] > 0
                assert len(base64.b64decode(record["payload"])) == 16 * (
                    record["entries"] + record["borders"]
                )
                # Hubs and clusters owned elsewhere are refused, not 404'd
                # into a hang.
                foreign_hub = manifest["shards"][1]["hubs"][0]
                with pytest.raises(ServerError) as excinfo:
                    client.fetch_hubs([foreign_hub])
                assert excinfo.value.code == protocol.E_INVALID
                foreign_cluster = manifest["shards"][1]["clusters"][0]
                with pytest.raises(ServerError) as excinfo:
                    client.fetch_cluster(foreign_cluster)
                assert excinfo.value.code == protocol.E_INVALID
                info = client.shard_info()
                assert info["shard"] == 0
                assert info["num_shards"] == 2
        finally:
            pool.stop()

    def test_shard_advertises_no_family(self, sharded_setup):
        # A shard has no query methods, so the family probe finds none:
        # stats says so, and every query or stream is refused at
        # admission instead of reaching the drain thread.
        part_root = sharded_setup["parts"][2]
        entry = load_shard_map(part_root)["shards"][0]
        engine = ShardEngine(part_root / entry["dir"])
        with PPVService(engine, cache_size=0) as service:
            assert service.families() == ()
            with PPVServer(service).background() as address:
                with PPVClient(*address, timeout=15) as client:
                    assert client.stats()["families"] == []
                    for call in (
                        lambda: client.query(3, eta=2),
                        lambda: client.query([3, 7], weights=[1.0, 2.0]),
                        lambda: client.query(3, top_k=5),
                        lambda: list(client.stream(3, top_k=5)),
                        lambda: list(client.stream(3, eta=2)),
                    ):
                        with pytest.raises(ServerError) as excinfo:
                            call()
                        assert (
                            excinfo.value.code == protocol.E_UNSUPPORTED_FAMILY
                        )
                    assert client.shard_info()["shard"] == 0

    def test_plain_server_refuses_fetch_verbs(self, small_social,
                                              small_social_index):
        with PPVService.open(
            small_social_index, graph=small_social
        ) as service:
            server = PPVServer(service)
            with server.background() as address:
                with PPVClient(*address, timeout=15) as client:
                    for call in (
                        lambda: client.fetch_hubs([0]),
                        lambda: client.fetch_cluster(0),
                        lambda: client.shard_info(),
                    ):
                        with pytest.raises(ServerError) as excinfo:
                            call()
                        assert excinfo.value.code == protocol.E_INVALID


# --------------------------------------------------------------------- #
# Failure semantics: SIGKILL one shard


class TestShardKill:
    def test_dead_shard_is_structured_not_a_hang(self, sharded_setup):
        """Kill one shard; traffic that needs it gets ``shard_unavailable``
        promptly, and the router front-end stays responsive."""
        router = ShardRouter(
            sharded_setup["parts"][2], timeout=1.5, delta=0.0,
            cache_size=0, memory_bytes=0,
        )
        with router as address:
            manifest = router.manifest
            dead_hub = manifest["shards"][1]["hubs"][0]
            with PPVClient(*address, timeout=60) as client:
                assert client.query(dead_hub, eta=2)["top"]
                router.pools[1].kill()
                started = time.monotonic()
                with pytest.raises(ServerError) as excinfo:
                    client.query(dead_hub, eta=2)
                elapsed = time.monotonic() - started
                assert excinfo.value.code == protocol.E_SHARD_UNAVAILABLE
                assert elapsed < 20  # bounded by the fleet timeout, not a hang
                # The connection and the front-end both survive.
                assert client.ping()
                stats = client.stats()
                assert "error" in stats["shards"]
                # A rolling swap cannot complete either — but it fails
                # structurally too.
                with pytest.raises(ServerError) as excinfo:
                    client.swap_index(str(sharded_setup["parts"][2]))
                assert excinfo.value.code == protocol.E_SHARD_UNAVAILABLE

    def test_survivors_keep_serving_after_kill(self, sharded_setup):
        """With router-side residency, queries keep resolving bitwise-
        correct after a shard dies — the fleet degrades, not the data
        it already holds."""
        expected = _reference_payloads(
            sharded_setup, sharded_setup["index_path"]
        )[: len(QUERY_NODES)]
        router = ShardRouter(
            sharded_setup["parts"][2], timeout=1.5, delta=0.0, cache_size=0
        )
        with router as address:
            with PPVClient(*address, timeout=60) as client:
                before = [
                    client.query(node, eta=2, top=20)
                    for node in QUERY_NODES
                ]
                assert before == expected
                router.pools[0].kill()
                after = [
                    client.query(node, eta=2, top=20)
                    for node in QUERY_NODES
                ]
                assert after == expected
                assert client.ping()


# --------------------------------------------------------------------- #
# Rolling hot swap across the fleet


class TestRollingSwap:
    def test_swap_rolls_all_shards_and_serves_new_index(self, sharded_setup):
        expected_a = _reference_payloads(
            sharded_setup, sharded_setup["index_path"]
        )
        expected_b = _reference_payloads(
            sharded_setup, sharded_setup["index_b_path"]
        )
        specs = _workload()
        plain = [
            (i, spec.nodes[0])
            for i, spec in enumerate(specs)
            if spec.top_k is None and not spec.is_multi
        ]
        # A and B store different bytes for a hub both hold, so a router
        # serving a record of A after the swap would fail below.
        with DiskPPVStore(sharded_setup["index_path"]) as a, \
                DiskPPVStore(sharded_setup["index_b_path"]) as b:
            assert any(
                a.read_record(hub) != b.read_record(hub)
                for hub in set(a.hubs.tolist()) & set(b.hubs.tolist())
            )
        with ShardRouter(
            sharded_setup["parts"][2], delta=0.0, cache_size=0
        ) as address:
            with PPVClient(*address, timeout=60) as client:
                for i, node in plain:
                    assert client.query(node, eta=2, top=20) == expected_a[i]
                reply = client.swap_index(str(sharded_setup["part_b"]))
                assert reply["swapped"] is True
                for i, node in plain:
                    assert client.query(node, eta=2, top=20) == expected_b[i]
                # Swapping back restores the first generation exactly.
                client.swap_index(str(sharded_setup["parts"][2]))
                for i, node in plain:
                    assert client.query(node, eta=2, top=20) == expected_a[i]

    def test_each_bootstrap_shares_one_fresh_pool(self, sharded_setup):
        """The router's two remote stores share one pool of stored
        bytes, and a swap re-bootstraps them over a new, empty one."""
        router = ShardRouter(sharded_setup["parts"][2], delta=0.0, cache_size=0)
        with router as address:
            engine = router.service.engine
            with PPVClient(*address, timeout=60) as client:
                for node in QUERY_NODES[:4]:
                    client.query(node, eta=2)
                pool = engine.graph_store.pool
                assert engine.ppv_store.pool is pool
                assert {kind[0] for kind, _ in pool.keys()} == {"cluster", "hub"}
                client.swap_index(str(sharded_setup["part_b"]))
                assert engine.ppv_store.pool is engine.graph_store.pool
                assert engine.graph_store.pool is not pool
                assert engine.graph_store.pool.keys() == []

    def test_swap_refuses_mismatched_shard_count(self, sharded_setup):
        with ShardRouter(
            sharded_setup["parts"][2], delta=0.0, cache_size=0
        ) as address:
            with PPVClient(*address, timeout=60) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.swap_index(str(sharded_setup["parts"][3]))
                assert excinfo.value.code == protocol.E_INVALID
                # Still serving the original partition afterwards.
                assert client.query(QUERY_NODES[0], eta=2)["top"]


# --------------------------------------------------------------------- #
# Stats aggregation


class TestStatsAggregation:
    def test_latency_histogram_merge(self):
        first, second = Histogram(), Histogram()
        first.record(0.001)
        first.record(0.2)
        second.record(0.001)
        merged = Histogram.merge(
            [first.snapshot(), second.snapshot()]
        )
        assert merged["count"] == 3
        assert sum(merged["counts"]) == 3
        assert merged["total_seconds"] == pytest.approx(0.202)
        assert merged["bounds"] == first.snapshot()["bounds"]

    def test_latency_histogram_merge_empty_and_mismatched(self):
        empty = Histogram.merge([])
        assert empty["count"] == 0
        assert sum(empty["counts"]) == 0
        odd = Histogram(bounds=(0.5, 1.0)).snapshot()
        with pytest.raises(ValueError, match="different"):
            Histogram.merge([Histogram().snapshot(), odd])

    def test_router_stats_aggregate_the_fleet(self, sharded_setup):
        with ShardRouter(
            sharded_setup["parts"][2], delta=0.0, cache_size=0
        ) as address:
            with PPVClient(*address, timeout=60) as client:
                for node in QUERY_NODES:
                    client.query(node, eta=2)
                stats = client.stats()
        shards = stats["shards"]
        assert shards["num_shards"] == 2
        assert len(shards["per_shard"]) == 2
        total_fetches = 0
        for shard, entry in enumerate(shards["per_shard"]):
            assert entry["shard"] == shard
            assert entry["worker"]["index"] == 0
            assert entry["requests_total"] >= 1
            assert entry["latency"]["count"] == sum(entry["latency"]["counts"])
            total_fetches += entry["hub_fetches"] + entry["cluster_fetches"]
        assert total_fetches > 0
        merged = shards["latency"]
        assert merged["count"] == sum(
            entry["latency"]["count"] for entry in shards["per_shard"]
        )
        assert shards["fetch_balance"] >= 1.0
        # The router's own serving stats ride alongside, unchanged.
        assert stats["service"]["latency"]["count"] >= len(QUERY_NODES)
