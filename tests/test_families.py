"""The query-family registry: served ``hitting``/``reachability``
equivalence against the direct :mod:`repro.core` calls, family-tagged
wire round-trips, the structured ``unsupported_family`` error on the
TCP server and the shard router, family-isolated popularity caching,
and the per-family stats break-out."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StopAfterIterations, build_index, select_hubs, social_graph
from repro.core.hitting import DEFAULT_BETA, HittingEstimate, scheduled_hitting
from repro.core.query import QueryResult
from repro.core.reachability import ReachabilityResult, reachability_query
from repro.serving import (
    PPVService,
    QueryFamily,
    QuerySpec,
    UnsupportedFamilyError,
    available_families,
    register_family,
    resolve_family,
    supported_families,
)
from repro.serving.families import (
    _FAMILIES,
    MAX_SERVED_HITTING_LEVELS,
    MAX_SERVED_HITTING_ROUNDS,
    MAX_SERVED_TOUR_LENGTH,
)
from repro.server import PPVClient, PPVServer, ServerError, protocol
from repro.sharding import ShardRouter, partition_index
from repro.storage import DiskGraphStore, cluster_graph, save_index


@pytest.fixture()
def memory_service(small_social, small_social_index):
    with PPVService.open(
        small_social_index, graph=small_social, delta=1e-4
    ) as service:
        yield service


@pytest.fixture(scope="module")
def disk_setup(small_social, small_social_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("families_disk")
    index_path = root / "index.fppv"
    save_index(small_social_index, index_path)
    assignment = cluster_graph(small_social, 5, seed=1)
    store_dir = root / "clusters"
    DiskGraphStore(small_social, assignment, store_dir)
    return index_path, store_dir


@pytest.fixture()
def disk_service(disk_setup):
    index_path, store_dir = disk_setup
    graph_store = DiskGraphStore.open(store_dir)
    with PPVService.open(
        str(index_path), backend="disk", graph_store=graph_store, delta=0.0
    ) as service:
        yield service


@pytest.fixture(scope="module")
def shard_root(small_social, small_social_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("families_shards")
    assignment = cluster_graph(small_social, 6, seed=1)
    part_root = root / "part2"
    partition_index(
        small_social, small_social_index, 2, part_root,
        assignment=assignment,
    )
    return part_root


def _count_pushed_sources(monkeypatch) -> list[int]:
    """Every source node the hitting family hands to the push kernel
    from here on, in order (the PPV families import their own name)."""
    from repro.core import hitting

    pushed: list[int] = []
    prime_push_many = hitting.prime_push_many

    def counting(graph, sources, *args, **kwargs):
        pushed.extend(int(source) for source in sources)
        return prime_push_many(graph, sources, *args, **kwargs)

    monkeypatch.setattr(hitting, "prime_push_many", counting)
    return pushed


def _direct_hitting(small_social, small_social_index, node, target,
                    **overrides):
    """The family's defaults, called straight into repro.core."""
    kwargs = dict(beta=DEFAULT_BETA, max_levels=16, epsilon=1e-9, delta=0.0)
    kwargs.update(overrides)
    return scheduled_hitting(
        small_social, node, target, small_social_index.hub_mask, **kwargs
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_families()) >= {
            "ppv", "top_k", "hitting", "reachability"
        }
        assert resolve_family("hitting").name == "hitting"
        assert not resolve_family("hitting").streamable
        assert resolve_family("ppv").streamable

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown query family"):
            resolve_family("nope")

    def test_unknown_family_through_service(self, memory_service):
        with pytest.raises(ValueError, match="unknown query family"):
            memory_service.query(QuerySpec(3, family="nope"))

    def test_register_custom_family_gets_full_stack(self, memory_service):
        class DegreeFamily(QueryFamily):
            name = "degree"

            def run_group(self, engine, family_key, members):
                return [
                    int(engine.graph.out_degree(task.node))
                    for _spec, task in members
                ]

            def encode_result(self, spec, result, top):
                return {
                    "family": self.name,
                    "nodes": list(spec.nodes),
                    "degree": int(result),
                }

        register_family(DegreeFamily())
        try:
            spec = QuerySpec(5, family="degree")
            result = memory_service.query(spec)
            graph = memory_service.engine.graph
            assert result == int(graph.out_degree(5))
            # Wire codec rides along for free.
            decoded = protocol.spec_from_request(
                {"node": 5, "family": "degree"}
            )
            assert decoded.family == "degree"
            payload = protocol.render_result(spec, result, top=3)
            assert payload == {"family": "degree", "nodes": [5],
                               "degree": result}
            assert "degree" in memory_service.families()
        finally:
            _FAMILIES.pop("degree", None)

    def test_register_needs_a_name(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register_family(QueryFamily())


class TestServedEquivalence:
    """Served family results are the direct repro.core calls' results."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_hitting_matches_direct_call(self, data, small_social,
                                         small_social_index, memory_service):
        num_nodes = small_social.num_nodes
        node = data.draw(st.integers(0, num_nodes - 1), label="node")
        target = data.draw(st.integers(0, num_nodes - 1), label="target")
        served = memory_service.query(
            QuerySpec(node, family="hitting", params={"target": target})
        )
        direct = _direct_hitting(
            small_social, small_social_index, node, target
        )
        assert isinstance(served, HittingEstimate)
        assert served.value == direct.value
        assert served.remaining_mass == direct.remaining_mass
        assert served.iterations == direct.iterations
        assert served.history == direct.history

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_reachability_matches_direct_call(self, data, small_social,
                                              memory_service):
        num_nodes = small_social.num_nodes
        node = data.draw(st.integers(0, num_nodes - 1), label="node")
        max_length = data.draw(st.integers(0, 4), label="max_length")
        served = memory_service.query(
            QuerySpec(node, family="reachability",
                      params={"max_length": max_length})
        )
        direct = reachability_query(small_social, node, max_length)
        assert isinstance(served, ReachabilityResult)
        np.testing.assert_array_equal(served.scores, direct.scores)
        assert served.truncation_bound == direct.truncation_bound
        assert served.max_length == direct.max_length

    def test_coalesced_hitting_group_stays_bitwise(self, small_social,
                                                   small_social_index,
                                                   memory_service):
        """Same-target specs share one push cache in a coalesced group;
        sharing must not change a single bit of any member's answer."""
        nodes = [3, 17, 42, 99, 3]
        served = memory_service.query_many(
            [
                QuerySpec(n, family="hitting", params={"target": 7})
                for n in nodes
            ]
        )
        for node, result in zip(nodes, served):
            direct = _direct_hitting(
                small_social, small_social_index, node, 7
            )
            assert result.value == direct.value
            assert result.remaining_mass == direct.remaining_mass
            assert result.history == direct.history

    def test_coalesced_hitting_group_pushes_each_hub_once(
        self, small_social, small_social_index, monkeypatch
    ):
        """What coalescing buys the family, as a count: a same-target
        group hands each distinct hub to ``prime_push_many`` once, where
        one-at-a-time serving pushes from it again per query."""
        pushed = _count_pushed_sources(monkeypatch)
        specs = [
            QuerySpec(
                node, family="hitting",
                params={"target": 7, "epsilon": 1e-3},  # cheap pushes
            )
            for node in (3, 17, 42, 99)
        ]
        with PPVService.open(
            small_social_index, graph=small_social, cache_size=0
        ) as service:
            service.query_many(specs)
            coalesced = len(pushed)
            # Alone, a query pushes from its own node, then once per hub
            # its frontier reaches.
            hub_pushes = []
            for spec in specs:
                pushed.clear()
                service.query(spec)
                assert pushed[0] == spec.nodes[0]
                hub_pushes.append(pushed[1:])
        distinct = set().union(*hub_pushes)
        assert coalesced == len(specs) + len(distinct)
        assert len(distinct) < sum(map(len, hub_pushes))

    def test_coalesced_group_of_four_equals_isolated_queries(
        self, small_social, small_social_index
    ):
        """Bitwise, through the service both times: fails if a push's
        batch composition (so its summation order) ever depends on which
        other pushes the group needed."""
        specs = [
            QuerySpec(node, family="hitting", params={"target": 7})
            for node in (3, 17, 42, 99)
        ]
        with PPVService.open(
            small_social_index, graph=small_social, cache_size=0
        ) as service:
            coalesced = service.query_many(specs)
            isolated = [service.query(spec) for spec in specs]
        for together, alone in zip(coalesced, isolated):
            assert together.value == alone.value
            assert together.remaining_mass == alone.remaining_mass
            assert together.iterations == alone.iterations
            assert together.history == alone.history

    def test_hitting_parameter_overrides_are_honoured(self, small_social,
                                                      small_social_index,
                                                      memory_service):
        served = memory_service.query(
            QuerySpec(9, family="hitting",
                      params={"target": 4, "beta": 0.5, "max_levels": 6})
        )
        direct = _direct_hitting(
            small_social, small_social_index, 9, 4, beta=0.5, max_levels=6
        )
        assert served.value == direct.value
        assert served.iterations == direct.iterations


class TestDrainThread:
    """A slow family cannot sit on the service's one drain thread: before
    ``hitting`` rode ``prime_push_many`` this cold request held it for
    65 s (ISSUE 23), with every request behind it waiting."""

    def test_cold_hitting_with_eight_ppv_requests_behind_it(self, monkeypatch):
        graph = social_graph(num_nodes=4000, seed=11)  # the ledger's shape
        index = build_index(graph, select_hubs(graph, 400))
        pushed = _count_pushed_sources(monkeypatch)
        with PPVService.open(index, graph=graph, cache_size=0) as service:
            started = time.perf_counter()
            hitting = service.submit(
                QuerySpec(5, family="hitting", params={"target": 17})
            )
            behind = [service.submit(QuerySpec(node)) for node in range(100, 108)]
            estimate = hitting.result(timeout=120)
            cold_seconds = time.perf_counter() - started
            results = [handle.result(timeout=120) for handle in behind]
        assert estimate.iterations == 16
        assert 0.0 < estimate.value < estimate.value + estimate.remaining_mass < 1.0
        assert [result.query for result in results] == list(range(100, 108))
        # The work bound is a count: the query's own push, then each hub
        # at most once, whatever the sixteen levels reach.
        assert pushed[0] == 5 and len(pushed) <= 400 + 1
        assert len(set(pushed[1:])) == len(pushed) - 1
        assert index.hub_mask[pushed[1:]].all()
        # The one clock: generous for the numpy rounds (3.5 s measured,
        # 0.7 s compiled), far under what the dict push needed.
        assert cold_seconds < 15.0


class TestValidation:
    def test_hitting_needs_target(self, memory_service):
        with pytest.raises(ValueError, match='needs a "target"'):
            memory_service.query(QuerySpec(3, family="hitting"))

    def test_hitting_is_single_node(self, memory_service):
        with pytest.raises(ValueError, match="single query node"):
            memory_service.query(
                QuerySpec((3, 4), family="hitting", params={"target": 5})
            )

    def test_hitting_target_range_checked(self, memory_service):
        with pytest.raises(ValueError, match="out of range"):
            memory_service.query(
                QuerySpec(3, family="hitting", params={"target": 10**6})
            )

    @pytest.mark.parametrize(
        "params",
        [
            {},  # defaults: a 132-round push
            {"epsilon": 1e-12},  # 175
            {"beta": 0.9, "epsilon": 1e-11},  # 245
            {"max_levels": MAX_SERVED_HITTING_LEVELS},
        ],
    )
    def test_hitting_within_the_served_bounds(self, memory_service, params):
        memory_service.query(
            QuerySpec(3, family="hitting", params={"target": 5, **params})
        )

    @pytest.mark.parametrize(
        "params, rounds",
        [({"beta": 0.95}, 409), ({"beta": 0.9999}, 207227),
         ({"epsilon": 1e-18}, 260)],
    )
    def test_hitting_push_depth_is_capped(self, memory_service, params, rounds):
        assert rounds > MAX_SERVED_HITTING_ROUNDS
        with pytest.raises(ValueError, match=f"needs a {rounds}-round push"):
            memory_service.query(
                QuerySpec(3, family="hitting", params={"target": 5, **params})
            )

    def test_hitting_levels_are_capped(self, memory_service):
        too_many = MAX_SERVED_HITTING_LEVELS + 1
        with pytest.raises(ValueError, match=r"max_levels must lie in \[0, 64\]"):
            memory_service.query(
                QuerySpec(3, family="hitting",
                          params={"target": 5, "max_levels": too_many})
            )

    def test_direct_calls_are_not_capped(self, small_social, small_social_index):
        estimate = _direct_hitting(
            small_social, small_social_index, 3, 5,
            beta=0.95, max_levels=MAX_SERVED_HITTING_LEVELS + 1,
        )
        assert 0.0 < estimate.value < 1.0

    def test_reachability_length_is_capped(self, memory_service):
        too_long = MAX_SERVED_TOUR_LENGTH + 1
        with pytest.raises(ValueError, match="exponential"):
            memory_service.query(
                QuerySpec(3, family="reachability",
                          params={"max_length": too_long})
            )

    def test_unknown_parameter_rejected(self, memory_service):
        with pytest.raises(ValueError, match="unknown hitting parameter"):
            memory_service.query(
                QuerySpec(3, family="hitting",
                          params={"target": 5, "bogus": 1})
            )

    def test_spec_family_field_rules(self):
        with pytest.raises(ValueError, match='family "top_k" needs'):
            QuerySpec(3, family="top_k")
        with pytest.raises(ValueError, match="does not take top_k"):
            QuerySpec(3, family="hitting", top_k=5)
        with pytest.raises(ValueError, match="takes no params"):
            QuerySpec(3, params={"target": 5})

    def test_non_streamable_family_refused(self, memory_service):
        with pytest.raises(ValueError, match="does not stream"):
            memory_service.stream(
                QuerySpec(3, family="reachability")
            )


class TestCapabilities:
    def test_memory_backend_serves_everything(self, memory_service):
        assert set(memory_service.families()) >= {
            "ppv", "top_k", "hitting", "reachability"
        }

    def test_disk_backend_refuses_graph_resident_families(
        self, disk_service
    ):
        supported = supported_families(disk_service.engine)
        assert "ppv" in supported and "top_k" in supported
        assert "hitting" not in supported
        assert "reachability" not in supported
        with pytest.raises(UnsupportedFamilyError) as excinfo:
            disk_service.query(
                QuerySpec(3, family="hitting", params={"target": 5})
            )
        assert excinfo.value.family == "hitting"
        assert excinfo.value.backend == "disk"
        # Family-unaware callers still see a plain ValueError.
        assert isinstance(excinfo.value, ValueError)


class TestWire:
    def test_hitting_round_trip(self, small_social, small_social_index,
                                memory_service):
        server = PPVServer(memory_service)
        with server.background() as address:
            with PPVClient(*address) as client:
                payload = client.query(
                    11, family="hitting", params={"target": 3}
                )
        direct = _direct_hitting(small_social, small_social_index, 11, 3)
        assert payload["family"] == "hitting"
        assert payload["nodes"] == [11]
        assert payload["target"] == 3
        assert payload["value"] == direct.value
        assert payload["remaining_mass"] == direct.remaining_mass
        assert payload["upper_bound"] == direct.value + direct.remaining_mass
        assert payload["history"] == list(direct.history)

    def test_reachability_round_trip(self, small_social, memory_service):
        server = PPVServer(memory_service)
        with server.background() as address:
            with PPVClient(*address) as client:
                payload = client.query(
                    11, family="reachability",
                    params={"max_length": 3}, top=5,
                )
        direct = reachability_query(small_social, 11, 3)
        assert payload["family"] == "reachability"
        assert payload["max_length"] == 3
        assert payload["truncation_bound"] == direct.truncation_bound
        assert payload["top"] == [
            [node, score] for node, score in direct.top_k(5)
        ]

    def test_ppv_and_topk_payloads_unchanged(self, memory_service):
        """Pre-registry clients keep working: family-less requests mean
        what they always did and their payloads carry no family key."""
        server = PPVServer(memory_service)
        with server.background() as address:
            with PPVClient(*address) as client:
                plain = client.query(5, eta=2)
                tagged = client.query(5, eta=2, family="ppv")
                topk = client.query(5, top_k=4)
        assert "family" not in plain
        assert "family" not in topk
        assert tagged == plain
        assert "certified" in topk

    def test_family_defaulting_in_decode(self):
        assert protocol.spec_from_request({"node": 3}).family == "ppv"
        assert (
            protocol.spec_from_request({"node": 3, "top_k": 5}).family
            == "top_k"
        )
        spec = protocol.spec_from_request(
            {"node": 3, "family": "hitting", "target": 7, "beta": 0.5}
        )
        assert spec.family == "hitting"
        assert spec.params_dict() == {"target": 7, "beta": 0.5}

    def test_unknown_family_is_structured(self, memory_service):
        server = PPVServer(memory_service)
        with server.background() as address:
            with PPVClient(*address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query(3, family="nope")
        assert excinfo.value.code == protocol.E_UNSUPPORTED_FAMILY

    def test_unsupported_family_is_structured_on_disk(self, disk_setup):
        index_path, store_dir = disk_setup
        graph_store = DiskGraphStore.open(store_dir)
        with PPVService.open(
            str(index_path), backend="disk", graph_store=graph_store,
            delta=0.0,
        ) as service:
            server = PPVServer(service)
            with server.background() as address:
                with PPVClient(*address) as client:
                    with pytest.raises(ServerError) as excinfo:
                        client.query(
                            3, family="reachability",
                            params={"max_length": 2},
                        )
                    assert (
                        excinfo.value.code == protocol.E_UNSUPPORTED_FAMILY
                    )
                    # Advertised capabilities match the refusal.
                    stats = client.stats()
                    assert "reachability" not in stats["families"]
                    assert "ppv" in stats["families"]

    def test_bad_family_params_are_invalid_not_internal(
        self, memory_service
    ):
        server = PPVServer(memory_service)
        with server.background() as address:
            with PPVClient(*address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query(3, family="hitting")  # no target
        assert excinfo.value.code == protocol.E_INVALID


class TestCacheIsolation:
    def test_families_never_alias_in_the_cache(self, memory_service):
        stop = StopAfterIterations(2)
        first = memory_service.query(QuerySpec(5, stop=stop))
        assert memory_service.cache.hits == 0
        again = memory_service.query(QuerySpec(5, stop=stop))
        assert memory_service.cache.hits == 1
        np.testing.assert_array_equal(first.scores, again.scores)
        # Same node, different family: a miss, not a cross-family hit.
        reach = memory_service.query(
            QuerySpec(5, family="reachability", params={"max_length": 2})
        )
        assert memory_service.cache.hits == 1
        assert isinstance(reach, ReachabilityResult)
        reach_again = memory_service.query(
            QuerySpec(5, family="reachability", params={"max_length": 2})
        )
        assert memory_service.cache.hits == 2
        np.testing.assert_array_equal(reach.scores, reach_again.scores)
        # And the PPV entry is still the PPV result.
        ppv_again = memory_service.query(QuerySpec(5, stop=stop))
        assert isinstance(ppv_again, QueryResult)
        assert memory_service.cache.hits == 3

    def test_hitting_cache_keys_include_parameters(self, memory_service):
        spec_a = QuerySpec(5, family="hitting", params={"target": 3})
        spec_b = QuerySpec(
            5, family="hitting", params={"target": 3, "beta": 0.5}
        )
        memory_service.query(spec_a)
        memory_service.query(spec_b)
        assert memory_service.cache.hits == 0
        result = memory_service.query(spec_a)
        assert memory_service.cache.hits == 1
        assert isinstance(result, HittingEstimate)


class TestPerFamilyStats:
    def test_service_breaks_stats_out_per_family(self, memory_service):
        stop = StopAfterIterations(2)
        memory_service.query_many(
            [QuerySpec(n, stop=stop) for n in (3, 9)]
        )
        memory_service.query(QuerySpec(7, top_k=4))
        memory_service.query(
            QuerySpec(5, family="hitting", params={"target": 3})
        )
        stats = memory_service.stats()
        assert stats.families["ppv"]["submitted"] == 2
        assert stats.families["top_k"]["submitted"] == 1
        assert stats.families["hitting"]["submitted"] == 1
        assert "reachability" not in stats.families
        for entry in stats.families.values():
            assert entry["latency"]["count"] == entry["submitted"]
        assert stats.submitted == 4


class TestShardRouter:
    def test_router_refuses_and_advertises_families(self, shard_root):
        with ShardRouter(shard_root, delta=1e-4, cache_size=0) as address:
            with PPVClient(*address) as client:
                # Graph-resident families cannot run over remote stores:
                # the refusal is the structured wire error, not a hang or
                # an internal failure.
                with pytest.raises(ServerError) as excinfo:
                    client.query(
                        3, family="hitting", params={"target": 5}
                    )
                assert excinfo.value.code == protocol.E_UNSUPPORTED_FAMILY
                with pytest.raises(ServerError) as excinfo:
                    client.query(
                        3, family="reachability",
                        params={"max_length": 2},
                    )
                assert excinfo.value.code == protocol.E_UNSUPPORTED_FAMILY
                # PPV families still serve, and the capability set says so.
                payload = client.query(3, eta=2)
                assert payload["nodes"] == [3]
                stats = client.stats()
                assert "ppv" in stats["families"]
                assert "top_k" in stats["families"]
                assert "hitting" not in stats["families"]
                # The router front-end's own service stats carry the
                # per-family break-out.
                assert stats["service"]["families"]["ppv"]["submitted"] == 1

    def test_shard_stats_aggregate_families(self, shard_root):
        with ShardRouter(shard_root, delta=1e-4, cache_size=0) as address:
            with PPVClient(*address) as client:
                client.query(3, eta=2)
                stats = client.stats()
        # Shard workers serve fetch verbs, not queries, so the fleet
        # aggregation is present (and empty) while each per-shard entry
        # carries its own families dict.
        shards = stats["shards"]
        assert shards["families"] == {}
        for entry in shards["per_shard"]:
            assert entry["families"] == {}
