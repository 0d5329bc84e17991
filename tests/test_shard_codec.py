"""The shard data plane ships stored bytes — and the router decodes
them with the local stores' own decoders.

Teeth for that claim on a graph built to hit the empty cases: cluster 3
has no member, cluster 4's only member (7) has no out-edge, node 5 is a
dangling member of a cluster that does have edges, and hub 5 — dangling
— has a prime PPV with no border.  For every hub and every cluster of a
2- and a 3-shard partition, what ``ShardedPPVStore`` /
``ShardedGraphStore`` decode from the owning ``ShardEngine``'s reply
(through the wire's JSON codec, see ``oracles.LocalFleet``) is the
local ``DiskPPVStore.get`` / ``DiskGraphStore.cluster_arrays`` read:
same bytes, same dtypes, same shapes.  A reply that cannot be decoded is
refused as ``shard_unavailable`` naming the shard and the verb — at the
fetch, so no numpy error can surface later from a kernel.
"""

from __future__ import annotations

import base64

import numpy as np
import pytest

from oracles import LocalFleet
from repro import build_index, from_edges
from repro.core.splice import SpliceBlock
from repro.server import protocol
from repro.server.protocol import ShardUnavailableError
from repro.sharding import (
    ShardedGraphStore,
    ShardedPPVStore,
    ShardEngine,
    partition_index,
    shard_dir_name,
)
from repro.storage import (
    ClusterAssignment,
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    StoredBytes,
    save_index,
)

EDGES = [
    (0, 1), (0, 0), (0, 3), (1, 2), (1, 4), (2, 0), (2, 3), (3, 3), (3, 2),
    (3, 4), (4, 0), (4, 5), (4, 1), (4, 7), (6, 0), (6, 6),
]
LABELS = np.array([0, 0, 0, 1, 1, 2, 2, 4])
ASSIGNMENT = ClusterAssignment(anchors=np.array([0, 3, 5, 6, 7]), labels=LABELS)
NUM_CLUSTERS = 5
HUBS = [2, 4, 5]
PPV_FIELDS = ("nodes", "scores", "border_hubs", "border_masses")


class Deployment:
    """One partition served in-process, next to the unsharded stores."""

    def __init__(self, root, num_shards, fleet_type=LocalFleet):
        graph = from_edges(EDGES, num_nodes=LABELS.size)
        index = build_index(graph, HUBS, epsilon=1e-9)
        save_index(index, root / "i.fppv")
        self.local_ppv = DiskPPVStore(root / "i.fppv")
        self.local_graph = DiskGraphStore(graph, ASSIGNMENT, root / "c")
        manifest = partition_index(
            graph, index, num_shards, root / "part", assignment=ASSIGNMENT
        )
        self.engines = [
            ShardEngine(root / "part" / shard_dir_name(shard))
            for shard in range(num_shards)
        ]
        self.fleet = fleet_type(self.engines)
        self.cluster_shards = manifest["cluster_shards"]
        self.hub_shards = {
            hub: entry["shard"]
            for entry in manifest["shards"]
            for hub in entry["hubs"]
        }
        self.remote_ppv = self.sharded_ppv(StoredBytes(0))
        self.remote_graph = ShardedGraphStore(
            self.fleet, labels=LABELS, cluster_shards=self.cluster_shards
        )

    def sharded_ppv(self, pool: StoredBytes) -> ShardedPPVStore:
        """A router-side PPV store over this fleet, holding ``pool``."""
        return ShardedPPVStore(
            self.fleet,
            alpha=self.local_ppv.alpha,
            epsilon=self.local_ppv.epsilon,
            clip=self.local_ppv.clip,
            num_nodes=LABELS.size,
            hub_shards=self.hub_shards,
            pool=pool,
        )

    def close(self):
        self.local_ppv.close()
        for engine in self.engines:
            engine.close()


@pytest.fixture(params=[2, 3], ids=["2 shards", "3 shards"])
def deployment(request, tmp_path):
    deployed = Deployment(tmp_path, request.param)
    yield deployed
    deployed.close()


def _assert_same_array(remote: np.ndarray, local: np.ndarray) -> None:
    assert remote.dtype == local.dtype
    assert remote.shape == local.shape
    assert remote.tobytes() == local.tobytes()


class TestRemoteDecodeIsTheLocalRead:
    def test_every_hub(self, deployment):
        assert sorted(deployment.hub_shards) == HUBS
        borderless = 0
        for hub in HUBS:
            remote = deployment.remote_ppv.get(hub)
            local = deployment.local_ppv.get(hub)
            assert remote.source == local.source == hub
            for field in PPV_FIELDS:
                _assert_same_array(getattr(remote, field), getattr(local, field))
            assert remote.nodes.dtype == remote.border_hubs.dtype == np.int64
            assert remote.scores.dtype == remote.border_masses.dtype == np.float64
            borderless += remote.border_hubs.size == 0
        assert borderless  # hub 5: empty arrays, still int64 / float64

    def test_every_cluster(self, deployment):
        edgeless = 0
        for cluster in range(NUM_CLUSTERS):
            names = ("nodes", "offsets", "targets", "probs")
            fetched = deployment.remote_graph._fetch_cluster(cluster)
            remote = [getattr(fetched, f"{name}_array") for name in names]
            local = deployment.local_graph.cluster_arrays(cluster)
            for got, name in zip(remote, names):
                _assert_same_array(got, local[name])
            nodes, offsets, targets, probs = remote
            assert (nodes.dtype, offsets.dtype) == (np.int64, np.int64)
            # The stored dtypes, read by the waves as they are.
            assert (targets.dtype, probs.dtype) == (np.int32, np.float64)
            edgeless += targets.size == 0
            # ... and so is the resident form the drain runs on.
            resident = deployment.remote_graph.resident_cluster(cluster)
            reference = deployment.local_graph.resident_cluster(cluster)
            _assert_same_array(resident.targets_array, reference.targets_array)
            _assert_same_array(resident.probs_array, reference.probs_array)
            assert resident.targets_array.dtype == np.int32
            _assert_same_array(resident.nodes_array, reference.nodes_array)
            _assert_same_array(resident.offsets_array, reference.offsets_array)
        assert edgeless == 2  # the member-less cluster and node 7's

    def test_zero_out_degree_member_has_an_empty_row(self, deployment):
        targets, probs = deployment.remote_graph.out_edges(5)
        assert (targets.size, probs.size) == (0, 0)
        assert (targets.dtype, probs.dtype) == (np.int32, np.float64)

    def test_served_scores_are_bitwise_the_unsharded_engine(self, deployment):
        remote = DiskFastPPV(
            deployment.remote_graph, deployment.remote_ppv, delta=0.0
        )
        local = DiskFastPPV(
            deployment.local_graph, deployment.local_ppv, delta=0.0
        )
        nodes = list(range(LABELS.size))
        for got, expected in zip(remote.query_many(nodes), local.query_many(nodes)):
            assert got.scores.tobytes() == expected.scores.tobytes()
            assert got.error_history == expected.error_history


def _rows_bytes(block, hubs) -> tuple:
    """The rows ``block`` holds for ``hubs``, as bytes (a snapshot)."""
    return tuple(
        (hub, array.dtype.str, array.tobytes())
        for hub in hubs for array in block.prime_of(hub)
    )


def test_a_cache_hit_serves_the_bytes_of_a_fetch(deployment):
    """The router's block holds the pooled hubs' rows: a batch served
    from it — wholly or in part — is the bytes a fetch decodes to, and
    the local store's rows."""
    last_two = sum(
        len(deployment.local_ppv.read_record(hub)[2]) for hub in HUBS[-2:]
    )
    cached = deployment.sharded_ppv(StoredBytes(last_two))
    fetched = _rows_bytes(cached.get_many(HUBS), HUBS)
    assert cached.reads == len(HUBS)
    assert fetched == _rows_bytes(deployment.remote_ppv.get_many(HUBS), HUBS)
    assert fetched == _rows_bytes(deployment.local_ppv.get_many(HUBS), HUBS)
    assert [hub for _, hub in cached.pool.keys()] == HUBS[-2:]
    hit = cached.get_many(HUBS[::-1][:2])  # both cached
    assert cached.reads == len(HUBS)
    assert _rows_bytes(hit, HUBS[-2:]) == _rows_bytes(
        deployment.remote_ppv.get_many(HUBS[-2:]), HUBS[-2:]
    )
    cached.trim()  # between batches: the evicted hub's row goes
    mixed = cached.get_many(HUBS)  # one refetched, two hits
    assert cached.reads == len(HUBS) + 1
    assert _rows_bytes(mixed, HUBS) == fetched


@pytest.mark.parametrize("side", ["local", "sharded"])
def test_a_record_is_checked_once_when_fetched(deployment, monkeypatch, side):
    """Each store checks a record in its ``_fetch``, once per miss; a
    hub its block holds is not checked again."""
    from repro.sharding import remote
    from repro.storage import ppv_store

    checked, check = [], ppv_store.check_records

    def counting(hubs, records):
        hubs = list(hubs)
        checked.extend(hubs)
        return check(hubs, records)

    monkeypatch.setattr(ppv_store, "check_records", counting)
    monkeypatch.setattr(remote, "check_records", counting)
    store = (
        deployment.local_ppv if side == "local"
        else deployment.sharded_ppv(StoredBytes())
    )
    want = _rows_bytes(store.get_many(HUBS[:2]), HUBS[:2])  # two misses
    assert sorted(checked) == HUBS[:2]
    checked.clear()
    both = _rows_bytes(store.get_many(HUBS), HUBS)  # two hits, one miss
    assert checked == HUBS[2:]
    checked.clear()
    assert _rows_bytes(store.get_many(HUBS[:2]), HUBS[:2]) == want  # hits only
    assert checked == [] and store.reads == len(HUBS)
    read_all = deployment.local_ppv.read_all()
    assert both == _rows_bytes(SpliceBlock(0.15, LABELS.size, read_all), HUBS)


@pytest.mark.parametrize("side", ["local", "sharded"])
def test_a_warm_batch_fetches_and_decodes_nothing(deployment, monkeypatch, side):
    """At the default budget a warm engine's store holds every hub it
    has fetched as a row: a batch that needs no new hub makes no
    ``_fetch`` and no ``decode_records`` call, and serves the bits of the
    batch that fetched them."""
    from repro.storage import ppv_store

    graph_store, store = (
        (deployment.local_graph, deployment.local_ppv) if side == "local"
        else (deployment.remote_graph, deployment.sharded_ppv(StoredBytes()))
    )
    engine = DiskFastPPV(graph_store, store, delta=0.0)
    nodes = list(range(LABELS.size))
    cold = engine.query_many(nodes)
    calls = []
    decode, fetch = ppv_store.decode_records, store._fetch
    monkeypatch.setattr(
        ppv_store, "decode_records",
        lambda *args: calls.append("decode") or decode(*args),
    )
    monkeypatch.setattr(
        store, "_fetch", lambda hubs: calls.append("fetch") or fetch(hubs)
    )
    for _ in range(2):
        warm = engine.query_many(nodes)
        assert calls == []
        for got, expected in zip(warm, cold):
            assert got.scores.tobytes() == expected.scores.tobytes()
            assert got.hub_reads == expected.hub_reads


# --------------------------------------------------------------------- #
# Undecodable replies


def _rewrite(field, change):
    """Damage that re-encodes ``reply[field]``'s bytes through ``change``."""

    def damage(reply):
        data = base64.b64decode(reply[field])
        reply[field] = base64.b64encode(change(data)).decode("ascii")

    return damage


def _drop(field):
    def damage(reply):
        del reply[field]

    return damage


def _set(field, value):
    def damage(reply):
        reply[field] = value

    return damage


# verb -> the reply field that carries the record's bytes
BYTES_FIELD = {"fetch_hubs": "payload", "fetch_cluster": "segment"}
DAMAGE = {
    "missing key": _drop,
    "bad base64": lambda field: _set(field, "@@ not base64 @@"),
    "not a string": lambda field: _set(field, [1, 2, 3]),
    "short payload": lambda field: _rewrite(field, lambda data: data[:-1]),
    "long payload": lambda field: _rewrite(field, lambda data: data + bytes(8)),
    "empty payload": lambda field: _rewrite(field, lambda data: b""),
}


class DamagedFleet(LocalFleet):
    """``LocalFleet`` whose replies to ``verb`` pass through ``damage``
    (both set per test) on their way to the router."""

    verb = None
    damage = None

    def request(self, shard, body):
        reply = super().request(shard, body)
        if body["verb"] == self.verb == "fetch_cluster":
            self.damage(reply)
        elif body["verb"] == self.verb == "fetch_hubs":
            for record in reply.values():
                self.damage(record)
        return reply


@pytest.fixture()
def damaged(tmp_path):
    deployed = Deployment(tmp_path, 2, fleet_type=DamagedFleet)
    yield deployed
    deployed.close()


def _assert_refused(excinfo, shard: int, verb: str) -> None:
    error = excinfo.value
    assert error.shard == shard
    assert f"shard {shard}" in str(error) and verb in str(error)
    assert "same tree" in str(error)  # says what to do about it
    assert protocol.error_code(error) == protocol.E_SHARD_UNAVAILABLE


@pytest.mark.parametrize("verb", BYTES_FIELD)
@pytest.mark.parametrize("damage", DAMAGE)
def test_undecodable_reply_is_shard_unavailable(damaged, damage, verb):
    damaged.fleet.verb = verb
    damaged.fleet.damage = DAMAGE[damage](BYTES_FIELD[verb])
    engine = DiskFastPPV(damaged.remote_graph, damaged.remote_ppv, delta=0.0)
    if verb == "fetch_hubs":
        hub = HUBS[0]
        with pytest.raises(ShardUnavailableError) as excinfo:
            damaged.remote_ppv.get(hub)
        _assert_refused(excinfo, damaged.hub_shards[hub], verb)
        query = hub  # a hub query starts from its own fetched entry
    else:
        cluster = 0
        with pytest.raises(ShardUnavailableError) as excinfo:
            damaged.remote_graph.resident_cluster(cluster)
        _assert_refused(excinfo, damaged.cluster_shards[cluster], verb)
        query = 0  # a non-hub query drains its own cluster first
    # Through the engine it is the same structured verdict, raised at
    # the fetch — never a numpy error out of drain / splice_rounds_exact.
    with pytest.raises(ShardUnavailableError) as excinfo:
        engine.query(query)
    assert verb in str(excinfo.value)


@pytest.mark.parametrize(
    "damage",
    [_drop("entries"), _set("borders", "many"), _set("entries", None),
     _set("entries", -1), _set("borders", 10**30)],
    ids=["no entries", "text count", "null count", "negative count",
         "absurd count"],
)
def test_hub_counts_that_disagree_with_the_payload_are_refused(damaged, damage):
    damaged.fleet.verb = "fetch_hubs"
    damaged.fleet.damage = damage
    with pytest.raises(ShardUnavailableError) as excinfo:
        damaged.remote_ppv.get_many(HUBS)
    assert "fetch_hubs" in str(excinfo.value)


@pytest.mark.parametrize("verb", BYTES_FIELD)
def test_a_refused_reply_never_enters_the_pool(damaged, verb):
    """A damaged record or segment is refused before the router's pool
    holds it: every later request fetches it again, and is refused
    again."""
    damaged.fleet.verb = verb
    damaged.fleet.damage = DAMAGE["short payload"](BYTES_FIELD[verb])
    for attempt in range(1, 3):
        with pytest.raises(ShardUnavailableError):
            if verb == "fetch_hubs":
                damaged.remote_ppv.get_many([HUBS[0]])
            else:
                damaged.remote_graph.resident_cluster(0)
        fetched = (damaged.remote_ppv.reads, sum(damaged.remote_graph.shard_fetches))
        assert fetched == ((attempt, 0) if verb == "fetch_hubs" else (0, attempt))
        assert damaged.remote_ppv.pool.keys() == []
        assert damaged.remote_graph.pool.keys() == []
        assert damaged.remote_graph.resident_flags.sum() == 0
    assert damaged.remote_graph.faults == 0


def test_old_format_replies_are_refused_not_guessed(damaged):
    """The retired text codec's shapes (lists of numbers under
    ``nodes`` / ``scores`` / ...) name no byte payload: refused."""

    def old_cluster(reply):
        reply.clear()
        reply.update(nodes=[0, 1, 2], offsets=[0, 1, 2, 3],
                     targets=[1, 2, 0], probs=[1.0, 1.0, 1.0])

    def old_hub(record):
        record.clear()
        record.update(nodes=[2], scores=[0.15], border_hubs=[],
                      border_masses=[])

    for verb, damage, fetch in (
        ("fetch_cluster", old_cluster,
         lambda: damaged.remote_graph.resident_cluster(0)),
        ("fetch_hubs", old_hub, lambda: damaged.remote_ppv.get(HUBS[0])),
    ):
        damaged.fleet.verb = verb
        damaged.fleet.damage = damage
        with pytest.raises(ShardUnavailableError, match="KeyError"):
            fetch()


def test_reply_missing_a_requested_hub_is_refused(damaged):
    class Forgetful(LocalFleet):
        def request(self, shard, body):
            return {}

    damaged.remote_ppv.fleet = Forgetful(damaged.engines)
    with pytest.raises(ShardUnavailableError, match="fetch_hubs"):
        damaged.remote_ppv.get(HUBS[0])
