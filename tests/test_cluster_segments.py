"""Format-2 cluster segments (``DiskGraphStore``): what is written is
the source graph's CSR rows, what is read is verified, and anything
else — the retired ``.npz`` format, a manifest that does not describe
every stored cluster, a missing, truncated or bit-flipped file — is
refused with a ``ValueError`` naming the file and the rebuild
command, locally and through a shard's ``fetch_cluster``."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from oracles import clusters_pool, sharded_over
from repro import build_index, from_edges
from repro.faults import FaultPlan
from repro.server import protocol
from repro.sharding import partition_index, shard_dir_name
from repro.sharding.shard import ShardEngine
from repro.storage import ClusterAssignment, DiskGraphStore, StoredBytes
from repro.storage.residency import decode_segment

# Node 5 has no out-edges; cluster 2 has no members.
EDGES = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5), (6, 0)]
LABELS = np.array([0, 0, 0, 1, 1, 1, 3])
ASSIGNMENT = ClusterAssignment(anchors=np.array([0, 3, 5, 6]), labels=LABELS)


@pytest.fixture(scope="module")
def graph():
    return from_edges(EDGES, num_nodes=7)


def _assert_rows_match(arrays: dict, graph, cluster: int) -> None:
    members = np.nonzero(LABELS == cluster)[0]
    np.testing.assert_array_equal(arrays["nodes"], members)
    assert arrays["offsets"].tolist() == [0] + np.cumsum(
        graph.out_degrees[members]
    ).tolist()
    assert arrays["targets"].dtype == np.dtype("<i4")  # compact on disk
    for row, node in enumerate(members.tolist()):
        start, end = arrays["offsets"][row], arrays["offsets"][row + 1]
        np.testing.assert_array_equal(
            arrays["targets"][start:end], graph.out_neighbors(node)
        )
        np.testing.assert_array_equal(
            arrays["probs"][start:end],
            graph.edge_probabilities[graph.indptr[node]:graph.indptr[node + 1]],
        )


class TestRoundTrip:
    @pytest.mark.parametrize("owned", [None, [1, 2], []])
    def test_build_open_read_equals_csr_rows(self, graph, tmp_path, owned):
        built = DiskGraphStore(graph, ASSIGNMENT, tmp_path / "c", clusters=owned)
        stored = list(range(4)) if owned is None else owned
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["format"] == 2 and manifest["clusters"] == stored
        for store in (built, DiskGraphStore.open(tmp_path / "c")):
            assert store.clusters == stored
            assert store.num_nodes == 7 and store.num_clusters == 4
            sizes = [
                (tmp_path / "c" / f"cluster_{c:05d}.seg").stat().st_size
                for c in stored
            ]
            assert store.total_bytes == sum(sizes)
            # Owning zero clusters is a legal partial store, not a max()
            # of nothing.
            assert store.largest_cluster_bytes == max(sizes, default=0)
            for cluster in stored:
                _assert_rows_match(store.cluster_arrays(cluster), graph, cluster)
            for cluster in set(range(4)) - set(stored):
                with pytest.raises(ValueError, match="not stored here"):
                    store.cluster_arrays(cluster)
                with pytest.raises(ValueError, match="not stored here"):
                    store.resident_cluster(cluster)
            for node in np.nonzero(np.isin(LABELS, stored))[0].tolist():
                targets, probs = store.out_edges(node)
                np.testing.assert_array_equal(targets, graph.out_neighbors(node))
                assert probs.tolist() == [1 / max(len(targets), 1)] * len(targets)

    def test_one_read_per_fault_accounting(self, graph, tmp_path):
        store = DiskGraphStore(graph, ASSIGNMENT, tmp_path / "c")
        store = DiskGraphStore.open(store.directory, pool=clusters_pool(store, 2))
        size = {c: (tmp_path / "c" / f"cluster_{c:05d}.seg").stat().st_size
                for c in range(4)}
        store.resident_cluster(0)
        store.resident_cluster(0)  # resident: no fault, no read
        assert (store.faults, store.bytes_read) == (1, size[0])
        store.cluster_arrays(1)  # a read of the bytes, not a swap-in
        assert (store.faults, store.bytes_read) == (1, size[0] + size[1])
        store.resident_cluster(2)  # the empty cluster still costs its read
        assert (store.faults, store.bytes_read) == (2, sum(size.values()) - size[3])
        assert store.resident_cluster(2).nodes_array.size == 0

    @pytest.mark.parametrize("kind", ["disk", "sharded"])
    @pytest.mark.parametrize("refusal", ["injected load error", "flipped byte"])
    def test_a_refused_fetch_is_not_a_fault(
        self, graph, tmp_path, refusal, kind
    ):
        # `faults` counts swap-ins: a fetch that raises swaps nothing in.
        plan = FaultPlan()
        store = DiskGraphStore(graph, ASSIGNMENT, tmp_path / "c")
        # Holds clusters 0 and 1, and evicts 0 for the empty cluster 2.
        pool = StoredBytes(sum(
            len(store.read_segment(cluster)) for cluster in (0, 1)
        ))
        store = DiskGraphStore.open(store.directory, pool=pool, fault_plan=plan)
        if kind == "sharded":  # the refusal comes back from the shard
            store = sharded_over(store, pool)
        segment = tmp_path / "c" / "cluster_00001.seg"
        intact = segment.read_bytes()
        store.resident_cluster(0)
        if refusal == "flipped byte":
            segment.write_bytes(intact[:-1] + bytes([intact[-1] ^ 0x01]))
        else:
            plan.on("graph_store.load", error=ValueError("injected"), times=1)
        with pytest.raises(ValueError):
            store.resident_cluster(1)
        resident = store.resident_flags.tolist()
        assert (store.faults, resident) == (1, [1, 0, 0, 0])
        segment.write_bytes(intact)
        store.resident_cluster(1)
        resident = store.resident_flags.tolist()
        assert (store.faults, resident) == (2, [1, 1, 0, 0])
        store.resident_cluster(2)  # evicts cluster 0, the least recent
        assert (store.faults, store.resident_flags.tolist()) == (3, [0, 1, 1, 0])

    def test_rebuild_in_place_replaces_an_old_format_directory(
        self, graph, tmp_path
    ):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "cluster_00000.npz").write_bytes(b"old")
        DiskGraphStore(graph, ASSIGNMENT, tmp_path / "c")
        assert not list((tmp_path / "c").glob("*.npz"))
        DiskGraphStore.open(tmp_path / "c").out_edges(0)


# --------------------------------------------------------------------- #
# Corrupt-data refusal


def _drop_format(directory, segment):
    manifest = json.loads((directory / "manifest.json").read_text())
    del manifest["format"]
    (directory / "manifest.json").write_text(json.dumps(manifest))


def _leave_npz(directory, segment):
    (directory / "cluster_00000.npz").write_bytes(b"PK")


def _drop_a_segment_entry(directory, segment):
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["segments"].pop()
    (directory / "manifest.json").write_text(json.dumps(manifest))


def _delete(directory, segment):
    segment.unlink()


def _truncate(directory, segment):
    segment.write_bytes(segment.read_bytes()[:-1])


def _flip(offset):
    def flip(directory, segment):
        data = bytearray(segment.read_bytes())
        data[offset] ^= 0x01
        segment.write_bytes(bytes(data))

    return flip


CORRUPTIONS = {
    "old-format manifest": (_drop_format, "not a format-2"),
    "npz left behind": (_leave_npz, "not a format-2"),
    "segments shorter than clusters": (_drop_a_segment_entry, "not a format-2"),
    "missing file": (_delete, "corrupt cluster segment"),
    "truncated": (_truncate, "corrupt cluster segment"),
    "flipped payload byte": (_flip(-3), "corrupt cluster segment"),
    "flipped header byte": (_flip(0), "corrupt cluster segment"),
}


def _read_local(directory) -> int:
    """Members of cluster 0, read through a local store's swap-in."""
    return DiskGraphStore.open(directory).resident_cluster(0).nodes_array.size


def _read_through_shard(directory) -> int:
    """The same count through the owning shard's ``fetch_cluster``
    (``directory`` is ``SHARD/graph``; the engine opens ``SHARD``)."""
    engine = ShardEngine(directory.parent)
    try:
        segment = base64.b64decode(engine.fetch_cluster(0)["segment"])
        return len(decode_segment(segment)[0])
    finally:
        engine.close()


@pytest.mark.parametrize("read", [_read_local, _read_through_shard])
@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupt_or_old_directories_are_refused(
    graph, tmp_path, corruption, read
):
    partition_index(
        graph, build_index(graph, [2]), 1, tmp_path, assignment=ASSIGNMENT
    )
    directory = tmp_path / shard_dir_name(0) / "graph"
    segment = directory / "cluster_00000.seg"
    assert read(directory) == 3  # intact: served
    damage, message = CORRUPTIONS[corruption]
    damage(directory, segment)
    with pytest.raises(ValueError, match=message) as refused:
        read(directory)
    # Names the file and the way out; over the wire it is `invalid`.
    named = "manifest.json" if "format" in message else segment.name
    assert named in str(refused.value)
    assert "rebuild" in str(refused.value)
    assert protocol.error_code(refused.value) == protocol.E_INVALID
