"""Stored bytes in memory (Sect. 5.3's memory model): :class:`StoredBytes`,
the one pool a deployment's graph and PPV stores hold them in, and the
memory-resident form of a PPR cluster.

Written once for every cluster-segmented graph store: the local
:class:`~repro.storage.disk_engine.DiskGraphStore` reads segments from
disk, :class:`~repro.sharding.remote.ShardedGraphStore` fetches them
from shard processes; both hand the same stored bytes to
:class:`ResidentCluster` (:func:`decode_segment` is the one decoder of
the segment layout) and inherit the structure check, the pool lookup
and the adjacency lookups from :class:`ClusterResidency`.
"""

from __future__ import annotations

import struct

import numpy as np

from repro import native

_SEGMENT_HEADER = struct.Struct("<2Q")

DEFAULT_MEMORY_BYTES = 4 << 20
"""Capacity of a pool a store makes for itself (4 MiB): more than the
whole social4k dataset (1.6 MB of segments and records), so a default
deployment of that size reads each stored byte once."""

_PROBLEMS = {
    1: "offsets are not a non-decreasing 0..{edges} sequence",
    2: "an edge target lies outside [0, {num_nodes})",
    3: "a member node lies outside [0, {num_nodes})",
    4: "a member node is labelled with another cluster",
}


def _header_implied_size(data: bytes) -> int:
    """Byte length a segment's own header says it has (-1 when ``data``
    is too short to hold a header)."""
    if len(data) < _SEGMENT_HEADER.size:
        return -1
    members, edges = _SEGMENT_HEADER.unpack_from(data)
    return _SEGMENT_HEADER.size + 8 * members + 8 * (members + 1) + 12 * edges


def decode_segment(data: bytes):
    """One format-2 segment → ``(nodes i64, offsets i64, targets i32,
    probs f64)`` views over ``data``: the only decoder of the segment
    layout (:mod:`repro.storage.disk_engine` writes it), whether the
    bytes come from a local read or out of a shard's ``fetch_cluster``
    reply.

    Raises :class:`ValueError` when ``data`` is not the length its
    header implies, so no view can run past the buffer.  An edge-less
    cluster decodes to empty ``targets`` / ``probs`` of those dtypes.
    """
    if len(data) != _header_implied_size(data):
        raise ValueError(
            f"a cluster segment of {len(data)} bytes disagrees with the "
            "length its header implies"
        )
    members, edges = _SEGMENT_HEADER.unpack_from(data)
    nodes_at = _SEGMENT_HEADER.size
    offsets_at = nodes_at + 8 * members
    probs_at = offsets_at + 8 * (members + 1)
    targets_at = probs_at + 8 * edges
    return (
        np.frombuffer(data, "<i8", members, nodes_at),
        np.frombuffer(data, "<i8", members + 1, offsets_at),
        np.frombuffer(data, "<i4", edges, targets_at),
        np.frombuffer(data, "<f8", edges, probs_at),
    )


class StoredBytes:
    """One deployment's pool of stored bytes: an LRU over ``(kind, id)``
    bounded in bytes.

    :meth:`put` evicts from the least recently used end until the new
    entry fits, so the pool holds the most-recently-used prefix that
    fits :attr:`capacity` — a subset of what any larger capacity holds.
    An entry larger than the capacity is held alone (a wave must drain a
    cluster bigger than the budget): capacity 0 holds the newest entry.
    Each store takes its own kind (:meth:`kind`), so stores share the
    bytes, never the entries; a kind's ``flags`` (uint8 per id) read 1
    while the id is held, and :meth:`evicted` counts its evictions.
    """

    def __init__(self, capacity: int = DEFAULT_MEMORY_BYTES) -> None:
        if capacity < 0:
            raise ValueError("a pool's capacity is a byte count, at least 0")
        self.capacity = int(capacity)
        self.held = 0  # bytes
        self._entries: dict[tuple, tuple[object, int]] = {}  # most recent last
        self._flags: dict[tuple, np.ndarray] = {}
        self._evicted: dict[tuple, int] = {}
        self._kinds = 0

    def kind(self, name: str, flags: np.ndarray | None = None) -> tuple:
        """A fresh kind for one store's entries (``(name, serial)``);
        ``flags`` mirrors which of its ids are held."""
        self._kinds += 1
        kind = (name, self._kinds)
        if flags is not None:
            self._flags[kind] = flags
        return kind

    def evicted(self, kind: tuple) -> int:
        """How many entries of ``kind`` have been evicted (by a
        :meth:`put` or a :meth:`drop`): while it stands still, every id
        put under ``kind`` since it last moved is held."""
        return self._evicted.get(kind, 0)

    def keys(self) -> list[tuple]:
        """Held ``(kind, id)`` keys, least recently used first."""
        return list(self._entries)

    def get(self, kind: tuple, key: int):
        """The value held under ``(kind, key)``, now the most recently
        used, or ``None``."""
        entry = self._entries.pop((kind, key), None)
        if entry is None:
            return None
        self._entries[kind, key] = entry
        return entry[0]

    def put(self, kind: tuple, key: int, value, size: int) -> None:
        """Hold ``value`` (``size`` bytes) under ``(kind, key)`` as the
        most recently used entry, evicting until it fits."""
        old = self._entries.pop((kind, key), None)
        if old is not None:
            self.held -= old[1]
        while self._entries and self.held + size > self.capacity:
            self._evict(next(iter(self._entries)))
        self._entries[kind, key] = (value, size)
        self.held += size
        flags = self._flags.get(kind)
        if flags is not None:
            flags[key] = 1

    def drop(self, kind: tuple) -> None:
        """Evict every entry of ``kind`` (a store closing)."""
        for key in [key for key in self._entries if key[0] == kind]:
            self._evict(key)

    def _evict(self, key: tuple) -> None:
        self.held -= self._entries.pop(key)[1]
        self._evicted[key[0]] = self._evicted.get(key[0], 0) + 1
        flags = self._flags.get(key[0])
        if flags is not None:
            flags[key[1]] = 0


class ResidentCluster:
    """One memory-resident cluster: its stored segment, checked once per
    fault.

    ``segment`` is the stored bytes as read (or fetched); the compiled
    waves of :mod:`repro.native` read the CSR rows straight out of it.
    ``nodes_array`` / ``offsets_array`` / ``targets_array`` /
    ``probs_array`` are :func:`decode_segment`'s views over the same
    bytes, in the stored dtypes (int64, int64, int32, float64) —
    nothing is copied or widened; :meth:`out_edges` reads them.
    Raises :class:`ValueError` for bytes that are not the length their
    header implies.
    """

    __slots__ = (
        "segment", "nodes_array", "offsets_array", "targets_array", "probs_array",
    )

    def __init__(self, segment: bytes) -> None:
        self.segment = segment
        (
            self.nodes_array, self.offsets_array, self.targets_array,
            self.probs_array,
        ) = decode_segment(segment)

    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, step probabilities)`` of member ``node`` (a scan of
        the members; raises :class:`KeyError` for a node not held)."""
        rows = np.flatnonzero(self.nodes_array == node)
        if rows.size == 0:
            raise KeyError(node)
        start, end = self.offsets_array[rows[0]], self.offsets_array[rows[0] + 1]
        return self.targets_array[start:end], self.probs_array[start:end]


class ClusterResidency:
    """Global cluster labels plus the clusters a :class:`StoredBytes`
    pool holds — everything a cluster-segmented graph store is apart
    from where its segments come from.

    Subclasses supply :meth:`_fetch_cluster`: one cluster as a
    :class:`ResidentCluster` over its stored segment, accepted by
    :meth:`check_segment` (each subclass runs the check where it can
    name the segment's origin in the refusal).  ``faults`` counts
    swap-ins — pool misses fetched successfully: a refused segment or an
    unreachable shard swaps nothing in, is not counted and never enters
    the pool.  ``pool`` is the deployment's pool (its own, of
    :data:`DEFAULT_MEMORY_BYTES`, when none is given); the PPV store of
    the deployment shares it.  :attr:`resident_flags` says which
    clusters the pool holds (uint8 per cluster, 1 while held, updated in
    place on every insert and eviction) without touching the LRU order —
    what the compiled batch waves read before they pick the cluster a
    wave drains.
    """

    def __init__(
        self, labels: np.ndarray, num_clusters: int, pool: StoredBytes | None
    ) -> None:
        self.labels = np.require(labels, np.int64, "CA")
        self._labels_at = self.labels.ctypes.data
        self.num_nodes = int(labels.size)
        self.num_clusters = num_clusters
        self.faults = 0
        self.resident_flags = np.zeros(num_clusters, np.uint8)
        self.pool = pool if pool is not None else StoredBytes()
        self._kind = self.pool.kind("cluster", self.resident_flags)

    def _fetch_cluster(self, cluster: int) -> ResidentCluster:
        raise NotImplementedError

    def check_segment(self, name, cluster: int, resident: ResidentCluster) -> None:
        """Refuse a segment whose *structure* is wrong for this graph.

        Length, header and CRC-32 say the bytes are the ones that were
        written, not that they describe rows of this graph: a buggy or
        foreign writer (or a rebuilt manifest) can be CRC-consistent
        with a target past the last node, which would index the push's
        per-node state out of bounds.  Checked once per fault, in one
        compiled pass over the stored bytes (``kernels.c``), before any
        wave drains them: offsets start at 0, never decrease and end at
        the edge count; member nodes and targets lie in ``[0,
        num_nodes)``; every member is labelled with ``cluster``.  Raises
        :class:`ValueError` naming the segment as ``name`` (a path, a
        shard's reply) and the problem.

        The four array lengths need no check: :class:`ResidentCluster`
        derives every one of them from the segment's header, and refuses
        bytes of any other length.
        """
        problem = native.load().repro_check_segment(
            self.num_nodes, self._labels_at, cluster, resident.segment
        )
        if problem:
            detail = _PROBLEMS[problem].format(
                edges=resident.targets_array.size, num_nodes=self.num_nodes
            )
            raise ValueError(f"{name}: malformed cluster segment ({detail})")

    def cluster_of(self, node: int) -> int:
        """Cluster id owning ``node``."""
        return int(self.labels[node])

    def resident_cluster(self, cluster: int) -> ResidentCluster:
        """``cluster`` in resident form: from the pool, else fetched,
        checked and put in the pool (evicting least recently used
        entries), bumping :attr:`faults`.

        The batch push resolves residency once per wave through this:
        every drain of a wave reads the one cluster it returns.  A fetch
        that raises leaves :attr:`faults` and the pool as they were.
        """
        resident = self.pool.get(self._kind, cluster)
        if resident is None:
            resident = self._fetch_cluster(cluster)
            self.faults += 1
            self.pool.put(self._kind, cluster, resident, len(resident.segment))
        return resident

    def close(self) -> None:
        """Evict this store's clusters from the pool."""
        self.pool.drop(self._kind)

    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, step probabilities)`` of ``node``, swapping its
        cluster in if the pool misses it."""
        return self.resident_cluster(self.cluster_of(node)).out_edges(node)

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbours of ``node``, swapping its cluster in if needed."""
        return self.out_edges(node)[0]
