"""Cluster residency: the one memory-resident form of a PPR cluster and
the bounded LRU that holds it (Sect. 5.3's "one cluster in memory").

Written once for every cluster-segmented graph store: the local
:class:`~repro.storage.disk_engine.DiskGraphStore` reads segments from
disk, :class:`~repro.sharding.remote.ShardedGraphStore` fetches them
from shard processes; both hand the same stored bytes to
:class:`ResidentCluster` (:func:`decode_segment` is the one decoder of
the segment layout) and inherit the structure check, LRU and adjacency
lookups from here.
"""

from __future__ import annotations

import struct

import numpy as np

from repro import native

_SEGMENT_HEADER = struct.Struct("<2Q")

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
    """Global cluster labels plus a bounded LRU of
    :class:`ResidentCluster` records — everything a cluster-segmented
    graph store is apart from where its segments come from.

    Subclasses supply :meth:`_fetch_cluster`: one cluster as a
    :class:`ResidentCluster` over its stored segment, accepted by
    :meth:`check_segment` (each subclass runs the check where it can
    name the segment's origin in the refusal).  ``faults`` counts
    swap-ins — successful fetches only: a refused segment or an
    unreachable shard swaps nothing in and is not counted; at most
    ``memory_budget`` clusters are resident, least recently used evicted
    first.  :attr:`resident_flags` says which clusters are held (uint8
    per cluster, 1 while held, updated in place) without touching the
    LRU order — what the compiled batch waves read before they pick the
    cluster a wave drains.
    """

    def __init__(
        self, labels: np.ndarray, num_clusters: int, memory_budget: int
    ) -> None:
        if memory_budget < 1:
            raise ValueError("memory_budget must be at least one cluster")
        self.labels = np.require(labels, np.int64, "CA")
        self._labels_at = self.labels.ctypes.data
        self.num_nodes = int(labels.size)
        self.num_clusters = num_clusters
        self.memory_budget = memory_budget
        self.faults = 0
        self.resident_flags = np.zeros(num_clusters, np.uint8)
        self._cache: dict[int, ResidentCluster] = {}  # LRU: most recent last

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
        """``cluster`` in resident form, swapping it in (with LRU
        eviction, bumping :attr:`faults`) if needed.

        The batch push resolves residency once per wave through this:
        every drain of a wave reads the one cluster it returns.  A fetch
        that raises leaves :attr:`faults` and the resident set as they
        were.
        """
        resident = self._cache.pop(cluster, None)  # re-insert as most recent
        if resident is None:
            resident = self._fetch_cluster(cluster)
            self.faults += 1
            while len(self._cache) >= self.memory_budget:
                evicted = next(iter(self._cache))
                del self._cache[evicted]
                self.resident_flags[evicted] = 0
            self.resident_flags[cluster] = 1
        self._cache[cluster] = resident
        return resident

    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, step probabilities)`` of ``node``, swapping its
        cluster in (with LRU eviction) if needed."""
        return self.resident_cluster(self.cluster_of(node)).out_edges(node)

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbours of ``node``, swapping its cluster in if needed."""
        return self.out_edges(node)[0]
