"""Cluster residency: the one memory-resident form of a PPR cluster and
the bounded LRU that holds it (Sect. 5.3's "one cluster in memory").

Written once for every cluster-segmented graph store: the local
:class:`~repro.storage.disk_engine.DiskGraphStore` reads segments from
disk, :class:`~repro.sharding.remote.ShardedGraphStore` fetches them
from shard processes; both decode the same stored bytes with
:func:`~repro.storage.disk_engine.decode_segment`, supply the four CSR
arrays of a cluster and inherit the resident form, LRU and adjacency
lookups from here.
"""

from __future__ import annotations

import numpy as np


def check_segment(name, cluster, labels, nodes, offsets, targets, probs) -> None:
    """Refuse a decoded segment whose *structure* is wrong.

    Length, header and CRC-32 say the bytes are the ones that were
    written, not that they describe rows of this graph: a buggy or
    foreign writer (or a rebuilt manifest) can be CRC-consistent with a
    target past the last node, which would index the push's per-node
    state out of bounds.  Checked once per fault, before any kernel sees the
    arrays: offsets start at 0, never decrease and end at the edge
    count; member nodes and targets lie in ``[0, num_nodes)``; every
    member is labelled with ``cluster``.  Raises :class:`ValueError`
    naming the segment as ``name`` (a path, a shard's reply).
    """
    num_nodes, edges = labels.size, targets.size
    if offsets.size != nodes.size + 1 or probs.size != edges:
        problem = "array lengths disagree"
    elif offsets[0] != 0 or offsets[-1] != edges or (
        offsets[1:] < offsets[:-1]
    ).any():
        problem = f"offsets are not a non-decreasing 0..{edges} sequence"
    elif edges and not 0 <= targets.min() <= targets.max() < num_nodes:
        problem = f"an edge target lies outside [0, {num_nodes})"
    elif nodes.size and not 0 <= nodes.min() <= nodes.max() < num_nodes:
        problem = f"a member node lies outside [0, {num_nodes})"
    elif (labels[nodes] != cluster).any():
        problem = "a member node is labelled with another cluster"
    else:
        return
    raise ValueError(f"{name}: malformed cluster segment ({problem})")


class ResidentCluster:
    """One memory-resident cluster: its CSR rows, checked once per fault.

    ``nodes_array`` / ``offsets_array`` / ``targets_array`` /
    ``probs_array`` are the segment's four arrays in the dtypes the
    kernels read (int64, int64, int64, float64; C-contiguous, aligned) —
    the compiled drain of :mod:`repro.native` runs on them as they are,
    and so does :meth:`out_edges`.
    """

    __slots__ = ("nodes_array", "offsets_array", "targets_array", "probs_array")

    def __init__(self, nodes, offsets, targets, probs) -> None:
        # The resident dtypes are stated here, where the arrays are
        # created: segments store targets as int32, the kernels index
        # with int64.
        self.nodes_array = np.require(nodes, np.int64, "CA")
        self.offsets_array = np.require(offsets, np.int64, "CA")
        self.targets_array = np.require(targets, np.int64, "CA")
        self.probs_array = np.require(probs, np.float64, "CA")

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

    Subclasses supply :meth:`_fetch_cluster`: the ``(nodes, offsets,
    targets, probs)`` arrays of one cluster, as
    :func:`~repro.storage.disk_engine.decode_segment` returns them and
    :func:`check_segment` accepts them (each subclass runs the check
    where it can name the segment's origin in the refusal).
    ``faults`` counts swap-ins — successful fetches only: a refused
    segment or an unreachable shard swaps nothing in and is not
    counted; at most ``memory_budget`` clusters are resident, least
    recently used evicted first.  :meth:`is_resident` answers whether a
    cluster is held without touching the LRU order — what the batch
    scheduler asks before it picks the cluster a wave drains.
    """

    def __init__(
        self, labels: np.ndarray, num_clusters: int, memory_budget: int
    ) -> None:
        if memory_budget < 1:
            raise ValueError("memory_budget must be at least one cluster")
        self.labels = labels
        self.num_nodes = int(labels.size)
        self.num_clusters = num_clusters
        self.memory_budget = memory_budget
        self.faults = 0
        self._cache: dict[int, ResidentCluster] = {}  # LRU: most recent last

    def _fetch_cluster(self, cluster: int):
        raise NotImplementedError

    def cluster_of(self, node: int) -> int:
        """Cluster id owning ``node``."""
        return int(self.labels[node])

    def is_resident(self, cluster: int) -> bool:
        """Whether ``cluster`` is held now: no I/O, no LRU refresh."""
        return cluster in self._cache

    def resident_cluster(self, cluster: int) -> ResidentCluster:
        """``cluster`` in resident form, swapping it in (with LRU
        eviction, bumping :attr:`faults`) if needed.

        The cluster-draining push resolves residency once per drain
        through this: a drain's cluster can only fault on first touch.
        A fetch that raises leaves :attr:`faults` and the resident set
        as they were.
        """
        resident = self._cache.pop(cluster, None)  # re-insert as most recent
        if resident is None:
            resident = ResidentCluster(*self._fetch_cluster(cluster))
            self.faults += 1
            while len(self._cache) >= self.memory_budget:
                del self._cache[next(iter(self._cache))]
        self._cache[cluster] = resident
        return resident

    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, step probabilities)`` of ``node``, swapping its
        cluster in (with LRU eviction) if needed."""
        return self.resident_cluster(self.cluster_of(node)).out_edges(node)

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbours of ``node``, swapping its cluster in if needed."""
        return self.out_edges(node)[0]
