"""Cluster residency: the one memory-resident form of a PPR cluster and
the bounded LRU that holds it (Sect. 5.3's "one cluster in memory").

Written once for every cluster-segmented graph store: the local
:class:`~repro.storage.disk_engine.DiskGraphStore` reads segments from
disk, :class:`~repro.sharding.remote.ShardedGraphStore` fetches them
from shard processes; both decode the same stored bytes with
:func:`~repro.storage.disk_engine.decode_segment`, supply the four CSR
arrays of a cluster and inherit lowering, LRU and adjacency lookups
from here.
"""

from __future__ import annotations

import numpy as np


class ResidentCluster:
    """One memory-resident cluster: its CSR rows lowered once per fault.

    ``rows`` maps a member node to its row; the row's edges are
    ``targets[offsets[row]:offsets[row + 1]]`` with matching ``probs``.
    The three plain lists feed the push's per-edge Python loop (no numpy
    scalar overhead); ``targets_array`` / ``probs_array`` are the same
    edges as arrays, for the drain's vectorised score deposit and for
    :meth:`out_edges`.
    """

    __slots__ = (
        "rows", "offsets", "targets", "probs", "targets_array", "probs_array",
    )

    def __init__(self, nodes, offsets, targets, probs) -> None:
        # The resident dtypes are stated here: segments store targets
        # as int32, the drain indexes with an int64 ``targets_array``.
        self.targets_array = np.asarray(targets, dtype=np.int64)
        self.probs_array = np.asarray(probs, dtype=np.float64)
        self.offsets = np.asarray(offsets, dtype=np.int64).tolist()
        self.targets = self.targets_array.tolist()
        self.probs = self.probs_array.tolist()
        members = np.asarray(nodes, dtype=np.int64).tolist()
        self.rows = dict(zip(members, range(len(members))))

    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, step probabilities)`` of member ``node``."""
        row = self.rows[node]
        start, end = self.offsets[row], self.offsets[row + 1]
        return self.targets_array[start:end], self.probs_array[start:end]


class ClusterResidency:
    """Global cluster labels plus a bounded LRU of
    :class:`ResidentCluster` records — everything a cluster-segmented
    graph store is apart from where its segments come from.

    Subclasses supply :meth:`_fetch_cluster`: the ``(nodes, offsets,
    targets, probs)`` arrays of one cluster, as
    :func:`~repro.storage.disk_engine.decode_segment` returns them.
    ``faults`` counts swap-ins; at most ``memory_budget`` clusters are
    resident, least recently used evicted first.
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
        self._labels_list: list[int] | None = None
        self._cache: dict[int, ResidentCluster] = {}  # LRU: most recent last

    def _fetch_cluster(self, cluster: int):
        raise NotImplementedError

    def cluster_of(self, node: int) -> int:
        """Cluster id owning ``node``."""
        return int(self.labels[node])

    @property
    def labels_list(self) -> list[int]:
        """``labels`` as a plain list — O(1) lookups without numpy
        scalar overhead on the push's per-edge hot path."""
        if self._labels_list is None:
            self._labels_list = self.labels.tolist()
        return self._labels_list

    def resident_cluster(self, cluster: int) -> ResidentCluster:
        """``cluster`` in resident form, swapping it in (with LRU
        eviction, bumping :attr:`faults`) if needed.

        The cluster-draining push resolves residency once per drain
        through this: a drain's cluster can only fault on first touch.
        """
        resident = self._cache.pop(cluster, None)  # re-insert as most recent
        if resident is None:
            self.faults += 1
            resident = ResidentCluster(*self._fetch_cluster(cluster))
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
