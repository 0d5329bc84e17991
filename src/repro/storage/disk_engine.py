"""Disk-based online query processing (Sect. 5.3, Fig. 16).

Simulates the paper's reduced-memory deployment: the graph is segmented
into PPR clusters, each persisted as its own file, and the clusters and
hub records in memory are bounded in bytes by one
:class:`~repro.storage.residency.StoredBytes` pool the two stores share
(the paper's setting holds one cluster and no hub record).  Walking the
prime subgraph of a query touches neighbouring clusters; every swap is a
*cluster fault*.  Faults are counted, and the prime-subgraph search is
prematurely terminated once a fault budget (default: the number of
clusters, "generally robust" per the paper) is exhausted — trading a
little accuracy for much less I/O.

Hub prime PPVs are fetched lazily from the on-disk
:class:`~repro.storage.ppv_store.DiskPPVStore`, one random access for
each record the pool misses.

Cluster segment layout (format 2)
---------------------------------
One packed file per cluster, little-endian throughout — the CSR rows of
its member nodes in the *global* id space, read with **one** ``read()``
per fault and sliced with ``np.frombuffer``::

    header   members u64 | edges u64
    payload  nodes i64[members] | offsets i64[members + 1]
             | probs f64[edges] | targets i32[edges]

Row ``r`` (node ``nodes[r]``) owns edges ``offsets[r]:offsets[r + 1]``
of ``targets`` / ``probs`` (per-edge step probabilities).  The
directory's ``manifest.json`` carries ``"format": 2`` and every
segment's byte length and CRC-32; each physical load is checked against
both, so a missing, truncated or bit-flipped segment raises instead of
serving wrong scores.  There is no reader for the retired ``.npz`` format.

One engine, scalar is the batch of one
--------------------------------------
:class:`DiskFastPPV` serves a whole batch against the stores while
amortising the I/O that dominates disk queries; :meth:`DiskFastPPV.query`
is ``query_many([q])[0]``:

* The prime-subgraph walks of all non-hub queries run as one
  :class:`_ClusterWaves` batch, one :class:`_PrimePushRun` row per
  query, grouped **by cluster**: each scheduling wave drains every run
  that needs one cluster next while that cluster is resident, so a
  cluster is faulted in once per wave instead of once per query.  Waves
  are **residency-first**: among the clusters needed next, one the
  store already holds is drained before any other (most demanded first,
  ties to the smallest id); a new cluster is faulted in only when no
  resident one is needed, and then the most demanded.  A run's
  per-query schedule (heaviest pool first, FIFO within a cluster) is
  fixed and residency-independent — the wave order only decides *when*
  a run takes its next step, never which step — so per-query scores,
  drain counts and truncation are bitwise identical to serving the
  query alone; only the physical fault schedule moves.  The waves are
  compiled (:mod:`repro.native`): per wave, one ``resident_cluster``
  call and one C call that drains the wave over the resident cluster's
  stored segment bytes and picks the next.  The drain is pinned bit for bit
  against the per-edge drain of ``tests/oracles.py``, the schedule and
  the stores' physical counters against its Python wave loop.
* Hub prime PPVs are rows of the PPV store's one
  :class:`~repro.core.splice.SpliceBlock`, which lives as long as the
  store (:class:`~repro.storage.ppv_store.PooledRecords`): a record is
  read, checked and decoded once, when a round first needs a hub the
  block lacks (``get_many``, offset-ordered reads), and serves every
  later batch until the pool evicts it; a hub query's iteration 0 reads
  its own row back from the block.  At a batch's start the store drops
  the rows of evicted hubs (``trim``); within a batch the block only
  grows, so a round never loses a row it holds.
* The rest is the in-memory engine's batch driver,
  :func:`repro.core.batch.splice_batch`, handed each query's iteration 0
  (a push row, or a hub query's own row of the block) and that block:
  the incremental splice rounds of the whole batch run in lock-step
  through :func:`repro.core.splice.splice_rounds_exact` — over the
  block, the form a :class:`~repro.core.index.PPVIndex` holds its whole
  index in (the backends differ only in ``ensure``); each round is one
  compiled call over the batch's delta-gated frontiers, which
  accumulates in the exact operation order of the paper's per-hub loop
  and asks for the hubs the block lacks first, so scores are **bitwise
  equal** to that loop run over the same store (``tests/oracles.py``
  keeps it and pins the equality, together with the historical per-edge
  drain loop).

Each :class:`~repro.core.query.QueryResult` a disk query serves carries
its I/O record in ``cluster_faults`` / ``hub_reads`` / ``truncated``
(``None`` on memory results), and ``work_units`` as on memory: the
push's edges (every expanded node's out-edges, counted by the drain)
plus the index entries the splices touched.  The record is
*deterministic* I/O:
``cluster_faults`` counts the query's drain steps — the faults a
dedicated **one-cluster-budget** store would incur (the paper's Fig. 16
setting, and the currency the fault budget is charged in) — and
``hub_reads`` counts the hub fetches the query requested.  Both are
independent of batch composition and of the pool's capacity so
experiments stay comparable; the *physical*, amortised I/O is the
delta of the stores' ``faults`` / ``reads`` counters around the call.

The store's block is state every batch shares, read by address, so
batches on one store never overlap.  The callers: the serving
scheduler's drain thread, one batch or stream at a time; direct
``query_many`` callers (``repro query --backend disk``,
:mod:`repro.experiments`, tests), one thread each; the shard router's
engine, on its drain thread, with ``ShardedPPVStore``'s lock around
``get_many``.  A batch trims (and compacts) the block on its own thread
at its start; closing a store never frees the block's arrays.
"""

from __future__ import annotations

import ctypes
import json
import os
import time
import zlib
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro import native
from repro.core.batch import Start, splice_batch
from repro.core.query import (
    DEFAULT_DELTA,
    BatchOfOne,
    QueryResult,
    QueryState,
    StopAfterIterations,
    StoppingCondition,
    query_ids,
)
from repro.core.splice import concat_ranges
from repro.graph.digraph import DiGraph
from repro.storage.clustering import ClusterAssignment, cluster_graph
from repro.storage.ppv_store import DiskPPVStore
from repro.storage.residency import (
    _SEGMENT_HEADER,
    ClusterResidency,
    ResidentCluster,
    StoredBytes,
    _header_implied_size,
)


_REBUILD = (
    "rebuild the cluster directory with DiskGraphStore(graph, assignment, "
    "directory) (shard directories: `repro shard-index`)"
)


class DiskGraphStore(ClusterResidency):
    """A graph segmented into per-cluster files, held through a pool.

    Parameters
    ----------
    graph:
        The graph to segment (used only at build time).
    assignment:
        Cluster assignment from :func:`repro.storage.clustering.cluster_graph`.
    directory:
        Where cluster files are written.
    pool:
        The deployment's :class:`~repro.storage.residency.StoredBytes`
        pool, shared with its PPV store; ``None`` (the default) makes
        one of :data:`~repro.storage.residency.DEFAULT_MEMORY_BYTES`.
        The paper's deployment holds one cluster (a pool of
        :attr:`largest_cluster_bytes`, the Fig. 16 setting); larger pools
        trade memory for fewer faults — the ablation of
        ``benchmarks/bench_fig16_disk.py``.
    fault_plan:
        Tests only: a :class:`repro.faults.FaultPlan` whose
        ``graph_store.load`` site fires per cluster segment actually
        loaded from disk.  ``None`` (the default) keeps the hot path
        hook-free.
    clusters:
        Build only the named clusters — a **partial** store, the unit
        :mod:`repro.sharding` partitions a graph into.  Labels and
        ``num_clusters`` stay global (``cluster_of`` answers for every
        node), but only the owned clusters' segments exist on disk; the
        manifest records the subset and :meth:`open` honours it.
        ``None`` (the default) stores every cluster.

    Notes
    -----
    Directory layout (format 2; see the module docstring for the
    segment bytes): ``cluster_NNNNN.seg`` per stored cluster,
    ``labels.npy`` (global cluster id per node) and ``manifest.json``
    holding ``format``, ``num_nodes``, ``num_clusters`` and, per stored
    cluster, the segment's byte length and CRC-32.

    A cluster fault is **one** ``read()`` of the whole segment, checked
    against the manifest (length, header-implied size, CRC-32) and for
    structure (:meth:`~repro.storage.residency.ClusterResidency.check_segment`)
    before a single edge is served.  :attr:`faults` counts pool misses — what a
    query pays for residency; :attr:`bytes_read` counts segment bytes
    physically read, swap-ins and :meth:`cluster_arrays` reads alike.
    """

    def __init__(
        self,
        graph: DiGraph,
        assignment: ClusterAssignment,
        directory: str | os.PathLike[str],
        *,
        pool: StoredBytes | None = None,
        fault_plan=None,
        clusters: Sequence[int] | None = None,
    ) -> None:
        num_clusters = assignment.num_clusters
        if clusters is None:
            clusters = range(num_clusters)
        clusters = sorted(int(cluster) for cluster in clusters)
        if clusters and not (
            0 <= clusters[0] and clusters[-1] < num_clusters
        ):
            raise ValueError("clusters out of range")
        labels = assignment.labels.copy()
        self._attach(directory, labels, num_clusters, {}, pool, fault_plan)
        self.directory.mkdir(parents=True, exist_ok=True)
        for stale in self.directory.glob("cluster_*.npz"):
            stale.unlink()  # a format-1 build this one replaces
        for cluster in clusters:
            nodes = assignment.members(cluster)
            lengths = graph.out_degrees[nodes]
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            edges = concat_ranges(graph.indptr[nodes], lengths)
            data = b"".join(
                (
                    _SEGMENT_HEADER.pack(nodes.size, edges.size),
                    nodes.astype("<i8").tobytes(),
                    offsets.astype("<i8").tobytes(),
                    graph.edge_probabilities[edges].astype("<f8").tobytes(),
                    graph.indices[edges].astype("<i4").tobytes(),
                )
            )
            with open(self._segment_path(cluster), "wb") as handle:
                handle.write(data)
            self._segments[cluster] = (len(data), zlib.crc32(data))
        np.save(self.directory / "labels.npy", labels)
        manifest = {
            "format": 2,
            "num_nodes": self.num_nodes,
            "num_clusters": num_clusters,
            "clusters": clusters,
            "segments": [self._segments[cluster] for cluster in clusters],
        }
        (self.directory / "manifest.json").write_text(json.dumps(manifest))

    @classmethod
    def open(
        cls,
        directory: str | os.PathLike[str],
        *,
        pool: StoredBytes | None = None,
        fault_plan=None,
    ) -> "DiskGraphStore":
        """Reopen a previously built store without the source graph.

        The build persists everything :meth:`out_edges` needs (cluster
        segments, labels, manifest), so a fresh reader over the same
        directory — another process, or one store per test example — is
        just metadata loads, no re-segmentation.

        Raises :class:`ValueError` for a directory that is not format 2
        (no ``"format": 2`` in the manifest, ``clusters`` and
        ``segments`` not of one length, or ``cluster_*.npz`` files of
        the retired format present).
        """
        directory = Path(directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        clusters, segments = manifest.get("clusters"), manifest.get("segments")
        if (
            manifest.get("format") != 2
            or None in (clusters, segments)
            or len(clusters) != len(segments)
            or any(directory.glob("cluster_*.npz"))
        ):
            raise ValueError(
                f"{manifest_path}: not a format-2 cluster directory (one "
                f"[length, CRC-32] per stored cluster; an older build "
                f"stored .npz segments); {_REBUILD}"
            )
        self = cls.__new__(cls)
        self._attach(
            directory,
            np.load(directory / "labels.npy"),
            int(manifest["num_clusters"]),
            {
                int(cluster): (int(size), int(crc))
                for cluster, (size, crc) in zip(clusters, segments)
            },
            pool,
            fault_plan,
        )
        return self

    def _attach(
        self, directory, labels, num_clusters, segments, pool, fault_plan
    ) -> None:
        """Reader state shared by a fresh build and :meth:`open`."""
        ClusterResidency.__init__(self, labels, num_clusters, pool)
        self.directory = Path(directory)
        self.fault_plan = fault_plan
        self.bytes_read = 0
        # cluster id -> (byte length, CRC-32) of its stored segment.
        self._segments: dict[int, tuple[int, int]] = segments

    def _segment_path(self, cluster: int) -> str:
        return os.path.join(self.directory, f"cluster_{cluster:05d}.seg")

    @property
    def clusters(self) -> list[int]:
        """Ids of the clusters stored here (all of them unless partial)."""
        return list(self._segments)

    @property
    def largest_cluster_bytes(self) -> int:
        """On-disk size of the biggest stored cluster — the minimum
        working set (0 for a partial store that owns no cluster)."""
        return max((size for size, _ in self._segments.values()), default=0)

    @property
    def total_bytes(self) -> int:
        """Total on-disk size of all stored clusters."""
        return sum(size for size, _ in self._segments.values())

    def read_segment(self, cluster: int) -> bytes:
        """One physical, verified read of ``cluster``'s segment: the
        stored bytes, checked against the manifest (length, CRC-32) and
        their own header.  :class:`~repro.storage.residency.ResidentCluster`
        serves them; a shard ships them as they are."""
        return self._read_segment(cluster, self._segment_path(cluster))

    def _read_segment(self, cluster: int, path: str) -> bytes:
        if cluster not in self._segments:
            raise ValueError(
                f"cluster {cluster} is not stored here (partial store "
                f"holding {len(self._segments)} of "
                f"{self.num_clusters} clusters)"
            )
        if self.fault_plan is not None:
            self.fault_plan.fire("graph_store.load", cluster=int(cluster))
        size, crc = self._segments[cluster]
        try:
            descriptor = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            data = b""  # shorter than any segment: refused below
        else:
            try:
                data = os.read(descriptor, os.fstat(descriptor).st_size)
            finally:
                os.close(descriptor)
        self.bytes_read += len(data)
        if not (
            len(data) == size
            and zlib.crc32(data) == crc
            and size == _header_implied_size(data)
        ):
            raise ValueError(
                f"{path}: missing or corrupt cluster segment (length, header "
                f"or CRC-32 disagrees with manifest.json); {_REBUILD}"
            )
        return data

    def _fetch_cluster(self, cluster: int) -> ResidentCluster:
        path = self._segment_path(cluster)
        resident = ResidentCluster(self._read_segment(cluster, path))
        self.check_segment(path, cluster, resident)
        return resident

    def cluster_arrays(self, cluster: int) -> dict:
        """One stored cluster's raw arrays (``nodes`` / ``offsets`` /
        ``targets`` / ``probs``), bypassing the pool.

        This is a read of the stored bytes, not a swap-in: no eviction
        and no :attr:`faults` charge (the ``graph_store.load`` fault
        site still fires — it counts disk loads, and this is one).  A
        shard serves ``fetch_cluster`` from :meth:`read_segment` (the
        stored bytes, undecoded); this is the decoded view.
        """
        resident = self._fetch_cluster(cluster)
        return {
            name: getattr(resident, f"{name}_array")
            for name in ("nodes", "offsets", "targets", "probs")
        }


class _PrimePushRun:
    """One query's cluster-draining prime push: a row of a
    :class:`_ClusterWaves` batch, read once the batch has run.

    The per-query schedule — heaviest pool first with left-to-right pool
    sums and first-inserted ties, FIFO within a cluster,
    ``((1 - alpha) * mass) * p`` shares, scores deposited in edge order —
    is fixed and independent of which cluster happens to be
    memory-resident, so running rows side by side to share residency
    never changes a query's mass flow: ``scores``, ``border``,
    ``drains``, ``edges`` (the out-edges of every expanded node) and
    ``truncated`` are bitwise those of the query pushed
    alone, and equal the per-edge
    ``tests/oracles.py::ReferencePrimePushRun`` byte for byte
    (``tests/test_native_kernels.py``).  The fault budget is charged per
    *drain step* — exactly the faults a dedicated one-cluster-budget
    store would incur — so truncation is deterministic and independent
    of what else is in the batch.
    """

    __slots__ = ("scores", "_state", "_border_hubs", "_border_mass")

    def __init__(self, waves: "_ClusterWaves", row: int) -> None:
        arrays = waves.arrays
        self.scores = arrays["scores"][row]
        self._state = waves.runs[row]  # a view that keeps the batch alive
        self._border_hubs = arrays["border_hubs"][row]
        self._border_mass = arrays["border_mass"][row]

    @property
    def drains(self) -> int:
        return self._state.drains

    @property
    def truncated(self) -> bool:
        return bool(self._state.truncated)

    @property
    def edges(self) -> int:
        return self._state.edges

    def frontier(self) -> tuple[np.ndarray, np.ndarray]:
        count = self._state.border_count
        return self._border_hubs[:count].copy(), self._border_mass[:count].copy()

    @property
    def border(self) -> dict[int, float]:
        hubs, masses = self.frontier()
        return dict(zip(hubs.tolist(), masses.tolist()))


class _ClusterWaves:
    """The prime pushes of one batch's non-hub sources, drained in
    cluster waves by the compiled kernels of :mod:`repro.native`.

    Each wave drains, over one resident cluster, every run whose next
    step needs that cluster, so the batch faults a cluster in once per
    wave instead of once per query.  Waves are **residency-first**:
    among the clusters runs need next, one the store already holds is
    drained before any other (most demanded first, ties to the smallest
    id); a new cluster is faulted in only when no held one is needed,
    and then the most demanded.  Under a pool that holds more than one
    cluster a demand-only choice evicts clusters the batch still needs and faults
    them back in; draining what is held first does not.  The rule
    lives in ``kernels.c`` next to the drains and reads the store's
    :attr:`~repro.storage.residency.ClusterResidency.resident_flags`;
    the Python statement of the loop is the reference wave schedule of
    ``tests/oracles.py``.

    :meth:`run` makes, per wave, one ``graph_store.resident_cluster``
    call (the ledger times cluster loads through that name) and one C
    call that drains the wave and picks the next.  The state of every
    run is allocated here, once per batch: per-node arrays of shape
    ``(rows, num_nodes)``, per-cluster arrays of ``(rows,
    num_clusters)``, and one row-lookup array the waves share.  Every
    array the kernels see is created here with its dtype and shape and
    is held for as long as the C structs point at it; a wave reads its
    cluster's rows straight out of the stored segment bytes, which the
    store checked when it loaded them
    (:meth:`~repro.storage.residency.ClusterResidency.check_segment`).
    """

    def __init__(
        self, graph_store, sources, hub_mask, alpha, epsilon, fault_budget
    ) -> None:
        lib = native.load()
        num_nodes, num_clusters = graph_store.num_nodes, graph_store.num_clusters
        labels = graph_store.labels  # int64, C-contiguous (ClusterResidency)
        hubs = np.require(hub_mask, np.bool_, "CA")
        if labels.shape != (num_nodes,) or hubs.shape != (num_nodes,):
            raise ValueError("labels and hub_mask need one entry per node")
        sources = np.array(sources, np.int64)
        outside = sources[(labels[sources] < 0) | (labels[sources] >= num_clusters)]
        if outside.size:
            raise ValueError(f"node {outside[0]} is labelled outside the clusters")
        rows = sources.size
        per_node, per_cluster = (rows, num_nodes), (rows, num_clusters)
        # Zeroed where the kernels read before they write; the rest is
        # written first (mass and links on insertion, heads at start).
        self.arrays = arrays = dict(
            labels=labels,
            hubs=hubs,
            sources=sources,
            scores=np.zeros(per_node),
            mass=np.empty(per_node),
            next=np.empty(per_node, np.int32),
            row=np.zeros(num_nodes, np.int32),
            slot=np.zeros(per_node, np.int32),
            queued=np.zeros(per_node, np.uint8),
            head=np.empty(per_cluster, np.int64),
            tail=np.empty(per_cluster, np.int64),
            order=np.empty(per_cluster, np.int64),
            border_hubs=np.empty(per_node, np.int64),
            border_mass=np.empty(per_node),
            demand=np.zeros(num_clusters, np.int64),
        )
        self.graph_store = graph_store
        self.runs = (native.PushRun * rows)()
        self.runs[0] = native.PushRun(
            num_nodes=num_nodes, num_clusters=num_clusters,
            fault_budget=fault_budget, alpha=alpha, epsilon=epsilon,
            **{name: arrays[name].ctypes.data for name in (
                "labels", "hubs", "scores", "mass", "next", "row", "slot",
                "queued", "head", "tail", "order", "border_hubs", "border_mass",
            )},
        )
        self.state = native.PushWaves(
            rows=rows,
            runs=ctypes.addressof(self.runs),
            sources=sources.ctypes.data,
            demand=arrays["demand"].ctypes.data,
            # Read in place by every wave; the store holds the array.
            held=graph_store.resident_flags.ctypes.data,
        )
        self._ref = ctypes.byref(self.state)
        self._wave = lib.repro_wave
        lib.repro_waves_start(self._ref)

    def rows(self) -> list[_PrimePushRun]:
        """One :class:`_PrimePushRun` per source, in order."""
        return [_PrimePushRun(self, row) for row in range(len(self.runs))]

    def run(self) -> None:
        """Drain wave after wave until every run is done (or truncated
        by its budget)."""
        while self.state.wave >= 0:
            self.step()

    def step(self) -> None:
        """Drain the staged wave and stage the next (``state.wave``, -1
        once every run is done)."""
        cluster = self.state.wave
        status = self._wave(
            self._ref, self.graph_store.resident_cluster(cluster).segment
        )
        if status:
            raise ValueError(
                f"node {-status - 1} reached while draining cluster "
                f"{cluster} is labelled with a cluster that does not hold it"
            )


class DiskFastPPV(BatchOfOne):
    """FastPPV online processing against disk-resident graph and index.

    Serves batches, amortising cluster faults (cluster-grouped prime
    pushes) across the queries of one call and hub record reads across
    calls (each record decoded once into the store's splice block while
    the pool holds it) — see the module docstring.  A single query is
    the batch of one, so per-query results never depend on what else
    was served alongside.

    Parameters
    ----------
    graph_store:
        Cluster-segmented graph (:class:`DiskGraphStore`).
    ppv_store:
        On-disk PPV index (:class:`DiskPPVStore`).
    delta:
        Border-hub expansion threshold (as in the in-memory engine).
    fault_budget:
        Prime-subgraph search stops expanding new nodes once this many
        cluster drains occurred within one query; defaults to the number
        of clusters (the paper's robust choice).
    max_iterations:
        Hard safety cap on incremental iterations regardless of the
        stopping condition, matching the in-memory engine's contract
        (:class:`~repro.core.batch.FastPPV`, default 64).
    """

    def __init__(
        self,
        graph_store: DiskGraphStore,
        ppv_store: DiskPPVStore,
        delta: float = DEFAULT_DELTA,
        fault_budget: int | None = None,
        max_iterations: int = 64,
    ) -> None:
        if graph_store.num_nodes != ppv_store.num_nodes:
            raise ValueError("graph store and PPV store disagree on node count")
        if delta < 0.0:
            raise ValueError("delta must be non-negative")
        if fault_budget is not None and fault_budget < 1:
            raise ValueError("fault_budget must be at least one cluster drain")
        native.load()  # refuse here, before serving, when the kernels cannot load
        self.graph_store = graph_store
        self.ppv_store = ppv_store
        self.delta = delta
        self.fault_budget = (
            fault_budget if fault_budget is not None else graph_store.num_clusters
        )
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------ #

    def _grouped_pushes(self, ids: list[int]) -> dict[int, _PrimePushRun]:
        """Run the prime pushes of all unique non-hub queries as one
        :class:`_ClusterWaves` batch: a wave drains every run that needs
        one cluster next while that cluster is resident.

        Push is order-independent (any schedule that expands every
        super-threshold residual converges to the same vector), so
        instead of the in-memory engine's level-synchronous order each
        run *drains one cluster at a time* — intra-cluster mass bounces
        without I/O, only exported mass is deferred.  This mirrors the
        paper's DFS-within-cluster search and keeps faults near the
        number of distinct clusters the prime subgraph overlaps.
        """
        sources = list(
            dict.fromkeys(q for q in ids if q not in self.ppv_store)
        )
        if not sources:
            return {}
        waves = _ClusterWaves(
            self.graph_store,
            sources,
            self.ppv_store.hub_mask,
            self.ppv_store.alpha,
            self.ppv_store.epsilon,
            self.fault_budget,
        )
        waves.run()
        return dict(zip(sources, waves.rows()))

    def query_many(
        self,
        queries: Sequence[int],
        stop: StoppingCondition | None = None,
        on_iteration: "Callable[[int, QueryState], None] | None" = None,
    ) -> list[QueryResult]:
        """Estimate the PPVs of ``queries`` from disk, preserving order.

        Scores, iteration counts, I/O accounting and truncation flags of
        each element are identical to serving it alone; only the
        physical I/O schedule differs.  Duplicated query ids share one
        prime push.  ``stop`` is evaluated per query (it sees per-query
        state, including ``scores``, so certificate conditions work
        here too) and must be stateless.  ``on_iteration`` mirrors the
        in-memory batch engine's :data:`~repro.core.batch.BatchCallback`
        contract: invoked as ``on_iteration(position, state)`` once per
        executed iteration per query, iteration 0 included (the prime
        push that *builds* iteration 0 is not observable step by step).
        """
        ids = query_ids(queries, self.graph_store.num_nodes)
        if stop is None:
            stop = StopAfterIterations(2)
        started = time.perf_counter()
        self.ppv_store.trim()
        pushed = {
            q: Start(
                run.scores, *run.frontier(), run.edges,
                (run.drains, 0, run.truncated),
            )
            for q, run in self._grouped_pushes(ids).items()
        }
        # The store's block: the hub queries' own rows now, the rows a
        # round lacks when it first needs them.
        hub_query = Start(io=(0, 1, False))  # one hub read, no push
        return splice_batch(
            ids,
            [pushed.get(q, hub_query) for q in ids],
            self.ppv_store.get_many([q for q in ids if q not in pushed]),
            self.ppv_store.get_many,
            stop,
            self.delta,
            self.max_iterations,
            started,
            on_iteration,
        )
