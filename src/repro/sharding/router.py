"""The shard router: exact FastPPV serving over a shard fleet.

:class:`RouterEngine` is the disk backend's engine,
:class:`~repro.storage.disk_engine.DiskFastPPV`, over the remote twins
of its two stores (:mod:`repro.sharding.remote`): the disk engine runs
*at the router*, fetching hub prime PPVs and cluster adjacency from
shard processes on demand.  Identical
kernel + bit-identical data (a fetch ships the stored record's bytes
and the router decodes them with the local stores' decoders) +
identical operation order make every result — multi-node splices
through ``combine_results``, certified top-k included — bitwise equal
to an unsharded disk deployment of the same index.  The router
bootstraps purely from a ``shard_info`` fan-out, so it needs network
reachability to the shards, not the partition root's filesystem.

Put a :class:`~repro.server.PPVServer` in front of a ``PPVService``
over this engine and you have a shard router speaking the ordinary
JSONL wire protocol; :class:`ShardRouter` bundles exactly that, plus
forking one shard server process per shard directory
(:class:`~repro.server.pool.ServerPool`) from a partition root, into
one lifecycle object.

Hot swap rolls across the fleet: the router's front-end holds (never
drops) new admissions behind its swap gate, drains in-flight work,
sends each shard its own ``swap_index`` for ``root/shard_NN``, then
re-bootstraps the remote stores over a fresh pool of stored bytes —
queries admitted before the swap are answered from the old partition,
queries after from the new one, and no byte of the old one is served
after the swap.
"""

from __future__ import annotations

import inspect
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.query import DEFAULT_DELTA
from repro.obs import Histogram, MetricsRegistry, Observability
from repro.serving.service import DEFAULT_CACHE_SIZE, PPVService
from repro.server.client import ServerError
from repro.server.protocol import ShardUnavailableError
from repro.server.pool import ServerPool
from repro.server.server import PPVServer, ServerConfig

from repro.sharding.partition import (
    load_shard_map,
    partition_index,
    shard_dir_name,
)
from repro.sharding.remote import (
    ShardedGraphStore,
    ShardedPPVStore,
    ShardFleet,
)
from repro.sharding.shard import shard_service_factory
from repro.storage.disk_engine import DiskFastPPV
from repro.storage.residency import DEFAULT_MEMORY_BYTES, StoredBytes

_AGREED_KEYS = (
    "num_shards",
    "num_nodes",
    "num_clusters",
    "alpha",
    "epsilon",
    "clip",
    "cluster_shards",
)


class RouterEngine(DiskFastPPV):
    """The ``"sharded"`` backend: a disk engine over remote stores.

    Parameters
    ----------
    addresses:
        ``(host, port)`` of each shard's server, indexed by
        shard id — shard ``s`` must be served at ``addresses[s]``
        (validated against every shard's own ``shard_info``).
    timeout:
        Per-round-trip deadline on the shard connections; a hung shard
        surfaces as :class:`ShardUnavailableError` instead of stalling
        the drain thread forever.
    memory_bytes:
        Capacity of the router's one pool of stored bytes (cluster
        segments and hub records; see :mod:`repro.sharding.remote`);
        affects refetch traffic only, never results.
    fault_plan:
        Tests only: fires the ``router.dispatch`` / ``router.connect``
        / ``shard.recv`` sites (see :mod:`repro.faults`).
    delta / fault_budget / max_iterations:
        The disk engine's, as on ``DiskFastPPV``.
    """

    backend = "sharded"

    def __init__(
        self,
        addresses: Sequence[tuple],
        *,
        timeout: float | None = 30.0,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
        fault_plan=None,
        delta: float = DEFAULT_DELTA,
        fault_budget: int | None = None,
        max_iterations: int = 64,
    ) -> None:
        self.fleet = ShardFleet(
            addresses, timeout=timeout, fault_plan=fault_plan
        )
        self._memory_bytes = memory_bytes
        self._engine_kwargs = {
            "delta": delta,
            "fault_budget": fault_budget,
            "max_iterations": max_iterations,
        }
        # One reentrant lock serialises ALL fleet traffic (the remote
        # stores share it): the service's drain thread, stream pump
        # threads and the front-end's stats/swap to_thread workers may
        # overlap, and a pipelined connection cannot interleave users.
        self._lock = threading.RLock()
        with self._lock:
            self._bootstrap_locked()

    # ------------------------------------------------------------------ #
    # Bootstrap

    def _bootstrap_locked(self) -> None:
        infos = self.fleet.request_all({"verb": "shard_info"})
        base = infos[0]
        if int(base["num_shards"]) != self.fleet.num_shards:
            raise ValueError(
                f"partition has {base['num_shards']} shards but the "
                f"fleet lists {self.fleet.num_shards} addresses"
            )
        hub_shards: dict[int, int] = {}
        for shard in range(self.fleet.num_shards):
            info = infos[shard]
            if int(info["shard"]) != shard:
                raise ValueError(
                    f"address {shard} ({self.fleet.addresses[shard]}) "
                    f"answered as shard {info['shard']}; the address "
                    "list must be indexed by shard id"
                )
            for key in _AGREED_KEYS:
                if info[key] != base[key]:
                    raise ValueError(
                        f"shard {shard} disagrees with shard 0 on "
                        f"{key!r} ({info[key]!r} != {base[key]!r}); "
                        "the fleet is serving mixed partitions"
                    )
            for hub in info["hubs"]:
                if hub in hub_shards:
                    raise ValueError(
                        f"hub {hub} is claimed by shards "
                        f"{hub_shards[hub]} and {shard}"
                    )
                hub_shards[hub] = shard
        # A fresh pool per bootstrap: a swap never serves a stored byte
        # of the old partition.
        pool = StoredBytes(self._memory_bytes)
        ppv_store = ShardedPPVStore(
            self.fleet,
            alpha=float(base["alpha"]),
            epsilon=float(base["epsilon"]),
            clip=float(base["clip"]),
            num_nodes=int(base["num_nodes"]),
            hub_shards=hub_shards,
            pool=pool,
            lock=self._lock,
        )
        graph_store = ShardedGraphStore(
            self.fleet,
            labels=np.asarray(base["labels"], dtype=np.int64),
            cluster_shards=base["cluster_shards"],
            pool=pool,
            lock=self._lock,
        )
        DiskFastPPV.__init__(
            self, graph_store, ppv_store, **self._engine_kwargs
        )

    # ------------------------------------------------------------------ #
    # Hot swap (rolls across the fleet)

    def replace_from_path(self, path) -> None:
        """Swap the whole fleet to the partition at ``path``.

        ``path`` is a partition root (``shard_map.json`` + shard
        directories) on a filesystem **the shards can see**; each shard
        gets ``swap_index`` for its own ``root/shard_NN``, sequentially,
        then the remote stores re-bootstrap (which also revalidates
        cross-shard agreement).  The front-end holds admissions while
        this runs, so no query observes a half-swapped fleet through
        this router.  If a shard refuses mid-roll the fleet is left
        mixed — the raised error says which shard; fix and re-issue the
        swap (swapping to the already-current partition is a no-op per
        shard).
        """
        with self._lock:
            manifest = load_shard_map(path)
            if int(manifest["num_shards"]) != self.fleet.num_shards:
                raise ValueError(
                    f"partition at {path} has {manifest['num_shards']} "
                    f"shards; this router fronts {self.fleet.num_shards}"
                )
            for shard in range(self.fleet.num_shards):
                shard_path = str(Path(path) / shard_dir_name(shard))
                try:
                    self.fleet.request(
                        shard, {"verb": "swap_index", "path": shard_path}
                    )
                except ServerError as error:
                    raise ValueError(
                        f"shard {shard} refused the swap: {error}"
                    ) from None
            self._bootstrap_locked()

    # ------------------------------------------------------------------ #
    # Stats + traces

    def trace_spans(
        self, trace_id: "str | None" = None, limit: "int | None" = None
    ) -> list:
        """Fan the ``trace`` verb to every shard and concatenate the
        replies' spans (the caller merges in its own tracer's spans and
        sorts)."""
        body: dict = {"verb": "trace"}
        if trace_id is not None:
            body["trace_id"] = str(trace_id)
        if limit is not None:
            body["limit"] = int(limit)
        with self._lock:
            replies = self.fleet.request_all(body)
        spans: list = []
        for shard in range(self.fleet.num_shards):
            spans.extend(replies[shard].get("spans", ()))
        return spans

    def shard_stats(self) -> dict:
        """Fan ``stats`` to every shard and aggregate.

        Returns per-shard serving counters plus the router's own fetch
        distribution, the shards' latency histograms merged through
        :meth:`repro.obs.Histogram.merge`, ``fetch_balance`` — the
        max/mean ratio of per-shard fetch counts (1.0 = perfectly
        balanced) — and ``families``, the per-query-family submission
        counts and merged latency aggregated across the fleet.
        """
        with self._lock:
            replies = self.fleet.request_all({"verb": "stats"})
            hub_fetches = list(self.ppv_store.shard_fetches)
            cluster_fetches = list(self.graph_store.shard_fetches)
        per_shard = []
        for shard in range(self.fleet.num_shards):
            reply = replies[shard]
            per_shard.append(
                {
                    "shard": shard,
                    "hub_fetches": hub_fetches[shard],
                    "cluster_fetches": cluster_fetches[shard],
                    "requests_total": reply["server"]["requests_total"],
                    "worker": reply["worker"],
                    "latency": reply["service"]["latency"],
                    "families": reply["service"].get("families", {}),
                }
            )
        fetches = [
            hubs + clusters
            for hubs, clusters in zip(hub_fetches, cluster_fetches)
        ]
        mean = sum(fetches) / len(fetches)
        # Per-family aggregation across the fleet: submissions add,
        # latency histograms merge (same additive contract as the
        # fleet-wide histogram above).
        family_names = sorted(
            {
                name
                for entry in per_shard
                for name in entry["families"]
            }
        )
        families = {}
        for name in family_names:
            shards_with = [
                entry["families"][name]
                for entry in per_shard
                if name in entry["families"]
            ]
            families[name] = {
                "submitted": sum(s["submitted"] for s in shards_with),
                "latency": Histogram.merge(
                    [s["latency"] for s in shards_with]
                ),
            }
        stats = {
            "num_shards": self.fleet.num_shards,
            "per_shard": per_shard,
            "latency": Histogram.merge(
                [entry["latency"] for entry in per_shard]
            ),
            "fetch_balance": (max(fetches) / mean) if mean else 1.0,
            "families": families,
        }
        # Every shard exports its full registry snapshot; sum them into
        # one fleet-wide view.
        stats["metrics"] = MetricsRegistry.merge(
            [
                replies[shard]["metrics"]
                for shard in range(self.fleet.num_shards)
            ]
        )
        return stats

    def close(self) -> None:
        self.ppv_store.close()
        self.graph_store.close()
        self.fleet.close()


class ShardRouter:
    """Everything between a partition root and a listening router port.

    Forks one shard server process (a
    :class:`~repro.server.pool.ServerPool`) per shard directory, builds
    a :class:`RouterEngine` over their addresses, wraps it in a
    ``PPVService`` and serves that with a background
    :class:`~repro.server.PPVServer`::

        with ShardRouter(root) as (host, port):
            with PPVClient(host, port) as client:
                client.query(42, top_k=10)

    :meth:`partitioning` builds the partition root first, from a graph
    and a built index.

    Parameters
    ----------
    root:
        A partition root from :func:`repro.sharding.partition.
        partition_index` (or ``repro shard-index``).
    config:
        The router front-end's :class:`ServerConfig` (host/port,
        admission bounds).  Shard servers always bind an OS-assigned
        port on ``shard_host``.
    cache_size:
        The router service's popularity cache.
    obs:
        The router-side :class:`~repro.obs.Observability` bundle; a
        fresh one by default.  Pass one to configure the slow-query
        log or the span log.  Shard servers always build their own.
    engine_kwargs:
        Forwarded to :class:`RouterEngine` (``timeout``,
        ``delta``, ``memory_bytes``, ...); a keyword it does not take is
        a ``TypeError`` here, before any shard forks.

    Attributes
    ----------
    pools:
        The per-shard :class:`ServerPool` objects, by shard id — the
        fault suites SIGKILL shard servers through these.
    service / server:
        The router-side service and front-end, once started.
    """

    def __init__(
        self,
        root,
        *,
        config: ServerConfig | None = None,
        shard_host: str = "127.0.0.1",
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_batch: int | None = None,
        max_delay=None,
        fault_plan=None,
        obs=None,
        **engine_kwargs,
    ) -> None:
        inspect.signature(RouterEngine).bind((), **engine_kwargs)
        self.root = Path(root)
        self.config = config or ServerConfig()
        self.shard_host = shard_host
        self.obs = obs or Observability()
        self.service_kwargs: dict = {"cache_size": cache_size}
        if max_batch is not None:
            self.service_kwargs["max_batch"] = max_batch
        if max_delay is not None:
            self.service_kwargs["max_delay"] = max_delay
        self.fault_plan = fault_plan
        self.engine_kwargs = engine_kwargs
        self.manifest = load_shard_map(self.root)
        self.pools: list[ServerPool] = []
        self.addresses: list[tuple] = []
        self.service: PPVService | None = None
        self.server: PPVServer | None = None
        self._background = None
        self._owns_root = False

    @classmethod
    def partitioning(
        cls,
        graph,
        index,
        num_shards: int,
        *,
        root=None,
        num_clusters: int | None = None,
        seed: int = 0,
        **router_kwargs,
    ) -> "ShardRouter":
        """Partition ``index`` into ``num_shards`` shards on the fly and
        front the result (``repro serve --shards N``).

        ``root`` / ``num_clusters`` / ``seed`` are
        :func:`~repro.sharding.partition.partition_index`'s; everything
        else is the constructor's.  With no ``root`` the partition goes
        to a temp directory this router owns: :meth:`stop` removes it,
        so such a router serves once.
        """
        owns_root = root is None
        if owns_root:
            root = tempfile.mkdtemp(prefix="fastppv_shards_")
        try:
            partition_index(
                graph, index, num_shards, root,
                num_clusters=num_clusters, seed=seed,
            )
            router = cls(root, **router_kwargs)
        except BaseException:
            if owns_root:
                shutil.rmtree(root, ignore_errors=True)
            raise
        router._owns_root = owns_root
        return router

    def _spawn(self) -> None:
        """Start the shard servers and build the router service."""
        if self.service is not None:
            raise RuntimeError("router already started")
        for entry in self.manifest["shards"]:
            pool = ServerPool(
                shard_service_factory(self.root / entry["dir"]),
                config=ServerConfig(host=self.shard_host, port=0),
            )
            self.pools.append(pool)
            self.addresses.append(pool.start())
        engine = RouterEngine(
            self.addresses,
            fault_plan=self.fault_plan,
            **self.engine_kwargs,
        )
        self.service = PPVService(engine, obs=self.obs, **self.service_kwargs)

    def start(self) -> tuple:
        """Spawn the shard servers and the router (on a background
        thread); return the router's bound ``(host, port)``."""
        try:
            self._spawn()
            self.server = PPVServer(self.service, self.config)
            self._background = self.server.background()
            return self._background.__enter__()
        except BaseException:
            self.stop()
            raise

    def serve_forever(self, announce=None) -> int:
        """Foreground CLI path: serve the router on this thread until
        interrupted, then tear everything down.  Returns :meth:`stop`'s
        exit code."""
        import asyncio

        try:
            self._spawn()
            self.server = PPVServer(self.service, self.config)
            try:
                asyncio.run(self.server.serve(on_ready=announce))
            except KeyboardInterrupt:
                pass
        finally:
            code = self.stop()
        return code

    def stop(self) -> int:
        """Stop the router, close the fleet, stop the shard servers (and
        remove a partition root :meth:`partitioning` made up).  Returns
        the worst shard exit code (0 = all clean; see
        :meth:`ServerPool.stop`)."""
        if self._background is not None:
            background, self._background = self._background, None
            background.__exit__(None, None, None)
        self.server = None
        if self.service is not None:
            service, self.service = self.service, None
            service.close()
        code = max((pool.stop() for pool in self.pools), default=0)
        self.pools = []
        self.addresses = []
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)
        return code

    def __enter__(self) -> tuple:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
