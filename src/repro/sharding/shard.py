"""The shard side of sharded serving: a data-plane engine.

A shard process is an ordinary :class:`~repro.server.PPVServer`
(forked by a :class:`~repro.server.pool.ServerPool`) whose engine is a
:class:`ShardEngine` over one shard directory produced by
:func:`repro.sharding.partition.partition_index`.  It serves no queries
of its own — all scoring runs at the router, so every byte a shard
ships is a verbatim read of its stores — just the three data verbs.
The two that move data answer with the **stored record as it lies on
disk**, base64 text inside the ordinary JSONL reply: no array is
rebuilt, no number is printed, and the router decodes the bytes with
the decoder a local read uses
(:func:`repro.storage.ppv_store.decode_records`,
:func:`repro.storage.residency.decode_segment`).

``fetch_hubs``
    ``{"<hub>": {"entries": n, "borders": m, "payload": "<base64>"}}``
    per requested owned hub: the hub's two directory counts and its
    ``16 * (n + m)`` payload bytes (``nodes i64[n] | scores f64[n] |
    border_hubs i64[m] | border_masses f64[m]``, little-endian — the
    layout of :mod:`repro.storage.ppv_store`).
``fetch_cluster``
    ``{"segment": "<base64>"}``: one owned cluster's whole format-2
    segment, header included (``members u64 | edges u64 | nodes
    i64[members] | offsets i64[members + 1] | probs f64[edges] |
    targets i32[edges]`` — the layout of
    :mod:`repro.storage.disk_engine`), length- and CRC-32-checked
    against the shard's manifest on every read and bypassing the pool —
    a fetch is a read of the stored bytes, not a swap-in.  ``fetch_hubs``
    reads its records the same way (``read_records``): the router's pool
    is the one cache of a sharded deployment.
``shard_info``
    The shard's partition coordinates (from ``shard.json``) plus the
    global cluster labels, from which the router bootstraps without
    ever reading the partition root itself.

A shard answers no query family, so a ``query`` or ``stream`` sent to
it is refused at admission as ``unsupported_family``, and its
``stats`` lists ``families: []``.  Fetches run under one lock: the TCP
front-end executes them on ``asyncio.to_thread`` workers, and the
underlying stores share seekable file handles that must not interleave.
"""

from __future__ import annotations

import base64
import json
import threading
from pathlib import Path

from repro.storage.disk_engine import DiskGraphStore
from repro.storage.ppv_store import DiskPPVStore

from repro.sharding.partition import SHARD_META_NAME


def encode_record(entries: int, borders: int, payload: bytes) -> dict:
    """One hub's stored record (:meth:`DiskPPVStore.read_record`) as a
    ``fetch_hubs`` reply value."""
    return {
        "entries": entries,
        "borders": borders,
        "payload": base64.b64encode(payload).decode("ascii"),
    }


def encode_segment(segment: bytes) -> dict:
    """One stored cluster segment (:meth:`DiskGraphStore.read_segment`)
    as the ``fetch_cluster`` reply."""
    return {"segment": base64.b64encode(segment).decode("ascii")}


class ShardEngine:
    """Serve one shard directory's stores to a shard router.

    Sits behind ``PPVService``/``PPVServer`` with what the service reads
    off any engine (``num_nodes``, ``cache_token``, ``close``) and the
    data verbs only:
    :meth:`fetch_hubs` / :meth:`fetch_cluster` / :meth:`shard_info`.
    It has no query methods, so it supports no query family.
    """

    backend = "shard"

    def __init__(self, shard_dir, *, fault_plan=None) -> None:
        self.shard_dir = Path(shard_dir)
        self.fault_plan = fault_plan
        self._lock = threading.Lock()
        self.meta = self._read_meta(self.shard_dir)
        self.shard = int(self.meta["shard"])
        self.num_shards = int(self.meta["num_shards"])
        self.ppv_store = DiskPPVStore(
            self.shard_dir / "index.fppv", fault_plan=fault_plan
        )
        self.graph_store = DiskGraphStore.open(
            self.shard_dir / "graph", fault_plan=fault_plan
        )

    @staticmethod
    def _read_meta(shard_dir: Path) -> dict:
        meta_path = shard_dir / SHARD_META_NAME
        if not meta_path.exists():
            raise FileNotFoundError(
                f"no {SHARD_META_NAME} under {shard_dir}; not a shard "
                "directory (build one with partition_index / repro "
                "shard-index)"
            )
        return json.loads(meta_path.read_text())

    # ------------------------------------------------------------------ #
    # Lifecycle

    @property
    def num_nodes(self) -> int:
        return self.graph_store.num_nodes

    def cache_token(self) -> object:
        return self.ppv_store

    def close(self) -> None:
        self.ppv_store.close()

    # ------------------------------------------------------------------ #
    # Data verbs

    def fetch_hubs(self, hubs) -> dict:
        """Stored records of ``hubs``, keyed by hub id (as JSON string
        keys on the wire).

        Raises :class:`KeyError` for a hub this shard does not own —
        the front-end renders that as a structured ``invalid`` error.
        """
        with self._lock:
            records = self.ppv_store.read_records(hubs)
        return {str(hub): encode_record(*record) for hub, record in records.items()}

    def fetch_cluster(self, cluster: int) -> dict:
        """One owned cluster's stored segment.

        Raises :class:`ValueError` for a cluster stored elsewhere, or a
        segment that fails its length / CRC-32 check.
        """
        with self._lock:
            segment = self.graph_store.read_segment(int(cluster))
        return encode_segment(segment)

    def shard_info(self) -> dict:
        """Partition coordinates + global labels for router bootstrap."""
        with self._lock:
            labels = self.graph_store.labels.tolist()
        info = dict(self.meta)
        info.pop("index_bytes", None)
        info.pop("graph_bytes", None)
        info["labels"] = labels
        return info

    # ------------------------------------------------------------------ #
    # Hot swap

    def replace_from_path(self, path) -> None:
        """Reopen this shard's stores from a (new) shard directory.

        The router rolls a partition swap by sending each shard its own
        ``root/shard_NN`` path; the shard id and shard count must match
        this process's slice so a fleet can never end up serving two
        different partitions' coordinates under one id.
        """
        shard_dir = Path(path)
        meta = self._read_meta(shard_dir)
        if int(meta["shard"]) != self.shard:
            raise ValueError(
                f"shard directory {shard_dir} holds shard {meta['shard']}, "
                f"but this process serves shard {self.shard}"
            )
        if int(meta["num_shards"]) != self.num_shards:
            raise ValueError(
                f"partition at {shard_dir} has {meta['num_shards']} shards, "
                f"but this fleet runs {self.num_shards}"
            )
        ppv_store = DiskPPVStore(
            shard_dir / "index.fppv", fault_plan=self.fault_plan
        )
        try:
            graph_store = DiskGraphStore.open(
                shard_dir / "graph", fault_plan=self.fault_plan
            )
        except (FileNotFoundError, ValueError):
            ppv_store.close()
            raise
        with self._lock:
            old = self.ppv_store
            self.shard_dir = shard_dir
            self.meta = meta
            self.ppv_store = ppv_store
            self.graph_store = graph_store
            old.close()


def shard_service_factory(shard_dir, *, fault_plan=None, obs=True):
    """A zero-argument ``PPVService`` factory for one shard directory —
    the shape :class:`~repro.server.pool.ServerPool` wants.

    The service carries no result cache (a shard never serves results)
    and opens its stores inside the shard process, after the fork; each
    shard gets its own default :class:`~repro.obs.Observability`, so the
    shard exports store counters in ``stats`` and continues router
    traces.

    ``obs`` is not a switch: it only tolerates the literal ``True`` the
    frozen ``benchmarks/ledger/serve_traced.py`` passes, and goes away
    at the next benchmark re-anchor.
    """
    if obs is not True:
        raise TypeError(
            "shard_service_factory() takes no obs= option; shard "
            "servers are always observable"
        )
    shard_dir = Path(shard_dir)

    def factory():
        from repro.serving.service import PPVService

        return PPVService(
            ShardEngine(shard_dir, fault_plan=fault_plan), cache_size=0
        )

    return factory
