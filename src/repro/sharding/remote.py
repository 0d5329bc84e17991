"""The router side of sharded serving: fleet + remote stores.

Why fetch, not partial-score merge
----------------------------------
The repo's acceptance bar for every serving layer is **bitwise
equality** with the engine it fronts.  Summing per-shard partial score
vectors at a router cannot meet that bar: float addition is not
associative, the per-hub delta gate ``alpha * mass > delta`` is not
linear in partial masses, and the per-round ``l1_error`` is a pairwise
``np.sum``.  So instead of moving the *computation* to the shards, the
router moves the *data* from them: it runs the ordinary
:class:`~repro.storage.disk_engine.DiskFastPPV` engine locally over
two remote stores —
:class:`ShardedPPVStore` and :class:`ShardedGraphStore` — that fetch
hub prime PPVs and cluster adjacency from the owning shard processes
on demand.  A fetch carries the **stored record's own bytes** (base64
text inside the JSONL reply; see :mod:`repro.sharding.shard` for the
fields) and the router decodes them with the decoder a local read
uses — :func:`~repro.storage.ppv_store.decode_records`,
:func:`~repro.storage.residency.decode_segment` — so a fetched
payload is a local disk read by construction, dtypes included;
identical kernel + identical data + identical operation order =
bitwise-identical results, certified top-k included.  The shards hold
the index — the O(hubs x reachable-nodes) structure that dominates
memory — while the router holds one
:class:`~repro.storage.residency.StoredBytes` pool of stored bytes,
bounded in bytes and shared by its two stores, so capacity scales with
the shard count.  The pool is the one cache of a sharded deployment:
shards read their stores physically on every fetch.  It holds stored
segments, and the sizes of the hub records whose decoded rows the PPV
store's one splice block holds
(:class:`~repro.storage.ppv_store.PooledRecords`): a record is checked
once, in :meth:`ShardedPPVStore._fetch`, when it arrives, decoded once
by :func:`~repro.storage.ppv_store.decode_records` and appended; a hub
the block holds is never fetched or decoded again until the pool
evicts it.

What is verified where: the shard checks every segment it reads
against its manifest (length, CRC-32, header); the router checks that
a reply has the expected keys, that the base64 is valid and that the
byte length is the one the segment header / the hub's two counts
imply.  There is one payload format and no negotiation — router and
shards are started together from one tree — so a reply that fails any
of these is refused as :class:`ShardUnavailableError` naming the shard
and the verb, the same verdict as a dead shard.

Each shard's hub fan-out per ``get_many`` is **pipelined across
shards**: one ``fetch_hubs`` request per owning shard goes out on that
shard's own connection before any reply is read, so shards serve their
slices concurrently.

Failure semantics: a dead shard surfaces as a prompt
:class:`~repro.server.protocol.ShardUnavailableError` (after one
reconnect attempt), which the TCP front-end maps to the structured
``shard_unavailable`` error — never a hang.  Fault sites
``router.dispatch`` / ``router.connect`` / ``shard.recv`` (see
:mod:`repro.faults`) cover the dispatch, connection and reply paths.
"""

from __future__ import annotations

import base64
import threading
from typing import Sequence

import numpy as np

from repro.core.splice import SpliceBlock
from repro.obs.trace import current_span
from repro.server import protocol
from repro.server.client import (
    ClientTimeout,
    PPVClient,
    ProtocolViolation,
    ServerError,
)
from repro.server.protocol import ShardUnavailableError
from repro.storage.ppv_store import PooledRecords, check_records
from repro.storage.residency import ClusterResidency, ResidentCluster, StoredBytes

_TRANSPORT_ERRORS = (ConnectionError, OSError, ClientTimeout, ProtocolViolation)


class ShardFleet:
    """One lazily-connected :class:`PPVClient` per shard, with retry.

    Shard ``s``'s address is ``addresses[s]``.  Requests fan out
    pipelined (send everything, then read everything); a transport
    failure triggers exactly one reconnect-and-retry before the shard
    is declared unavailable.  Not thread-safe on its own — the owning
    stores serialise access.
    """

    def __init__(
        self,
        addresses: Sequence[tuple],
        *,
        timeout: float | None = 30.0,
        fault_plan=None,
    ) -> None:
        if not addresses:
            raise ValueError("a shard fleet needs at least one address")
        self.addresses = [(str(host), int(port)) for host, port in addresses]
        self.timeout = timeout
        self.fault_plan = fault_plan
        self._clients: dict[int, PPVClient] = {}

    @property
    def num_shards(self) -> int:
        return len(self.addresses)

    def close(self) -> None:
        """Close every open shard connection (idempotent)."""
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "ShardFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _connect(self, shard: int) -> PPVClient:
        host, port = self.addresses[shard]
        if self.fault_plan is not None:
            self.fault_plan.fire("router.connect", shard=shard, port=port)
        try:
            client = PPVClient(host, port, timeout=self.timeout)
        except _TRANSPORT_ERRORS as error:
            raise ShardUnavailableError(
                shard, f"cannot connect to {host}:{port}: {error}"
            ) from None
        self._clients[shard] = client
        return client

    def _client(self, shard: int) -> PPVClient:
        client = self._clients.get(shard)
        if client is None:
            client = self._connect(shard)
        return client

    def _drop(self, shard: int) -> None:
        client = self._clients.pop(shard, None)
        if client is not None:
            client.close()

    def _retry(self, shard: int, body: dict) -> dict:
        """One full reconnect + round-trip after a transport failure."""
        self._drop(shard)
        try:
            client = self._connect(shard)  # raises ShardUnavailableError
        except _TRANSPORT_ERRORS as error:
            # e.g. an injected ``router.connect`` fault: same verdict as
            # a refused connection.
            raise ShardUnavailableError(
                shard, f"cannot reconnect: {error}"
            ) from None
        try:
            request_id = client.send(body)
            if self.fault_plan is not None:
                self.fault_plan.fire("shard.recv", shard=shard)
            return client.receive(request_id)
        except _TRANSPORT_ERRORS as error:
            self._drop(shard)
            raise ShardUnavailableError(
                shard, f"lost the shard after reconnecting: {error}"
            ) from None

    def request_many(self, bodies: "dict[int, dict]") -> "dict[int, dict]":
        """Fan one request per shard out, pipelined; return per-shard
        results.

        Raises
        ------
        ShardUnavailableError
            A shard's connection failed and one reconnect + retry
            failed too.
        ServerError
            A shard answered with a structured error (bad request —
            not a liveness problem).
        """
        # When a traced batch/kernel span is active on this thread,
        # each shard's round-trip gets a child span and the request
        # carries the child's context so the shard-side server joins
        # the same trace.  Untraced path: one thread-local read, no
        # body copies.
        parent = current_span()
        spans: dict[int, object] = {}
        sent = bodies
        if parent is not None:
            sent = {}
            for shard, body in bodies.items():
                span = parent.child(
                    "shard." + str(body.get("verb", "query")), shard=shard
                )
                spans[shard] = span
                body = dict(body)
                body["trace"] = protocol.trace_field(span.context())
                sent[shard] = body
        try:
            results: dict[int, dict] = {}
            pending: list[tuple[int, object]] = []
            failed: list[int] = []
            for shard, body in sent.items():
                if self.fault_plan is not None:
                    self.fault_plan.fire(
                        "router.dispatch",
                        shard=shard,
                        verb=body.get("verb", "query"),
                    )
                try:
                    pending.append((shard, self._client(shard).send(body)))
                except _TRANSPORT_ERRORS:
                    failed.append(shard)
            for shard, request_id in pending:
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.fire("shard.recv", shard=shard)
                    results[shard] = self._clients[shard].receive(request_id)
                except _TRANSPORT_ERRORS:
                    failed.append(shard)
            for shard in failed:
                span = spans.get(shard)
                if span is not None:
                    span.set(retried=True)
                results[shard] = self._retry(shard, sent[shard])
            return results
        finally:
            for span in spans.values():
                span.end()

    def request(self, shard: int, body: dict) -> dict:
        """One shard's round-trip with the fleet's retry semantics."""
        return self.request_many({shard: body})[shard]

    def request_all(self, body: dict) -> "dict[int, dict]":
        """The same request to every shard, pipelined."""
        return self.request_many(
            {shard: dict(body) for shard in range(self.num_shards)}
        )


# What decoding a reply of the wrong shape raises: a missing key, a
# value of the wrong JSON type, invalid base64 (``binascii.Error`` is a
# ``ValueError``) or a byte length the record's counts / header refuse.
_REPLY_ERRORS = (KeyError, TypeError, ValueError)


def _undecodable(shard: int, verb: str, error: Exception) -> ShardUnavailableError:
    return ShardUnavailableError(
        shard,
        f"undecodable {verb} reply ({type(error).__name__}: {error}); "
        "the router expects the stored record's bytes as base64 — router "
        "and shards must be started from the same tree",
    )


def _record_from_payload(payload: dict) -> tuple[int, int, bytes]:
    """One ``fetch_hubs`` reply value as the hub's stored record,
    ``(entries, borders, payload bytes)``."""
    return (
        int(payload["entries"]),
        int(payload["borders"]),
        base64.b64decode(payload["payload"], validate=True),
    )


class ShardedPPVStore(PooledRecords):
    """A :class:`~repro.storage.ppv_store.DiskPPVStore` look-alike that
    fetches hub entries from their owning shards.

    ``get_many`` fetches the hubs its block lacks, grouped by shard, one
    pipelined ``fetch_hubs`` per shard
    (:class:`~repro.storage.ppv_store.PooledRecords`, the path the local
    store takes too).  A fetched record is checked (base64, length
    against its counts) when it arrives, before the pool holds it.  The
    ``reads`` counter counts hubs actually fetched over the wire (a hub
    the block holds is free) — per-query ``hub_reads`` accounting is
    computed upstream from *requested* fetches and is pool-independent,
    exactly as with the disk store.  Per-shard fetch counts
    (:attr:`shard_fetches`) feed the router's balance reporting.
    """

    def __init__(
        self,
        fleet: ShardFleet,
        *,
        alpha: float,
        epsilon: float,
        clip: float,
        num_nodes: int,
        hub_shards: "dict[int, int]",
        pool: StoredBytes | None = None,
        lock: "threading.Lock | None" = None,
    ) -> None:
        self.hub_shards = {int(h): int(s) for h, s in hub_shards.items()}
        super().__init__(alpha, epsilon, clip, num_nodes, self.hub_shards, pool)
        self.fleet = fleet
        self.shard_fetches = [0] * fleet.num_shards
        self._lock = lock if lock is not None else threading.Lock()

    def _fetch(self, hubs: list[int]) -> "dict[int, tuple[int, int, bytes]]":
        """The stored records of ``hubs``: one pipelined ``fetch_hubs``
        per owning shard (a hub no shard owns is a :class:`KeyError`
        before anything is sent)."""
        wanted: dict[int, list[int]] = {}
        for hub in hubs:
            wanted.setdefault(self.hub_shards[hub], []).append(hub)
        replies = self.fleet.request_many(
            {
                shard: {"verb": "fetch_hubs", "hubs": shard_hubs}
                for shard, shard_hubs in wanted.items()
            }
        )
        records = {}
        for shard, shard_hubs in wanted.items():
            payloads = replies[shard]
            self.shard_fetches[shard] += len(shard_hubs)
            self.reads += len(shard_hubs)
            try:
                fetched = [
                    _record_from_payload(payloads[str(hub)]) for hub in shard_hubs
                ]
                check_records(shard_hubs, fetched)
            except _REPLY_ERRORS as error:
                raise _undecodable(shard, "fetch_hubs", error) from None
            records.update(zip(shard_hubs, fetched))
        return records

    def get_many(self, hubs) -> SpliceBlock:
        """Make ``hubs`` resident, one pipelined request per owning shard
        for the ones the block lacks, and return the block."""
        with self._lock:
            return super().get_many(hubs)


class ShardedGraphStore(ClusterResidency):
    """A :class:`~repro.storage.disk_engine.DiskGraphStore` look-alike
    that fetches cluster adjacency from the owning shards.

    Labels and ``num_clusters`` are global (so ``cluster_of`` answers
    for every node, exactly like a local store); only the adjacency
    payloads are remote, held in the deployment's ``pool`` through
    :class:`~repro.storage.residency.ClusterResidency` — ``faults``
    counts swap-ins, and the cluster-draining push's schedule (hence
    every score) is residency-independent.  A
    ``fetch_cluster`` reply is the stored segment's bytes, held as a
    :class:`~repro.storage.residency.ResidentCluster` exactly as
    :class:`~repro.storage.disk_engine.DiskGraphStore` holds its own
    reads, so the waves read the same bytes either way.
    """

    def __init__(
        self,
        fleet: ShardFleet,
        *,
        labels: np.ndarray,
        cluster_shards: Sequence[int],
        pool: StoredBytes | None = None,
        lock: "threading.Lock | None" = None,
    ) -> None:
        self.cluster_shards = [int(shard) for shard in cluster_shards]
        super().__init__(
            np.asarray(labels, dtype=np.int64),
            len(self.cluster_shards),
            pool,
        )
        self.fleet = fleet
        self.shard_fetches = [0] * fleet.num_shards
        self._lock = lock if lock is not None else threading.Lock()

    def _fetch_cluster(self, cluster: int) -> ResidentCluster:
        shard = self.cluster_shards[cluster]
        with self._lock:
            payload = self.fleet.request(
                shard, {"verb": "fetch_cluster", "cluster": int(cluster)}
            )
            self.shard_fetches[shard] += 1
        try:
            resident = ResidentCluster(
                base64.b64decode(payload["segment"], validate=True)
            )
            self.check_segment(
                f"cluster {cluster} from shard {shard}", cluster, resident
            )
            return resident
        except _REPLY_ERRORS as error:
            raise _undecodable(shard, "fetch_cluster", error) from None
