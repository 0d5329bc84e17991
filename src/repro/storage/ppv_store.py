"""Binary on-disk PPV index.

Layout (little-endian throughout)::

    header   magic 'FPPV' | version u32 | alpha f64 | epsilon f64 | clip f64
             | num_nodes u64 | num_hubs u64
    directory (num_hubs records, fixed width)
             hub_id u64 | offset u64 | num_entries u64 | num_borders u64
    payload  per hub at its offset:
             nodes i64[num_entries] | scores f64[num_entries]
             | border_hubs i64[num_borders] | border_masses f64[num_borders]

The fixed-width directory is read once and kept in memory (it is tiny:
32 bytes per hub); each hub fetch then costs exactly one seek + read —
the "one random access to the disk" of Sect. 6.3.1 — unless the
deployment's :class:`~repro.storage.residency.StoredBytes` pool holds
the record.  A file shorter than its header or its directory is refused
with a ``ValueError`` naming the path and the byte counts.

A hub's *record* is its two directory counts plus its payload bytes.
Reading one (:meth:`DiskPPVStore.read_record` — the seek + read, the
``ppv_store.read`` fault site, the ``reads`` / ``bytes_read``
accounting) and decoding records (:func:`decode_records`, bytes →
arrays) are separate so a shard process can ship the stored bytes
verbatim and the router decodes them with the same function a local
read uses (:mod:`repro.sharding`).  :func:`decode_records` turns a
whole batch of records into one :class:`~repro.core.splice.HubRows` —
one join of the payloads, then :func:`_rows`, the only decoder of the
payload layout — with no per-hub object in between.
:class:`PooledRecords` is the one ``get_many`` of both PPV stores: a
hub its lifelong :class:`~repro.core.splice.SpliceBlock` lacks is
fetched, checked once (in each store's ``_fetch``, where the refusal
names the file or the shard), decoded once and appended, and the pool,
which holds only record sizes, bounds the block in bytes.
:func:`load_index` reads around the pool: one read of the payload
region, checked and decoded once, which the index's block then holds.

A directory that names a hub twice, or a hub outside the graph, is
refused when the store opens, with a ``ValueError`` naming the path and
the hub: a damaged file is never served.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from repro.core.index import PPVIndex
from repro.core.prime import PrimePPV
from repro.core.splice import HubRows, SpliceBlock, concat_ranges
from repro.storage.residency import StoredBytes

_MAGIC = b"FPPV"
_VERSION = 1
_HEADER = struct.Struct("<4sI3d2Q")
_DIR_ENTRY = struct.Struct("<4Q")


def save_index(index: PPVIndex, path: str | os.PathLike[str]) -> int:
    """Serialise a :class:`PPVIndex` to ``path``.

    Returns the number of bytes written.  Records are written in hub
    order, each from its rows of ``index.block``.
    """
    hubs = index.hubs.tolist()
    with open(path, "wb") as handle:
        handle.write(
            _HEADER.pack(
                _MAGIC,
                _VERSION,
                index.alpha,
                index.epsilon,
                index.clip,
                index.hub_mask.size,
                len(hubs),
            )
        )
        directory_pos = handle.tell()
        handle.write(b"\x00" * _DIR_ENTRY.size * len(hubs))
        records = []
        for hub in hubs:
            entry = index.get(hub)
            offset = handle.tell()
            handle.write(entry.nodes.astype("<i8").tobytes())
            handle.write(entry.scores.astype("<f8").tobytes())
            handle.write(entry.border_hubs.astype("<i8").tobytes())
            handle.write(entry.border_masses.astype("<f8").tobytes())
            records.append(
                (hub, offset, entry.nodes.size, entry.border_hubs.size)
            )
        end = handle.tell()
        handle.seek(directory_pos)
        for record in records:
            handle.write(_DIR_ENTRY.pack(*record))
    return end


def _read_exactly(handle, size: int, path: str, what: str) -> bytes:
    """``size`` bytes from ``handle``, never asking for more than the file
    holds (a damaged count can be huge), or a ``ValueError`` naming the
    path and both byte counts."""
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    raw = handle.read(max(0, min(size, left)))
    if len(raw) != size:
        raise ValueError(
            f"{path}: truncated FastPPV index: the {what} is {size} bytes, "
            f"the file holds {len(raw)}"
        )
    return raw


def _read_header(handle, path: str) -> tuple[float, float, float, int, int]:
    raw = _read_exactly(handle, _HEADER.size, path, "header")
    magic, version, alpha, epsilon, clip, num_nodes, num_hubs = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise ValueError("not a FastPPV index file")
    if version != _VERSION:
        raise ValueError(f"unsupported index version {version}")
    return alpha, epsilon, clip, num_nodes, num_hubs


def check_records(hubs, records) -> None:
    """Refuse a stored record whose payload is not the ``16 * (entries +
    borders)`` bytes its counts imply (a truncated file, a damaged
    reply): :class:`ValueError` naming the hub."""
    for hub, (entries, borders, payload) in zip(hubs, records):
        if entries < 0 or borders < 0 or len(payload) != 16 * (entries + borders):
            raise ValueError(
                f"hub {hub}: a record of {entries} entries and {borders} "
                f"borders is {16 * (entries + borders)} payload bytes, "
                f"not {len(payload)}"
            )


def decode_records(hubs, records) -> HubRows:
    """Stored records → one :class:`~repro.core.splice.HubRows` batch,
    whether the bytes come from local reads or out of shards'
    ``fetch_hubs`` replies.

    ``records`` are ``(entries, borders, payload)`` triples
    (:meth:`DiskPPVStore.read_record`), aligned with ``hubs``, that the
    caller has checked (:func:`check_records`) — once, when they were
    fetched.  The payloads are joined once and decoded by :func:`_rows`.
    Zero counts decode to empty rows of the stated dtypes.
    """
    records = list(records)
    entries, borders, payloads = zip(*records) if records else ((), (), ())
    entries = np.array(entries, dtype=np.int64)
    borders = np.array(borders, dtype=np.int64)
    words = 2 * (entries + borders)
    return _rows(hubs, entries, borders, b"".join(payloads), np.cumsum(words) - words)


def _rows(hubs, entries, borders, data, starts) -> HubRows:
    """The only decoder of the payload layout: the records laid in
    ``data`` from word ``starts[i]`` on, as one gather per array through
    an ``i64`` and an ``f64`` view.  A value sits its row's count of
    words after its id, so one index array, shifted in place, serves
    both gathers of a pair."""
    ints, reals = np.frombuffer(data, dtype="<i8"), np.frombuffer(data, dtype="<f8")
    at = concat_ranges(starts, entries)
    nodes = ints[at]
    at += entries.repeat(entries)
    scores = reals[at]
    at = concat_ranges(starts + 2 * entries, borders)
    border_hubs = ints[at]
    at += borders.repeat(borders)
    return HubRows(
        hubs=np.array(hubs, dtype=np.int64),
        entries=entries,
        borders=borders,
        nodes=nodes,
        scores=scores,
        border_hubs=border_hubs,
        border_masses=reals[at],
    )


class PooledRecords:
    """Hub metadata plus the hubs a :class:`StoredBytes` pool holds, as
    rows of one :class:`~repro.core.splice.SpliceBlock` (:attr:`block`,
    their only copy): both PPV stores apart from where records come
    from, as :class:`~repro.storage.residency.ClusterResidency` is for
    the graph stores.  Subclasses supply ``_fetch(hubs)``, a hub →
    record mapping (one physical read or wire fetch per hub, counted in
    ``reads``) of records it has checked (:func:`check_records`), its
    refusal naming where they came from.  ``pool`` is the deployment's
    (its own of :data:`~repro.storage.residency.DEFAULT_MEMORY_BYTES` if
    ``None``); its entry for a hub is the record's size, ``16 * (entries
    + borders)`` bytes, and :attr:`held` (uint8 per node) reads 1 while
    it is held.  After a :meth:`trim` the block's rows are exactly the
    held hubs', and its arrays hold at most four times their bytes.
    """

    def __init__(self, alpha, epsilon, clip, num_nodes, hubs, pool) -> None:
        self.alpha, self.epsilon, self.clip = alpha, epsilon, clip
        self.num_nodes = num_nodes
        self.hub_mask = np.zeros(num_nodes, dtype=bool)
        self.hub_mask[list(hubs)] = True
        self.reads = 0
        self.pool = pool if pool is not None else StoredBytes()
        self.held = np.zeros(num_nodes, dtype=np.uint8)
        self._kind = self.pool.kind("hub", self.held)
        self._trimmed_at = 0  # pool.evicted(kind) at the last trim
        self.block = SpliceBlock(alpha, num_nodes, HubRows.pack([]))

    def __contains__(self, hub: int) -> bool:
        return 0 <= int(hub) < self.num_nodes and bool(self.hub_mask[int(hub)])

    @property
    def hubs(self) -> np.ndarray:
        """Sorted hub ids available in the store."""
        return np.flatnonzero(self.hub_mask)

    def close(self) -> None:
        """Evict this store's records from the pool (not the block's
        arrays: a running batch may point at them)."""
        self.pool.drop(self._kind)

    def get_many(self, hubs) -> SpliceBlock:
        """Make ``hubs`` resident and return :attr:`block`: each hub
        without a row is fetched (``_fetch``, checked there, once),
        decoded once, appended and put in the pool, so a refused record
        is fetched, and refused, again next time.  A hub not stored here
        is a :class:`KeyError`."""
        unique = sorted({int(hub) for hub in hubs})
        outside = [hub for hub in unique if hub not in self]
        if outside:
            raise KeyError(f"hubs {outside} are not stored here")
        missing = self.block.missing(np.array(unique, dtype=np.int64)).tolist()
        if missing:
            fetched = self._fetch(missing)
            records = [fetched[hub] for hub in missing]
            self.block.add_rows(decode_records(missing, records))
            for hub, (_, _, payload) in zip(missing, records):
                self.pool.put(self._kind, hub, None, len(payload))
        return self.block

    def trim(self) -> None:
        """Drop from :attr:`block` the hubs the pool has evicted.  Call it
        between batches only, on the thread that runs them: a round
        points at the block's arrays and may need any row it holds.
        Free when the pool has evicted none of this store's hubs since
        the last trim (a warm batch): no scan of the block's hubs."""
        evicted_now = self.pool.evicted(self._kind)
        if evicted_now == self._trimmed_at:
            return
        self._trimmed_at = evicted_now
        hubs = self.block.hubs
        evicted = hubs[self.held[hubs] == 0]
        if evicted.size:
            self.block.drop(evicted)

    def get(self, hub: int) -> PrimePPV:
        """One hub's prime PPV (:meth:`get_many`), as views of its rows."""
        return PrimePPV(int(hub), *self.get_many([hub]).prime_of(hub))


class DiskPPVStore(PooledRecords):
    """Lazy reader over a saved index: one disk access per hub record the
    pool misses.

    Use as a context manager or call :meth:`close` explicitly.  The
    ``reads`` / ``bytes_read`` counters record the hub records
    physically read — the I/O accounting of the disk-based experiments.

    ``fault_plan`` (tests only) fires the ``ppv_store.read`` site before
    each record read; without a plan the hook costs one ``is None``.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        pool: StoredBytes | None = None,
        fault_plan=None,
    ) -> None:
        self.fault_plan = fault_plan
        self._path = os.fspath(path)
        self._handle = open(path, "rb")
        try:
            alpha, epsilon, clip, num_nodes, num_hubs = _read_header(
                self._handle, self._path
            )
            raw = _read_exactly(
                self._handle, num_hubs * _DIR_ENTRY.size, self._path,
                f"directory of {num_hubs} hubs",
            )
            self._directory: dict[int, tuple[int, int, int]] = {}
            for hub, offset, entries, borders in _DIR_ENTRY.iter_unpack(raw):
                if hub in self._directory or hub >= num_nodes:
                    where = f"of a {num_nodes}-node graph" if hub >= num_nodes else ""
                    raise ValueError(
                        f"{self._path}: damaged FastPPV index: the directory "
                        f"names hub {hub} {where or 'twice'}"
                    )
                self._directory[hub] = (offset, entries, borders)
        except BaseException:
            self._handle.close()
            raise
        super().__init__(alpha, epsilon, clip, num_nodes, self._directory, pool)
        self.bytes_read = 0

    def __enter__(self) -> "DiskPPVStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the file handle and this store's records in the pool."""
        super().close()
        self._handle.close()

    def read_record(self, hub: int) -> tuple[int, int, bytes]:
        """One hub's stored record — ``(entries, borders, payload)`` —
        with one seek + read, around the pool; :func:`decode_records`
        turns records into arrays.  Raises :class:`KeyError` for a hub
        not stored here."""
        if self.fault_plan is not None:
            self.fault_plan.fire("ppv_store.read", hub=int(hub))
        offset, entries, borders = self._directory[int(hub)]
        self._handle.seek(offset)
        payload = self._handle.read(16 * entries + 16 * borders)
        self.bytes_read += len(payload)
        self.reads += 1
        return entries, borders, payload

    def read_records(self, hubs) -> "dict[int, tuple[int, int, bytes]]":
        """Stored records of several hubs, one read per *unique* hub.

        Reads are issued in file-offset order, so a batch prefetch
        degrades into one forward sweep over the payload region instead
        of the random seek per hub per query that scalar serving pays.
        ``reads`` increases once per unique hub.
        """
        unique = sorted(
            {int(hub) for hub in hubs}, key=lambda hub: self._directory[hub][0]
        )
        return {hub: self.read_record(hub) for hub in unique}

    def _check(self, hubs, records) -> None:
        """:func:`check_records`, the refusal naming this file."""
        try:
            check_records(hubs, records)
        except ValueError as error:
            raise ValueError(f"{self._path}: {error}") from None

    def _fetch(self, hubs) -> "dict[int, tuple[int, int, bytes]]":
        """:meth:`read_records`, checked."""
        records = self.read_records(hubs)
        self._check(list(records), list(records.values()))
        return records

    def read_all(self) -> HubRows:
        """Every hub's rows, in hub order, around the pool: one read of
        the payload region, checked (:func:`check_records`; a record off
        the first one's 8-byte grid too) and decoded once."""
        hubs = sorted(self._directory)
        offsets, entries, borders = np.array(
            [self._directory[hub] for hub in hubs], dtype=np.int64
        ).reshape(-1, 3).T.copy()
        base = int(offsets.min()) if hubs else 0
        starts, misaligned = np.divmod(offsets - base, 8)
        if misaligned.any():
            hub = hubs[int(np.flatnonzero(misaligned)[0])]
            raise ValueError(
                f"{self._path}: hub {hub}'s record is off the 8-byte grid"
            )
        sizes = 16 * (entries + borders)
        end = int((offsets + sizes).max(initial=base))
        left = os.fstat(self._handle.fileno()).st_size - base
        self._handle.seek(base)
        data = self._handle.read(max(0, min(end - base, left)))
        self.bytes_read += len(data)
        self.reads += len(hubs)
        view = memoryview(data)
        self._check(hubs, [
            (count, border_count, view[8 * start:8 * start + size])
            for count, border_count, start, size in zip(
                entries.tolist(), borders.tolist(), starts.tolist(),
                sizes.tolist(),
            )
        ])
        return _rows(hubs, entries, borders, data, starts)


def load_index(path: str | os.PathLike[str]) -> PPVIndex:
    """Eagerly load a saved index back into a :class:`PPVIndex`:
    :meth:`DiskPPVStore.read_all` (one read of the payload region,
    around the pool), whose decoded arrays the index's block holds."""
    with DiskPPVStore(path) as store:
        return PPVIndex(
            alpha=store.alpha,
            epsilon=store.epsilon,
            clip=store.clip,
            hub_mask=store.hub_mask.copy(),
            entries=store.read_all(),
        )
