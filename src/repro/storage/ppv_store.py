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
the "one random access to the disk" of Sect. 6.3.1.  A file shorter
than its header or its directory is refused with a ``ValueError``
naming the path and the byte counts.

A hub's *record* is its two directory counts plus its payload bytes.
Reading one (:meth:`DiskPPVStore.read_record` — the seek + read, the
``ppv_store.read`` fault site, the ``reads`` / ``bytes_read``
accounting) and decoding records (:func:`decode_records`, bytes →
arrays) are separate so a shard process can ship the stored bytes
verbatim and the router decodes them with the same function a local
read uses (:mod:`repro.sharding`).  :func:`decode_records` is the only
decoder of the payload layout: it turns a whole batch of records into
one :class:`~repro.core.splice.HubRows` — one join of the payloads, two
typed views over it, four gathers — which the disk engine appends to
its splice block as it is, with no per-hub object in between.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from repro.core.index import PPVIndex
from repro.core.prime import PrimePPV
from repro.core.splice import HubRows, concat_ranges

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
    """Stored records → one :class:`~repro.core.splice.HubRows` batch:
    the only decoder of the payload layout, whether the bytes come from
    local reads or out of shards' ``fetch_hubs`` replies.

    ``records`` are ``(entries, borders, payload)`` triples
    (:meth:`DiskPPVStore.read_record`), aligned with ``hubs``.  Each is
    checked first (:func:`check_records`).  The payloads are joined once
    and read through one ``i64`` and one ``f64`` view; each of the four
    arrays is one gather over those views.  Zero counts decode to empty
    rows of the stated dtypes.
    """
    hubs = list(hubs)
    records = list(records)
    check_records(hubs, records)
    entries, borders, payloads = zip(*records) if records else ((), (), ())
    entries = np.array(entries, dtype=np.int64)
    borders = np.array(borders, dtype=np.int64)
    data = b"".join(payloads)
    ints, reals = np.frombuffer(data, dtype="<i8"), np.frombuffer(data, dtype="<f8")
    # Record i starts at word 2 * (its predecessors' entries + borders):
    # nodes i64[entries] | scores f64[entries] | border hubs i64[borders]
    # | border masses f64[borders]; each value sits its row's count of
    # words after its id.
    words = 2 * (entries + borders)
    nodes_at = np.cumsum(words) - words
    nodes = concat_ranges(nodes_at, entries)
    border_hubs = concat_ranges(nodes_at + 2 * entries, borders)
    return HubRows(
        hubs=np.array(hubs, dtype=np.int64),
        entries=entries,
        borders=borders,
        nodes=ints[nodes],
        scores=reals[nodes + entries.repeat(entries)],
        border_hubs=ints[border_hubs],
        border_masses=reals[border_hubs + borders.repeat(borders)],
    )


class DiskPPVStore:
    """Lazy reader over a saved index: one disk access per hub fetch.

    Use as a context manager or call :meth:`close` explicitly.  The
    ``reads`` counter records how many hub payloads were fetched — the I/O
    accounting of the disk-based experiments.

    ``fault_plan`` (tests only) fires the ``ppv_store.read`` site before
    each payload fetch; without a plan the hook costs one ``is None``.
    """

    def __init__(
        self, path: str | os.PathLike[str], *, fault_plan=None
    ) -> None:
        self.fault_plan = fault_plan
        self._handle = open(path, "rb")
        try:
            self._read_directory(os.fspath(path))
        except BaseException:
            self._handle.close()
            raise
        self.reads = 0
        self.bytes_read = 0
        hub_mask = np.zeros(self.num_nodes, dtype=bool)
        hub_mask[list(self._directory)] = True
        self.hub_mask = hub_mask

    def _read_directory(self, path: str) -> None:
        self.alpha, self.epsilon, self.clip, self.num_nodes, num_hubs = _read_header(
            self._handle, path
        )
        raw = _read_exactly(
            self._handle, num_hubs * _DIR_ENTRY.size, path,
            f"directory of {num_hubs} hubs",
        )
        self._directory: dict[int, tuple[int, int, int]] = {
            hub: (offset, entries, borders)
            for hub, offset, entries, borders in _DIR_ENTRY.iter_unpack(raw)
        }

    def __enter__(self) -> "DiskPPVStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the file handle."""
        if not self._handle.closed:
            self._handle.close()

    def __contains__(self, hub: int) -> bool:
        return int(hub) in self._directory

    @property
    def hubs(self) -> np.ndarray:
        """Sorted hub ids available in the store."""
        return np.asarray(sorted(self._directory), dtype=np.int64)

    def read_record(self, hub: int) -> tuple[int, int, bytes]:
        """One hub's stored record — ``(entries, borders, payload)`` —
        with one seek + read; :func:`decode_records` turns records into
        arrays.  Raises :class:`KeyError` for a hub not stored here."""
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

    def get(self, hub: int) -> PrimePPV:
        """Fetch one hub's prime PPV from disk (one seek + read)."""
        return decode_records([hub], [self.read_record(hub)]).primes()[0]

    def get_many(self, hubs) -> HubRows:
        """Fetch several hubs' prime PPVs as one row batch:
        :meth:`read_records` (offset-ordered, one read per unique hub),
        decoded by :func:`decode_records`, rows in read order."""
        records = self.read_records(hubs)
        return decode_records(records, records.values())


def load_index(path: str | os.PathLike[str]) -> PPVIndex:
    """Eagerly load a saved index back into a :class:`PPVIndex`: one
    :meth:`DiskPPVStore.get_many` over every hub, appended to the index's
    block as it is decoded."""
    with DiskPPVStore(path) as store:
        return PPVIndex(
            alpha=store.alpha,
            epsilon=store.epsilon,
            clip=store.clip,
            hub_mask=store.hub_mask.copy(),
            entries=store.get_many(store.hubs),
        )
