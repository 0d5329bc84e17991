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
32 bytes per hub); each :meth:`DiskPPVStore.get` then costs exactly one
seek + read — the "one random access to the disk" of Sect. 6.3.1.

A hub's *record* is its two directory counts plus its payload bytes.
Reading one (:meth:`DiskPPVStore.read_record` — the seek + read, the
``ppv_store.read`` fault site, the ``reads`` / ``bytes_read``
accounting) and decoding one (:func:`decode_record`, bytes → arrays)
are separate so a shard process can ship the stored bytes verbatim and
the router decodes them with the same function a local read uses
(:mod:`repro.sharding`).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from repro.core.index import IndexStats, PPVIndex
from repro.core.prime import PrimePPV

_MAGIC = b"FPPV"
_VERSION = 1
_HEADER = struct.Struct("<4sI3d2Q")
_DIR_ENTRY = struct.Struct("<4Q")


def save_index(index: PPVIndex, path: str | os.PathLike[str]) -> int:
    """Serialise a :class:`PPVIndex` to ``path``.

    Returns the number of bytes written.
    """
    hubs = sorted(index.entries)
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
            entry = index.entries[hub]
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


def _read_header(handle) -> tuple[float, float, float, int, int]:
    raw = handle.read(_HEADER.size)
    magic, version, alpha, epsilon, clip, num_nodes, num_hubs = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise ValueError("not a FastPPV index file")
    if version != _VERSION:
        raise ValueError(f"unsupported index version {version}")
    return alpha, epsilon, clip, num_nodes, num_hubs


def decode_record(
    hub: int, entries: int, borders: int, payload: bytes
) -> PrimePPV:
    """One hub's stored record → :class:`PrimePPV`: the only decoder of
    the payload layout, whether the bytes come from a local read or out
    of a shard's ``fetch_hubs`` reply.

    Raises :class:`ValueError` when ``payload`` is not the
    ``16 * (entries + borders)`` bytes the counts imply (a truncated
    file, a damaged reply).  Zero counts decode to empty arrays of the
    stated dtypes.
    """
    if entries < 0 or borders < 0 or len(payload) != 16 * (entries + borders):
        raise ValueError(
            f"hub {hub}: a record of {entries} entries and {borders} "
            f"borders is {16 * (entries + borders)} payload bytes, "
            f"not {len(payload)}"
        )
    nodes = np.frombuffer(payload, dtype="<i8", count=entries, offset=0)
    scores = np.frombuffer(payload, dtype="<f8", count=entries, offset=8 * entries)
    border_hubs = np.frombuffer(
        payload, dtype="<i8", count=borders, offset=16 * entries
    )
    border_masses = np.frombuffer(
        payload, dtype="<f8", count=borders, offset=16 * entries + 8 * borders
    )
    return PrimePPV(
        source=int(hub),
        nodes=nodes.astype(np.int64),
        scores=scores.astype(np.float64),
        border_hubs=border_hubs.astype(np.int64),
        border_masses=border_masses.astype(np.float64),
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
        self.alpha, self.epsilon, self.clip, self.num_nodes, num_hubs = _read_header(
            self._handle
        )
        self._directory: dict[int, tuple[int, int, int]] = {}
        for _ in range(num_hubs):
            hub, offset, entries, borders = _DIR_ENTRY.unpack(
                self._handle.read(_DIR_ENTRY.size)
            )
            self._directory[hub] = (offset, entries, borders)
        self.reads = 0
        self.bytes_read = 0
        hub_mask = np.zeros(self.num_nodes, dtype=bool)
        hub_mask[list(self._directory)] = True
        self.hub_mask = hub_mask
        self._hub_list: "list[bool] | None" = None

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

    @property
    def hub_list(self) -> list[bool]:
        """``hub_mask`` as a plain list — O(1) lookups without numpy
        scalar overhead in the Python disk push's per-edge loop (the
        twin of :attr:`DiskGraphStore.labels_list`; never built when the
        compiled drain is selected)."""
        if self._hub_list is None:
            self._hub_list = self.hub_mask.tolist()
        return self._hub_list

    def read_record(self, hub: int) -> tuple[int, int, bytes]:
        """One hub's stored record — ``(entries, borders, payload)`` —
        with one seek + read; :func:`decode_record` turns it into
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
        return decode_record(hub, *self.read_record(hub))

    def get_many(self, hubs) -> "dict[int, PrimePPV]":
        """Fetch several hubs' prime PPVs: :meth:`read_records`
        (offset-ordered, one read per unique hub), decoded."""
        return {
            hub: decode_record(hub, *record)
            for hub, record in self.read_records(hubs).items()
        }


def load_index(path: str | os.PathLike[str]) -> PPVIndex:
    """Eagerly load a saved index back into a :class:`PPVIndex`."""
    with DiskPPVStore(path) as store:
        index = PPVIndex(
            alpha=store.alpha,
            epsilon=store.epsilon,
            clip=store.clip,
            hub_mask=store.hub_mask.copy(),
        )
        stats = IndexStats(num_hubs=len(store.hubs))
        for hub in store.hubs:
            entry = store.get(int(hub))
            index.entries[int(hub)] = entry
            stats.stored_entries += entry.nodes.size
            stats.border_entries += entry.border_hubs.size
            stats.stored_bytes += entry.nbytes
        index.stats = stats
        return index
