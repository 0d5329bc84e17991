"""Offline precomputation: the PPV index of hub prime PPVs (Algorithm 1).

``build_index`` selects nothing itself — callers pass the hub set (see
:mod:`repro.core.hubs`) — it computes one prime PPV per hub and stores them
clipped (scores below ``clip`` are dropped, the paper's 1e-4 storage
optimisation) together with the border-hub arrival masses the online engine
splices.

In memory the index is one :class:`~repro.core.splice.SpliceBlock` — the
CSR rows the online rounds read — made once, when the index is made,
over the arrays of the :class:`~repro.core.splice.HubRows` batch it is
given (the build's packed rows, or the rows ``load_index`` decodes) with
no copy; :meth:`PPVIndex.get` returns read-only views into it, and there
is no other copy of a hub's prime PPV.  :mod:`repro.storage.ppv_store`
round-trips the index to a binary on-disk format for the disk-based
deployment of Sect. 5.3.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from typing import Mapping

import numpy as np

from repro.core.prime import DEFAULT_EPSILON, PrimePPV, prime_ppv
from repro.core.splice import HubRows, SpliceBlock
from repro.graph.digraph import DiGraph
from repro.graph.pagerank import DEFAULT_ALPHA

DEFAULT_CLIP = 1e-4
"""Storage clip threshold: PPV entries below this are not stored (Sect. 6)."""


@dataclass
class IndexStats:
    """Size/time accounting for the offline phase (Figs. 7, 9, 11, 15)."""

    num_hubs: int = 0
    build_seconds: float = 0.0
    stored_entries: int = 0
    stored_bytes: int = 0
    border_entries: int = 0

    @property
    def megabytes(self) -> float:
        """Stored size in MB (the unit of the paper's space plots)."""
        return self.stored_bytes / 1e6


@dataclass
class PPVIndex:
    """Precomputed prime PPVs keyed by hub node, held as one CSR block.

    Attributes
    ----------
    alpha, epsilon, clip:
        Parameters the entries were computed with; the online engine
        validates against them.
    hub_mask:
        Boolean membership array for the hub set.
    entries:
        Constructor input only: the hubs' prime PPVs (scores already
        clipped), as a ``hub id -> PrimePPV`` mapping or as one
        :class:`~repro.core.splice.HubRows` batch (what
        :func:`~repro.storage.ppv_store.load_index` decodes), whose
        arrays the block then holds as they are.  A mapping is packed
        once; a row's hub is its ``source``, and a mapping key that
        disagrees with it is refused.
    stats:
        Offline cost accounting: the counts of the block's rows, and
        ``build_seconds`` as :func:`build_index` stamps it.
    block:
        The :class:`~repro.core.splice.SpliceBlock` of every entry, built
        here: what the batch rounds read and :meth:`get` views.  An index
        is not edited in place; :func:`repro.core.dynamic.update_index`
        returns a new one.
    """

    alpha: float
    epsilon: float
    clip: float
    hub_mask: np.ndarray
    entries: InitVar["Mapping[int, PrimePPV] | HubRows | None"] = None
    stats: IndexStats = field(init=False)
    block: SpliceBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self, entries) -> None:
        if not isinstance(entries, HubRows):
            entries = entries or {}
            # The block files a row under its entry's source, so a key
            # that disagrees with it would misfile the row.
            for hub, entry in entries.items():
                if entry.source != hub:
                    raise ValueError(
                        f"entry {hub}: source field says {entry.source}"
                    )
            entries = HubRows.pack(entries[hub] for hub in sorted(entries))
        # The block holds the batch's arrays as they are.
        self.block = SpliceBlock(self.alpha, self.hub_mask.size, entries)
        stored, borders = int(entries.entries.sum()), int(entries.borders.sum())
        self.stats = IndexStats(
            num_hubs=self.block.num_rows,
            stored_entries=stored,
            stored_bytes=16 * (stored + borders),
            border_entries=borders,
        )

    @property
    def hubs(self) -> np.ndarray:
        """Sorted ids of the hubs with a stored entry."""
        return self.block.hubs

    @property
    def num_hubs(self) -> int:
        """Number of hubs with a stored entry."""
        return self.block.num_rows

    def __contains__(self, hub: int) -> bool:
        hub = int(hub)
        return 0 <= hub < self.hub_mask.size and self.block._row_lookup[hub] >= 0

    def get(self, hub: int) -> PrimePPV:
        """Prime PPV of ``hub``: read-only views into :attr:`block`.

        Raises
        ------
        KeyError
            If ``hub`` was not indexed.
        """
        if hub not in self:
            raise KeyError(hub)
        return PrimePPV(int(hub), *self.block.prime_of(hub))

    def is_hub(self, node: int) -> bool:
        """Whether ``node`` belongs to the hub set."""
        return bool(self.hub_mask[node])


def clip_prime_ppv(entry: PrimePPV, clip: float) -> PrimePPV:
    """Drop score entries below ``clip``.

    Border arrival masses are never clipped — they are the splice points of
    Theorem 4 and the online ``delta`` threshold already regulates them.
    """
    if clip <= 0.0:
        return entry
    keep = entry.scores >= clip
    if keep.all():
        return entry
    return PrimePPV(
        source=entry.source,
        nodes=entry.nodes[keep],
        scores=entry.scores[keep],
        border_hubs=entry.border_hubs,
        border_masses=entry.border_masses,
        edges_touched=entry.edges_touched,
    )


def _build_chunk(
    graph: DiGraph,
    chunk: np.ndarray,
    hub_mask: np.ndarray,
    alpha: float,
    epsilon: float,
    clip: float,
) -> dict[int, PrimePPV]:
    """Compute one chunk of hub entries."""
    entries: dict[int, PrimePPV] = {}
    for hub in chunk:
        # The offline build stays on the numpy rounds for now.  Not for
        # the bits — the compiled rounds return the same bytes for every
        # hub (tests/test_native_kernels.py) and build social4k's 400
        # hubs in 0.12 s instead of 1.1 s — but for the frozen
        # performance ledger: its host-speed calibrator refuses a run
        # with fewer than 5 samples (~0.21 s) inside any set-up window,
        # and with a compiled build the whole `disk_inproc_burst` set-up
        # is 0.22-0.26 s; 2 of 25 such runs died without a result.
        # Flip this flag when the ledger's window rule is fixed
        # (ROADMAP item 1(a)).
        entries[int(hub)] = clip_prime_ppv(
            prime_ppv(
                graph, int(hub), hub_mask, alpha=alpha, epsilon=epsilon,
                _numpy_rounds=True,
            ),
            clip,
        )
    return entries


def build_index(
    graph: DiGraph,
    hubs: np.ndarray | list[int],
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = DEFAULT_EPSILON,
    clip: float = DEFAULT_CLIP,
    workers: int = 1,
) -> PPVIndex:
    """Offline precomputation (Algorithm 1).

    Computes the prime PPV of every hub over its prime subgraph and stores
    it clipped.  Total work is ``O(I * (|V| + |E|))`` independent of the
    number of hubs (Sect. 5.1): more hubs mean smaller prime subgraphs.

    Parameters
    ----------
    graph:
        The graph.
    hubs:
        Hub node ids (see :func:`repro.core.hubs.select_hubs`).
    alpha, epsilon:
        Push parameters (see :func:`repro.core.prime.prime_ppv`).
    clip:
        Storage clip threshold.
    workers:
        Number of threads the hub set is chunked across.  Each hub's
        push is independent, so the resulting index is entry-wise
        identical for any worker count; ``stats.build_seconds`` records
        wall-clock time.
    """
    hubs = np.asarray(hubs, dtype=np.int64)
    if clip >= alpha:
        # The self-entry of a hub's prime PPV is exactly alpha (trivial
        # tour) plus cycle mass; clipping it away would break the online
        # trivial-tour correction.
        raise ValueError(f"clip ({clip}) must be below alpha ({alpha})")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if hubs.size != np.unique(hubs).size:
        raise ValueError("hub ids must be unique")
    if hubs.size and (hubs.min() < 0 or hubs.max() >= graph.num_nodes):
        raise ValueError("hub id out of range")
    hub_mask = np.zeros(graph.num_nodes, dtype=bool)
    hub_mask[hubs] = True

    started = time.perf_counter()
    if workers == 1 or hubs.size <= 1:
        chunk_results = [
            _build_chunk(graph, hubs, hub_mask, alpha, epsilon, clip)
        ]
    else:
        # Oversplit so a chunk of unusually large prime subgraphs cannot
        # straggle the whole build.
        chunks = np.array_split(hubs, min(hubs.size, workers * 4))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(
                pool.map(
                    lambda chunk: _build_chunk(
                        graph, chunk, hub_mask, alpha, epsilon, clip
                    ),
                    chunks,
                )
            )
    entries = {hub: entry for chunk in chunk_results for hub, entry in chunk.items()}
    # Packed and dropped before the index is made over the rows, so the
    # build holds at most two copies of the entries at once.
    rows = HubRows.pack(entries[hub] for hub in sorted(entries))
    del chunk_results, entries
    index = PPVIndex(alpha, epsilon, clip, hub_mask, rows)
    index.stats.build_seconds = time.perf_counter() - started
    return index
