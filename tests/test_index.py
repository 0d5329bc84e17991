"""Unit tests for offline precomputation (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.index import DEFAULT_CLIP, PPVIndex, build_index, clip_prime_ppv
from repro.core.prime import prime_ppv
from tests.conftest import ALPHA, FIG3_HUBS


class TestBuildIndex:
    def test_contains_all_hubs(self, fig1_graph):
        index = build_index(fig1_graph, FIG3_HUBS, alpha=ALPHA)
        assert index.num_hubs == 3
        for hub in FIG3_HUBS:
            assert hub in index
            assert index.is_hub(hub)
        assert index.hubs.tolist() == sorted(FIG3_HUBS)

    def test_entries_match_direct_prime_ppv(self, fig1_graph, fig1_hub_mask):
        index = build_index(
            fig1_graph, FIG3_HUBS, alpha=ALPHA, epsilon=1e-10, clip=0.0
        )
        for hub in FIG3_HUBS:
            direct = prime_ppv(
                fig1_graph, hub, fig1_hub_mask, alpha=ALPHA, epsilon=1e-10
            )
            entry = index.get(hub)
            np.testing.assert_allclose(entry.scores, direct.scores, atol=1e-15)
            np.testing.assert_array_equal(entry.nodes, direct.nodes)
            np.testing.assert_array_equal(entry.border_hubs, direct.border_hubs)

    def test_get_missing_hub_raises(self, fig1_graph):
        index = build_index(fig1_graph, FIG3_HUBS)
        with pytest.raises(KeyError):
            index.get(0)

    def test_duplicate_hubs_rejected(self, fig1_graph):
        with pytest.raises(ValueError, match="unique"):
            build_index(fig1_graph, [1, 1, 3])

    def test_out_of_range_hub_rejected(self, fig1_graph):
        with pytest.raises(ValueError):
            build_index(fig1_graph, [99])

    def test_clip_at_least_below_alpha(self, fig1_graph):
        with pytest.raises(ValueError, match="clip"):
            build_index(fig1_graph, FIG3_HUBS, alpha=0.15, clip=0.5)

    def test_empty_hub_set(self, fig1_graph):
        index = build_index(fig1_graph, [])
        assert index.num_hubs == 0
        assert index.hubs.size == 0

    def test_stats_populated(self, small_social):
        from repro.core.hubs import select_hubs

        hubs = select_hubs(small_social, 20)
        index = build_index(small_social, hubs)
        assert index.stats.num_hubs == 20
        assert index.stats.build_seconds > 0.0
        assert index.stats.stored_entries > 0
        assert index.stats.stored_bytes > 0
        assert index.stats.megabytes == pytest.approx(
            index.stats.stored_bytes / 1e6
        )


class TestClipping:
    def test_clip_drops_small_scores(self, fig1_graph, fig1_hub_mask):
        raw = prime_ppv(fig1_graph, 1, fig1_hub_mask, alpha=ALPHA)
        clipped = clip_prime_ppv(raw, 0.05)
        assert clipped.nodes.size <= raw.nodes.size
        assert np.all(clipped.scores >= 0.05)

    def test_clip_zero_is_identity(self, fig1_graph, fig1_hub_mask):
        raw = prime_ppv(fig1_graph, 1, fig1_hub_mask, alpha=ALPHA)
        assert clip_prime_ppv(raw, 0.0) is raw

    def test_clip_keeps_border_masses(self, fig1_graph, fig1_hub_mask):
        raw = prime_ppv(fig1_graph, 1, fig1_hub_mask, alpha=ALPHA)
        clipped = clip_prime_ppv(raw, 0.05)
        np.testing.assert_array_equal(clipped.border_hubs, raw.border_hubs)
        np.testing.assert_array_equal(clipped.border_masses, raw.border_masses)

    def test_noop_clip_returns_same_object(self, fig1_graph, fig1_hub_mask):
        raw = prime_ppv(fig1_graph, 1, fig1_hub_mask, alpha=ALPHA)
        # Every retained score exceeds 1e-12, so clipping changes nothing
        # and the original object is returned (no copy).
        assert clip_prime_ppv(raw, 1e-12) is raw

    def test_index_clip_bounds_storage(self, small_social):
        from repro.core.hubs import select_hubs

        hubs = select_hubs(small_social, 20)
        fine = build_index(small_social, hubs, clip=0.0)
        coarse = build_index(small_social, hubs, clip=DEFAULT_CLIP)
        assert coarse.stats.stored_entries <= fine.stats.stored_entries

    def test_hub_self_entry_survives_clip(self, small_social):
        from repro.core.hubs import select_hubs

        hubs = select_hubs(small_social, 20)
        index = build_index(small_social, hubs, clip=DEFAULT_CLIP)
        for hub in hubs:
            # The trivial tour guarantees score >= alpha at the hub itself.
            assert index.get(int(hub)).score_of(int(hub)) >= ALPHA


class TestIndexAccessors:
    def test_hubs_property_matches_mask(self, small_social_index):
        import numpy as np

        mask_hubs = np.nonzero(small_social_index.hub_mask)[0]
        np.testing.assert_array_equal(small_social_index.hubs, mask_hubs)

    def test_contains_uses_entries(self, fig1_graph):
        from repro.core.index import build_index

        index = build_index(fig1_graph, [1, 3])
        assert 1 in index and 3 in index
        assert 0 not in index

    def test_is_hub_matches_contains(self, small_social_index):
        for node in (0, 1, 2, 50, 100):
            assert small_social_index.is_hub(node) == (node in small_social_index)


class TestIndexEntriesInput:
    """``PPVIndex``'s ``entries=`` — a ``hub -> PrimePPV`` mapping or one
    ``HubRows`` batch — becomes the index's block and nothing else."""

    @staticmethod
    def _entries(index):
        return {hub: index.get(hub) for hub in index.hubs.tolist()}

    @staticmethod
    def _block_bytes(index):
        return [
            array.tobytes()
            for matrix in (index.block._scores, index.block._borders)
            for array in matrix.csr()
        ]

    def test_rows_and_mapping_build_the_same_block(self, small_social_index):
        from repro.core.splice import HubRows

        index = small_social_index
        entries = self._entries(index)
        args = (index.alpha, index.epsilon, index.clip, index.hub_mask)
        from_map = PPVIndex(*args, entries)
        from_rows = PPVIndex(*args, HubRows.pack(entries[h] for h in sorted(entries)))
        # A mapping in any key order is filed in hub order.
        reversed_map = PPVIndex(*args, dict(reversed(list(entries.items()))))
        for other in (from_rows, reversed_map):
            assert self._block_bytes(other) == self._block_bytes(from_map)
            assert other.stats == from_map.stats
        assert self._block_bytes(from_map) == self._block_bytes(index)

    def test_the_block_holds_the_rows_it_is_given(self, small_social_index):
        # No copy: the block's four arrays are the batch's own, so an
        # index holds its entries once.
        from repro.core.splice import HubRows

        index = small_social_index
        entries = self._entries(index)
        rows = HubRows.pack(entries[h] for h in sorted(entries))
        block = PPVIndex(
            index.alpha, index.epsilon, index.clip, index.hub_mask, rows
        ).block
        held = (*block._scores.csr()[1:], *block._borders.csr()[1:])
        given = (rows.nodes, rows.scores, rows.border_hubs, rows.border_masses)
        for array, source in zip(held, given):
            assert np.shares_memory(array, source)
            assert array.tobytes() == source.tobytes()

    def test_stats_are_the_per_entry_sums(self, small_social_index):
        entries = self._entries(small_social_index).values()
        stats = small_social_index.stats
        assert stats.num_hubs == len(entries)
        assert stats.stored_entries == sum(entry.nodes.size for entry in entries)
        assert stats.border_entries == sum(entry.border_hubs.size for entry in entries)
        assert stats.stored_bytes == sum(entry.nbytes for entry in entries)

    def test_no_entries_is_an_empty_index(self, fig1_graph, fig1_hub_mask):
        index = PPVIndex(ALPHA, 1e-6, DEFAULT_CLIP, fig1_hub_mask)
        assert index.num_hubs == 0 and index.hubs.size == 0
        assert index.stats.stored_entries == index.stats.stored_bytes == 0
        for hub in FIG3_HUBS:
            assert index.is_hub(hub) and hub not in index
            with pytest.raises(KeyError):
                index.get(hub)

    def test_contains_is_false_outside_the_node_range(self, fig1_graph):
        index = build_index(fig1_graph, FIG3_HUBS)
        assert -1 not in index
        assert fig1_graph.num_nodes not in index
        with pytest.raises(KeyError):
            index.get(fig1_graph.num_nodes)
