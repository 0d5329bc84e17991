"""Tests for incremental index maintenance on dynamic graphs."""

import numpy as np
import pytest

from repro import FastPPV, StopAfterIterations, build_index, select_hubs
from repro.core.dynamic import (
    add_edges,
    affected_hubs,
    changed_sources,
    rebuild_index,
    remove_edges,
    update_index,
)
from repro.core.exact import exact_ppv
from repro.graph import from_edges


class TestGraphEditing:
    def test_add_edges(self, fig1_graph):
        new = add_edges(fig1_graph, [(2, 0)])
        assert new.has_edge(2, 0)
        assert new.num_edges == fig1_graph.num_edges + 1

    def test_add_duplicate_is_noop(self, fig1_graph):
        new = add_edges(fig1_graph, [(0, 1)])
        assert new == fig1_graph

    def test_remove_edges(self, fig1_graph):
        new = remove_edges(fig1_graph, [(0, 1)])
        assert not new.has_edge(0, 1)
        assert new.num_edges == fig1_graph.num_edges - 1

    def test_remove_missing_is_noop(self, fig1_graph):
        assert remove_edges(fig1_graph, [(7, 0)]) == fig1_graph

    def test_changed_sources(self, fig1_graph):
        new = add_edges(fig1_graph, [(2, 0), (4, 0)])
        assert changed_sources(fig1_graph, new).tolist() == [2, 4]

    def test_changed_sources_requires_same_n(self, fig1_graph):
        other = from_edges([(0, 1)], num_nodes=2)
        with pytest.raises(ValueError):
            changed_sources(fig1_graph, other)


class TestAffectedHubs:
    def test_border_hub_change_does_not_affect(self, fig1_graph):
        # Changing out-edges of a *border* hub leaves other hubs' prime
        # PPVs untouched (borders are never expanded).
        index = build_index(fig1_graph, [1, 3, 5], epsilon=1e-12, clip=0.0)
        # Hub 3 (d) is a border of hub 1 (b); check that a change rooted
        # at node 3 does not invalidate hub 1... it *does* invalidate
        # hub 3 itself (3 is its own source).
        affected = affected_hubs(index, np.array([3]))
        assert affected.tolist() == [3]

    def test_interior_change_affects(self, fig1_graph):
        index = build_index(fig1_graph, [1, 3, 5], epsilon=1e-12, clip=0.0)
        # Node 6 (g) is interior to hub 5 (f)'s prime subgraph.
        affected = affected_hubs(index, np.array([6]))
        assert 5 in affected.tolist()


class TestUpdateIndex:
    @pytest.mark.parametrize(
        "edits",
        [
            [(2, 0)],
            [(4, 0), (4, 3)],
            [(6, 2)],
        ],
    )
    def test_incremental_equals_rebuild_after_add(self, fig1_graph, edits):
        index = build_index(fig1_graph, [1, 3, 5], epsilon=1e-12, clip=0.0)
        new_graph = add_edges(fig1_graph, edits)
        incremental, recomputed = update_index(fig1_graph, new_graph, index)
        rebuilt = rebuild_index(new_graph, index)
        assert recomputed <= index.num_hubs
        for hub in rebuilt.hubs.tolist():
            a = incremental.get(hub)
            b = rebuilt.get(hub)
            np.testing.assert_array_equal(a.nodes, b.nodes)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)
            np.testing.assert_array_equal(a.border_hubs, b.border_hubs)
            np.testing.assert_allclose(a.border_masses, b.border_masses, atol=1e-12)

    def test_incremental_equals_rebuild_after_remove(self, fig1_graph):
        index = build_index(fig1_graph, [1, 3, 5], epsilon=1e-12, clip=0.0)
        new_graph = remove_edges(fig1_graph, [(0, 7)])
        incremental, _ = update_index(fig1_graph, new_graph, index)
        rebuilt = rebuild_index(new_graph, index)
        for hub in rebuilt.hubs.tolist():
            np.testing.assert_allclose(
                incremental.get(hub).scores,
                rebuilt.get(hub).scores,
                atol=1e-12,
            )

    def test_random_batch_on_social_graph(self, small_social):
        hubs = select_hubs(small_social, 25)
        index = build_index(small_social, hubs, clip=0.0)
        rng = np.random.default_rng(3)
        additions = [
            (int(rng.integers(small_social.num_nodes)),
             int(rng.integers(small_social.num_nodes)))
            for _ in range(8)
        ]
        additions = [(s, d) for s, d in additions if s != d]
        new_graph = add_edges(small_social, additions)
        incremental, recomputed = update_index(small_social, new_graph, index)
        rebuilt = rebuild_index(new_graph, index)
        assert recomputed < index.num_hubs  # most hubs untouched
        for hub in rebuilt.hubs.tolist():
            np.testing.assert_allclose(
                incremental.get(hub).scores,
                rebuilt.get(hub).scores,
                atol=1e-10,
            )

    def test_queries_correct_after_update(self, fig1_graph):
        index = build_index(fig1_graph, [1, 3, 5], epsilon=1e-12, clip=0.0)
        new_graph = add_edges(fig1_graph, [(2, 0)])  # creates a cycle
        updated, _ = update_index(fig1_graph, new_graph, index)
        engine = FastPPV(new_graph, updated, delta=0.0)
        result = engine.query(0, stop=StopAfterIterations(60))
        expected = exact_ppv(new_graph, 0)
        np.testing.assert_allclose(result.scores, expected, atol=1e-8)

    def test_untouched_entries_reused(self, small_social, monkeypatch):
        # Unaffected entries must be copied over, not recomputed: one
        # push per recomputed hub, and every other entry's bytes kept.
        import repro.core.dynamic as dynamic

        hubs = select_hubs(small_social, 25)
        index = build_index(small_social, hubs)
        new_graph = add_edges(small_social, [(0, 99)])
        pushed = []
        push = dynamic.prime_ppv
        monkeypatch.setattr(
            dynamic, "prime_ppv",
            lambda graph, hub, *args, **kwargs: pushed.append(hub)
            or push(graph, hub, *args, **kwargs),
        )
        updated, recomputed = update_index(small_social, new_graph, index)
        assert 0 < len(pushed) == recomputed < index.num_hubs
        for hub in set(index.hubs.tolist()) - set(pushed):
            old, new = index.get(hub), updated.get(hub)
            for name in ("nodes", "scores", "border_hubs", "border_masses"):
                assert getattr(new, name).tobytes() == getattr(old, name).tobytes()
