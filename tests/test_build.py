"""Unit tests for GraphBuilder and from_edges, and the threaded index build."""

import pytest

from repro.graph import GraphBuilder, from_edges


class TestGraphBuilder:
    def test_integer_mode(self):
        builder = GraphBuilder(num_nodes=3)
        builder.add_edge(0, 1)
        builder.add_edge(1, 2)
        graph = builder.build()
        assert graph.num_nodes == 3
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_integer_mode_rejects_out_of_range(self):
        builder = GraphBuilder(num_nodes=2)
        with pytest.raises(ValueError):
            builder.add_edge(0, 5)

    def test_integer_mode_rejects_negative(self):
        builder = GraphBuilder(num_nodes=2)
        with pytest.raises(ValueError):
            builder.add_edge(-1, 0)

    def test_labelled_mode_interns(self):
        builder = GraphBuilder()
        builder.add_edge("alice", "bob")
        builder.add_edge("bob", "alice")
        graph = builder.build()
        assert graph.num_nodes == 2
        assert graph.node_id("alice") == 0
        assert graph.node_id("bob") == 1
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)

    def test_add_node_without_edges(self):
        builder = GraphBuilder()
        builder.add_node("lonely")
        graph = builder.build()
        assert graph.num_nodes == 1
        assert graph.num_edges == 0

    def test_deduplicates_parallel_edges(self):
        builder = GraphBuilder(num_nodes=2)
        builder.add_edge(0, 1)
        builder.add_edge(0, 1)
        builder.add_edge(0, 1)
        assert builder.num_pending_edges == 3
        graph = builder.build()
        assert graph.num_edges == 1

    def test_undirected_edge(self):
        builder = GraphBuilder(num_nodes=2)
        builder.add_undirected_edge(0, 1)
        graph = builder.build()
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)

    def test_self_loop_kept_by_default(self):
        builder = GraphBuilder(num_nodes=1)
        builder.add_edge(0, 0)
        assert builder.build().num_edges == 1

    def test_drop_self_loops(self):
        builder = GraphBuilder(num_nodes=2)
        builder.add_edge(0, 0)
        builder.add_edge(0, 1)
        graph = builder.build(drop_self_loops=True)
        assert sorted(graph.edges()) == [(0, 1)]

    def test_add_edges_bulk(self):
        builder = GraphBuilder(num_nodes=4)
        builder.add_edges([(0, 1), (1, 2), (2, 3)])
        assert builder.build().num_edges == 3

    def test_empty_labelled_build(self):
        graph = GraphBuilder().build()
        assert graph.num_nodes == 0

    def test_neighbors_sorted_after_build(self):
        builder = GraphBuilder(num_nodes=4)
        builder.add_edges([(0, 3), (0, 1), (0, 2)])
        graph = builder.build()
        assert graph.out_neighbors(0).tolist() == [1, 2, 3]


class TestFromEdges:
    def test_infers_num_nodes(self):
        graph = from_edges([(0, 4)])
        assert graph.num_nodes == 5

    def test_undirected(self):
        graph = from_edges([(0, 1)], undirected=True)
        assert graph.num_edges == 2

    def test_empty_no_num_nodes(self):
        graph = from_edges([])
        assert graph.num_nodes == 0


class TestThreadedBuild:
    """``build_index(..., workers=k)`` chunks the hubs across threads; the
    index is entry-wise identical for any worker count."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro import social_graph

        return social_graph(num_nodes=250, edges_per_node=3, seed=9)

    @pytest.fixture(scope="class")
    def hubs(self, graph):
        from repro import select_hubs

        return select_hubs(graph, num_hubs=25)

    @staticmethod
    def _assert_indexes_identical(left, right):
        import numpy as np

        assert np.array_equal(left.hubs, right.hubs)
        assert np.array_equal(left.hub_mask, right.hub_mask)
        for hub in left.hubs.tolist():
            entry, other = left.get(hub), right.get(hub)
            for name in ("nodes", "scores", "border_hubs", "border_masses"):
                assert getattr(entry, name).tobytes() == getattr(other, name).tobytes()
        for name in ("num_hubs", "stored_entries", "stored_bytes", "border_entries"):
            assert getattr(left.stats, name) == getattr(right.stats, name)

    def test_thread_pool_matches_serial(self, graph, hubs):
        from repro import build_index

        serial = build_index(graph, hubs)
        self._assert_indexes_identical(serial, build_index(graph, hubs, workers=3))

    def test_thread_counts_agree(self, graph, hubs):
        from repro import build_index

        self._assert_indexes_identical(
            build_index(graph, hubs, workers=2), build_index(graph, hubs, workers=4)
        )

    def test_more_workers_than_hubs_matches_serial(self, graph, hubs):
        from repro import build_index

        few = hubs[:3]
        self._assert_indexes_identical(
            build_index(graph, few), build_index(graph, few, workers=8)
        )

    def test_executor_option_is_gone(self, graph, hubs):
        from repro import build_index

        with pytest.raises(TypeError, match="executor"):
            build_index(graph, hubs, workers=2, executor="process")
        with pytest.raises(ValueError, match="workers"):
            build_index(graph, hubs, workers=0)
