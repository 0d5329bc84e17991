"""Unit tests for the CSR DiGraph."""

import numpy as np
import pytest

from repro.graph import DiGraph, from_edges
from repro.graph.generators import cycle_graph, path_graph, star_graph


class TestConstruction:
    def test_basic_shape(self):
        graph = from_edges([(0, 1), (0, 2), (1, 2)], num_nodes=3)
        assert graph.num_nodes == 3
        assert graph.num_edges == 3

    def test_empty_graph(self):
        graph = from_edges([], num_nodes=5)
        assert graph.num_nodes == 5
        assert graph.num_edges == 0
        assert graph.out_degree(0) == 0

    def test_zero_node_graph(self):
        graph = DiGraph(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32))
        assert graph.num_nodes == 0
        assert graph.num_edges == 0

    def test_invalid_indptr_start(self):
        with pytest.raises(ValueError):
            DiGraph(np.array([1, 2]), np.array([0], dtype=np.int32))

    def test_invalid_indptr_end(self):
        with pytest.raises(ValueError):
            DiGraph(np.array([0, 5]), np.array([0], dtype=np.int32))

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2], dtype=np.int32))

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(np.array([0, 1]), np.array([7], dtype=np.int32))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(np.array([0, 0, 0]), np.empty(0, dtype=np.int32), labels=["x"])

    def test_arrays_read_only(self):
        graph = from_edges([(0, 1)], num_nodes=2)
        with pytest.raises(ValueError):
            graph.indices[0] = 0
        with pytest.raises(ValueError):
            graph.indptr[0] = 1


class TestAccessors:
    def test_out_neighbors(self):
        graph = from_edges([(0, 1), (0, 2), (2, 1)], num_nodes=3)
        assert sorted(graph.out_neighbors(0).tolist()) == [1, 2]
        assert graph.out_neighbors(1).size == 0
        assert graph.out_neighbors(2).tolist() == [1]

    def test_out_degrees(self):
        graph = from_edges([(0, 1), (0, 2), (2, 1)], num_nodes=3)
        assert graph.out_degrees.tolist() == [2, 0, 1]
        assert graph.out_degree(0) == 2

    def test_in_degrees(self):
        graph = from_edges([(0, 1), (0, 2), (2, 1)], num_nodes=3)
        assert graph.in_degrees().tolist() == [0, 2, 1]

    def test_has_edge(self):
        graph = from_edges([(0, 1)], num_nodes=3)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)
        assert not graph.has_edge(0, 2)

    def test_edges_iteration(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        graph = from_edges(edges, num_nodes=3)
        assert sorted(graph.edges()) == sorted(edges)

    def test_len(self):
        assert len(from_edges([(0, 1)], num_nodes=4)) == 4

    def test_nodes_range(self):
        graph = from_edges([], num_nodes=3)
        assert list(graph.nodes()) == [0, 1, 2]

    def test_repr(self):
        assert repr(from_edges([(0, 1)], num_nodes=2)) == "DiGraph(n=2, m=1)"


class TestEquality:
    def test_equal_graphs(self):
        a = from_edges([(0, 1), (1, 0)], num_nodes=2)
        b = from_edges([(1, 0), (0, 1)], num_nodes=2)
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self):
        a = from_edges([(0, 1)], num_nodes=2)
        b = from_edges([(1, 0)], num_nodes=2)
        assert a != b

    def test_eq_other_type(self):
        assert from_edges([(0, 1)], num_nodes=2) != "graph"


class TestLabels:
    def test_unlabelled_label_is_id(self):
        graph = from_edges([(0, 1)], num_nodes=2)
        assert graph.label(1) == 1
        assert graph.labels is None

    def test_node_id_without_labels_raises(self):
        graph = from_edges([(0, 1)], num_nodes=2)
        with pytest.raises(KeyError):
            graph.node_id("x")

    def test_labelled_roundtrip(self):
        graph = DiGraph(
            np.array([0, 1, 1]), np.array([1], dtype=np.int32), labels=["u", "v"]
        )
        assert graph.label(0) == "u"
        assert graph.node_id("v") == 1
        with pytest.raises(KeyError):
            graph.node_id("w")


class TestReverse:
    def test_reverse_path(self):
        graph = path_graph(4)
        rev = graph.reverse()
        assert rev.has_edge(1, 0)
        assert rev.has_edge(3, 2)
        assert not rev.has_edge(0, 1)
        assert rev.num_edges == graph.num_edges

    def test_reverse_is_cached_and_involutive(self):
        graph = cycle_graph(5)
        assert graph.reverse() is graph.reverse()
        assert graph.reverse().reverse() is graph

    def test_reverse_preserves_edge_multiset(self):
        graph = from_edges([(0, 2), (1, 2), (2, 0)], num_nodes=3)
        rev_edges = sorted(graph.reverse().edges())
        assert rev_edges == [(0, 2), (2, 0), (2, 1)]


class TestTransitionMatrix:
    def test_is_a_scipy_csr_matrix(self):
        sparse = pytest.importorskip("scipy.sparse")
        matrix = star_graph(3).transition_matrix()
        assert isinstance(matrix, sparse.csr_matrix)
        assert matrix.shape == (4, 4)

    def test_rows_stochastic(self):
        graph = star_graph(3)
        matrix = graph.transition_matrix()
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_dangling_row_zero(self):
        graph = path_graph(3)  # node 2 dangling
        sums = np.asarray(graph.transition_matrix().sum(axis=1)).ravel()
        assert np.allclose(sums, [1.0, 1.0, 0.0])

    def test_values(self):
        graph = from_edges([(0, 1), (0, 2)], num_nodes=3)
        matrix = graph.transition_matrix().toarray()
        assert matrix[0, 1] == pytest.approx(0.5)
        assert matrix[0, 2] == pytest.approx(0.5)


class TestSubgraph:
    def test_induced_edges(self):
        graph = from_edges([(0, 1), (1, 2), (2, 0), (0, 3)], num_nodes=4)
        sub, node_map = graph.subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert node_map.tolist() == [0, 1, 2]
        assert sorted(sub.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_subgraph_remaps_ids(self):
        graph = from_edges([(1, 3), (3, 1)], num_nodes=4)
        sub, node_map = graph.subgraph([1, 3])
        assert node_map.tolist() == [1, 3]
        assert sorted(sub.edges()) == [(0, 1), (1, 0)]

    def test_empty_subgraph(self):
        graph = from_edges([(0, 1)], num_nodes=2)
        sub, node_map = graph.subgraph([])
        assert sub.num_nodes == 0
        assert node_map.size == 0

    def test_subgraph_keeps_labels(self):
        graph = DiGraph(
            np.array([0, 1, 2]),
            np.array([1, 0], dtype=np.int32),
            labels=["u", "v"],
        )
        sub, _ = graph.subgraph([1])
        assert sub.labels == ["v"]
