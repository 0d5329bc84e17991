"""Unit tests for global PageRank, and its pin against the scipy
iteration it replaced (``oracles.reference_global_pagerank``): hub
selection ranks by these scores, so every index byte rests on their
bits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_global_pagerank
from repro.graph import DiGraph, from_edges, global_pagerank, social_graph
from repro.graph.generators import complete_graph, cycle_graph, star_graph


def _assert_bitwise(graph, **kwargs) -> None:
    got = global_pagerank(graph, **kwargs)
    want = reference_global_pagerank(graph, **kwargs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def raw_graphs(draw):
    """A small digraph straight from CSR: self-loops, parallel edges,
    dangling nodes and, half the time, positive weights."""
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30
    ))
    sources = np.array([u for u, _ in edges], dtype=np.int64)
    order = np.argsort(sources, kind="stable")
    indices = np.array([v for _, v in edges], dtype=np.int32)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(
            st.floats(0.01, 100.0), min_size=len(edges), max_size=len(edges)
        )))[order]
    return DiGraph(indptr, indices, weights=weights)


class TestSameBitsAsTheScipyIteration:
    def test_social4k(self):
        _assert_bitwise(social_graph(num_nodes=4000, seed=11))

    def test_small_social(self, small_social):
        _assert_bitwise(small_social)
        _assert_bitwise(small_social, alpha=0.3, tol=1e-14, max_iter=50)

    def test_bibliographic(self, small_bib):
        _assert_bitwise(small_bib.graph)

    def test_weighted_parallel_edges_self_loops_and_dangling_nodes(self):
        # Rows: 0 -> 1, 0, 1 (a self-loop between two parallel edges);
        # 1 -> 2; 2 -> 1, 4, 1.  Nodes 3 and 4 are dangling.
        graph = DiGraph(
            np.array([0, 3, 4, 7, 7, 7]),
            np.array([1, 0, 1, 2, 1, 4, 1]),
            weights=np.array([2.0, 0.5, 3.0, 1.0, 0.7, 0.2, 0.7]),
        )
        _assert_bitwise(graph)
        _assert_bitwise(graph, alpha=0.5)

    @settings(max_examples=80, deadline=None)
    @given(graph=raw_graphs(), alpha=st.sampled_from([0.15, 0.5, 0.85]))
    def test_any_graph(self, graph, alpha):
        _assert_bitwise(graph, alpha=alpha)


class TestGlobalPageRank:
    def test_sums_to_one(self, small_social):
        rank = global_pagerank(small_social)
        assert rank.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_on_cycle(self):
        rank = global_pagerank(cycle_graph(6))
        assert np.allclose(rank, 1.0 / 6, atol=1e-9)

    def test_uniform_on_complete(self):
        rank = global_pagerank(complete_graph(5))
        assert np.allclose(rank, 0.2, atol=1e-9)

    def test_star_center_dominates(self):
        rank = global_pagerank(star_graph(8))
        assert rank[0] > rank[1]
        assert np.allclose(rank[1:], rank[1], atol=1e-12)

    def test_dangling_mass_redistributed(self):
        # 0 -> 1, 1 dangling: ranks must still sum to one.
        rank = global_pagerank(from_edges([(0, 1)], num_nodes=2))
        assert rank.sum() == pytest.approx(1.0, abs=1e-9)
        assert rank[1] > rank[0]

    def test_matches_networkx(self, small_social):
        networkx = pytest.importorskip("networkx")
        nx_graph = networkx.DiGraph(list(small_social.edges()))
        nx_graph.add_nodes_from(range(small_social.num_nodes))
        expected = networkx.pagerank(nx_graph, alpha=0.85, tol=1e-12)
        got = global_pagerank(small_social, alpha=0.15)
        for node, value in expected.items():
            assert got[node] == pytest.approx(value, abs=1e-6)

    def test_empty_graph(self):
        graph = from_edges([], num_nodes=0)
        assert global_pagerank(graph).size == 0

    def test_invalid_alpha(self):
        graph = cycle_graph(3)
        with pytest.raises(ValueError):
            global_pagerank(graph, alpha=0.0)
        with pytest.raises(ValueError):
            global_pagerank(graph, alpha=1.0)

    def test_higher_indegree_higher_rank(self, small_social):
        rank = global_pagerank(small_social)
        in_degrees = small_social.in_degrees()
        top_rank = int(np.argmax(rank))
        assert in_degrees[top_rank] >= np.percentile(in_degrees, 95)
