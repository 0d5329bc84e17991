"""Batch engine: equivalence with the scalar statement of Algorithm 2
(``oracles.reference_query``), edge cases, parallel builds, and the
per-query callback contract."""

from __future__ import annotations

import time

import numpy as np
import pytest
from oracles import ReferenceFastPPV

from repro import (
    FastPPV,
    StopAfterIterations,
    StopAtL1Error,
    any_of,
    build_index,
    select_hubs,
    social_graph,
)
from repro.core import batch as batch_module
from repro.core.batch import Start, splice_batch
from repro.core.index import PPVIndex
from repro.core.prime import PrimePPV, prime_ppv, prime_push_many
from repro.core.query import DEFAULT_DELTA, QueryState
from repro.graph.build import GraphBuilder
from repro.graph.generators import erdos_renyi_graph

STOPS = [
    StopAfterIterations(0),
    StopAfterIterations(2),
    StopAtL1Error(0.05),
    any_of(StopAfterIterations(3), StopAtL1Error(0.01)),
]


def _weighted_variant(graph, seed: int):
    """The same adjacency with seeded random edge weights."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_nodes=graph.num_nodes)
    for src in range(graph.num_nodes):
        for dst in graph.out_neighbors(src).tolist():
            builder.add_edge(src, dst, float(rng.uniform(0.2, 3.0)))
    return builder.build()


def _with_dangling(graph, extra: int = 3):
    """Append ``extra`` sink nodes (zero out-degree) fed by node 0."""
    builder = GraphBuilder(num_nodes=graph.num_nodes + extra)
    weights = graph.weights
    for src in range(graph.num_nodes):
        start, end = graph.indptr[src], graph.indptr[src + 1]
        for position in range(start, end):
            weight = float(weights[position]) if weights is not None else None
            builder.add_edge(src, int(graph.indices[position]), weight)
    for sink in range(graph.num_nodes, graph.num_nodes + extra):
        builder.add_edge(0, sink)
    return builder.build()


def _graph_zoo():
    """Seeded ER + power-law graphs, weighted and unweighted, with
    dangling nodes."""
    er = erdos_renyi_graph(220, 3.0 / 220, seed=13)
    power_law = social_graph(num_nodes=240, edges_per_node=3, seed=21)
    zoo = [
        ("er", _with_dangling(er)),
        ("er-weighted", _with_dangling(_weighted_variant(er, seed=5))),
        ("power-law", _with_dangling(power_law)),
        ("power-law-weighted", _with_dangling(_weighted_variant(power_law, 9))),
    ]
    return zoo


def _engines(graph, num_hubs=25, delta=1e-4, **kwargs):
    hubs = select_hubs(graph, num_hubs=num_hubs)
    index = build_index(graph, hubs)
    scalar = ReferenceFastPPV(graph, index, delta=delta, **kwargs)
    batch = FastPPV(graph, index, delta=delta, **kwargs)
    return index, scalar, batch


def assert_equivalent(scalar_result, batch_result):
    """Same query outcome, bit for bit: the rounds are the scalar loop's
    and every push row is its query's lone push, in any batch."""
    assert batch_result.query == scalar_result.query
    assert batch_result.iterations == scalar_result.iterations
    assert batch_result.hubs_expanded == scalar_result.hubs_expanded
    assert batch_result.work_units == scalar_result.work_units
    assert batch_result.scores.tobytes() == scalar_result.scores.tobytes()
    assert batch_result.error_history == scalar_result.error_history


class TestEquivalence:
    @pytest.mark.parametrize("name,graph", _graph_zoo())
    def test_matches_scalar_engine(self, name, graph):
        index, scalar, batch = _engines(graph)
        rng = np.random.default_rng(3)
        queries = rng.choice(graph.num_nodes, size=24, replace=False).tolist()
        # Make sure hub queries and dangling sinks are represented.
        queries[0] = int(index.hubs[0])
        queries[1] = graph.num_nodes - 1
        for stop in STOPS:
            batch_results = batch.query_many(queries, stop=stop)
            for query, batch_result in zip(queries, batch_results):
                reference = scalar.query(query, stop=stop)
                assert_equivalent(reference, batch_result)
                assert_equivalent(reference, batch.query(query, stop=stop))

    @pytest.mark.parametrize("name,graph", _graph_zoo()[2:])
    def test_rows_do_not_depend_on_their_batch(self, name, graph):
        """A query's bytes are the same alone, in the whole batch, in a
        permutation of it and in either part of a cut of it."""
        _, _, batch = _engines(graph)
        rng = np.random.default_rng(11)
        queries = rng.choice(graph.num_nodes, size=16, replace=False).tolist()
        order = rng.permutation(queries).tolist()
        stop = StopAfterIterations(2)
        lone = {query: batch.query(query, stop=stop) for query in queries}
        for part in (queries, order, order[:5], order[5:]):
            for query, result in zip(part, batch.query_many(part, stop=stop)):
                assert_equivalent(lone[query], result)

    def test_fastppv_batch_engine_matches_scalar(self, small_social,
                                                 small_social_index):
        engine = ReferenceFastPPV(small_social, small_social_index, delta=1e-4)
        stop = StopAfterIterations(2)
        batch = FastPPV(small_social, small_social_index, delta=1e-4)
        results = batch.query_many([9, 4, 4, 17], stop=stop)
        assert [r.query for r in results] == [9, 4, 4, 17]
        for query, result in zip([9, 4, 4, 17], results):
            assert_equivalent(engine.query(query, stop=stop), result)

    def test_default_delta_and_default_stop(self, small_social,
                                            small_social_index):
        scalar = ReferenceFastPPV(small_social, small_social_index)
        batch = FastPPV(small_social, small_social_index)
        assert batch.delta == DEFAULT_DELTA
        for query, result in zip([2, 8], batch.query_many([2, 8])):
            assert_equivalent(scalar.query(query), result)

    def test_push_many_matches_prime_ppv(self):
        graph = _with_dangling(erdos_renyi_graph(150, 0.03, seed=2))
        hubs = select_hubs(graph, num_hubs=15)
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[hubs] = True
        sources = np.array([0, 7, int(hubs[0]), graph.num_nodes - 1])
        scores, border, edges = prime_push_many(
            graph, sources, mask, alpha=0.15, epsilon=1e-7
        )
        for row, source in enumerate(sources.tolist()):
            single = prime_ppv(graph, source, mask, alpha=0.15, epsilon=1e-7)
            np.testing.assert_array_equal(
                scores[row], single.to_dense(graph.num_nodes)
            )
            dense_border = np.zeros(graph.num_nodes)
            dense_border[single.border_hubs] = single.border_masses
            np.testing.assert_array_equal(border[row], dense_border)
            assert edges[row] == single.edges_touched


class TestEdgeCases:
    def test_empty_batch(self, small_social, small_social_index):
        batch = FastPPV(small_social, small_social_index)
        assert batch.query_many([]) == []

    def test_hub_query_in_batch(self, small_social, small_social_index):
        hub = int(small_social_index.hubs[0])
        scalar = ReferenceFastPPV(small_social, small_social_index, delta=1e-4)
        batch = FastPPV(small_social, small_social_index, delta=1e-4)
        (result,) = batch.query_many([hub], stop=StopAfterIterations(2))
        assert_equivalent(scalar.query(hub, stop=StopAfterIterations(2)), result)
        # A hub's iteration 0 loads from the index: no push work.
        assert result.work_units >= 0

    def test_duplicate_query_ids(self, small_social, small_social_index):
        batch = FastPPV(small_social, small_social_index)
        results = batch.query_many([6, 6, 6], stop=StopAfterIterations(1))
        assert [r.query for r in results] == [6, 6, 6]
        np.testing.assert_array_equal(results[0].scores, results[1].scores)
        np.testing.assert_array_equal(results[0].scores, results[2].scores)
        # Rows must be independent copies, not views of one buffer.
        results[0].scores[0] += 1.0
        assert results[1].scores[0] != results[0].scores[0]

    def test_zero_out_degree_query(self):
        # Node 4 is a sink: iteration 0 keeps alpha at the query and the
        # frontier is empty, so the loop exits with 0 iterations.
        graph = GraphBuilder(num_nodes=5)
        for src, dst in [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]:
            graph.add_edge(src, dst)
        graph = graph.build()
        index = build_index(graph, [0, 2])
        scalar = ReferenceFastPPV(graph, index)
        batch = FastPPV(graph, index)
        (result,) = batch.query_many([4], stop=StopAfterIterations(5))
        assert_equivalent(scalar.query(4, stop=StopAfterIterations(5)), result)
        assert result.iterations == 0
        assert result.scores[4] == pytest.approx(index.alpha)

    def test_delta_prunes_whole_frontier(self, small_social,
                                         small_social_index):
        # A delta above alpha gates every frontier entry: iteration 1
        # still runs (and is recorded) but expands nothing, emptying the
        # frontier and ending the query.
        scalar = ReferenceFastPPV(small_social, small_social_index, delta=1.0)
        batch = FastPPV(small_social, small_social_index, delta=1.0)
        stop = StopAfterIterations(4)
        (result,) = batch.query_many([3], stop=stop)
        assert_equivalent(scalar.query(3, stop=stop), result)
        assert result.iterations == 1
        assert result.hubs_expanded == 0
        assert len(result.error_history) == 2
        assert result.error_history[0] == pytest.approx(
            result.error_history[1]
        )

    def test_parallel_build_matches_serial(self, small_social):
        hubs = select_hubs(small_social, num_hubs=30)
        serial = build_index(small_social, hubs, workers=1)
        parallel = build_index(small_social, hubs, workers=4)
        np.testing.assert_array_equal(serial.hubs, parallel.hubs)
        for hub in serial.hubs.tolist():
            entry, other = serial.get(hub), parallel.get(hub)
            np.testing.assert_array_equal(entry.nodes, other.nodes)
            np.testing.assert_array_equal(entry.scores, other.scores)
            np.testing.assert_array_equal(entry.border_hubs, other.border_hubs)
            np.testing.assert_array_equal(
                entry.border_masses, other.border_masses
            )
        assert serial.stats.num_hubs == parallel.stats.num_hubs
        assert serial.stats.stored_entries == parallel.stats.stored_entries
        assert serial.stats.stored_bytes == parallel.stats.stored_bytes
        assert serial.stats.border_entries == parallel.stats.border_entries
        np.testing.assert_array_equal(serial.hub_mask, parallel.hub_mask)

    def test_workers_validation(self, small_social):
        with pytest.raises(ValueError):
            build_index(small_social, [1, 2], workers=0)

    def test_chunked_batches(self, small_social, small_social_index,
                             monkeypatch):
        # A chunk size smaller than the batch must not change results.
        engine = FastPPV(small_social, small_social_index)
        queries = list(range(10))
        full = engine.query_many(queries)
        monkeypatch.setattr(batch_module, "_chunk_size", lambda num_nodes: 3)
        for a, b in zip(full, engine.query_many(queries)):
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.iterations == b.iterations

    def test_out_of_range_query_rejected(self, small_social,
                                         small_social_index):
        batch = FastPPV(small_social, small_social_index)
        with pytest.raises(ValueError):
            batch.query_many([small_social.num_nodes])

    def test_non_integer_query_rejected(self, small_social,
                                        small_social_index):
        # A non-integer id is refused, not truncated; numpy integers pass.
        engine = FastPPV(small_social, small_social_index)
        with pytest.raises(TypeError):
            engine.query_many([3.7])
        with pytest.raises(TypeError):
            engine.query(3.7)
        with pytest.raises(TypeError):
            engine.query_many(["3"])
        (result,) = engine.query_many([np.int64(3)])
        assert result.query == 3 and type(result.query) is int


def _rebuilt(index, hub_mask=None, change=lambda entry: entry, drop=()):
    """A new index from ``index``'s prime PPVs (read through ``get``),
    each passed through ``change``, without the hubs in ``drop``."""
    return PPVIndex(
        index.alpha, index.epsilon, index.clip,
        index.hub_mask.copy() if hub_mask is None else hub_mask,
        {
            hub: change(index.get(hub))
            for hub in index.hubs.tolist() if hub not in drop
        },
    )


class TestSpliceMatrix:
    """The index's CSR block — ``PPVIndex.block``: the ``SpliceBlock``
    holding every hub, built with the index, which the batch rounds
    read and ``get`` views."""

    def test_cached_on_index(self, small_social, small_social_index):
        first = small_social_index.block
        assert small_social_index.block is first
        assert first.num_rows == small_social_index.num_hubs
        assert FastPPV(small_social, small_social_index).index.block is first
        # An index made from the same prime PPVs packs its own block,
        # with the same rows.
        rebuilt = _rebuilt(small_social_index).block
        assert rebuilt is not first
        hubs = small_social_index.hubs
        np.testing.assert_array_equal(rebuilt.rows_of(hubs), first.rows_of(hubs))

    def test_rows_are_the_packed_entries(self, small_social_index):
        # A score row is the entry as it is (the round applies the
        # trivial-tour correction); a border row names hub node ids.
        # The block's arrays are, byte for byte, HubRows.pack's of the
        # entries in hub order, each indptr the counts' cumulative sum.
        from repro.core.splice import HubRows

        index = small_social_index
        rows = HubRows.pack(index.get(hub) for hub in index.hubs.tolist())
        block = index.block
        for matrix, counts, arrays in (
            (block._scores, rows.entries, (rows.nodes, rows.scores)),
            (block._borders, rows.borders, (rows.border_hubs, rows.border_masses)),
        ):
            indptr, *held = matrix.csr()
            assert indptr.tobytes() == np.concatenate(([0], np.cumsum(counts))).tobytes()
            assert [array.tobytes() for array in held] == [
                array.tobytes() for array in arrays
            ]
            # rss_mb: the block lives as long as the index, so its
            # buffers hold exactly the index's entries, not a doubling's
            # worth.
            assert [array.base.size for array in held] == [indptr[-1]] * 2
        assert rows.hubs.tolist() == index.hubs.tolist()

    def test_engine_follows_a_new_index(self, small_social):
        # An index is not edited in place — its get() views refuse
        # writes — so a changed index is a new one, which an existing
        # engine serves once it is swapped in.
        index = build_index(small_social, select_hubs(small_social, 12))
        engine = FastPPV(small_social, index, delta=0.0)
        assert engine.cache_token() is index
        query, stop = 3, StopAfterIterations(1)
        (served,) = engine.query_batch([query], stop)
        for hub in index.hubs.tolist():
            with pytest.raises(ValueError, match="read-only"):
                index.get(hub).scores[:] *= 0.5
        (again,) = engine.query_batch([query], stop)
        halved = _rebuilt(
            index,
            change=lambda entry: PrimePPV(
                entry.source, entry.nodes, entry.scores * 0.5,
                entry.border_hubs, entry.border_masses,
            ),
        )
        engine.replace_index(halved)
        assert engine.cache_token() is halved
        (fresh,) = engine.query_batch([query], stop)
        assert again.scores.tobytes() == served.scores.tobytes()
        assert fresh.scores.tobytes() != served.scores.tobytes()
        assert_equivalent(
            ReferenceFastPPV(small_social, halved, delta=0.0).query(
                query, stop=stop
            ),
            fresh,
        )

    def test_rows_of_empty_input(self, small_social_index):
        block = small_social_index.block
        assert block.rows_of(np.zeros(0, dtype=np.int64)).size == 0

    def test_rows_of_rejects_non_hub(self, small_social, small_social_index):
        block = small_social_index.block
        non_hub = int(np.nonzero(~small_social_index.hub_mask)[0][0])
        with pytest.raises(KeyError):
            block.rows_of(np.array([non_hub]))

    def test_an_index_the_rounds_cannot_serve_is_refused(self, small_social):
        index = build_index(small_social, select_hubs(small_social, 12))
        reached = int(index.get(int(index.hubs[0])).border_hubs[0])
        # The index itself takes both (a shard's sub-index has border
        # hubs outside it); the engine refuses them before serving.
        uncovered = _rebuilt(index, drop={reached})
        with pytest.raises(ValueError, match="do not cover the hub mask"):
            FastPPV(small_social, uncovered)
        outside = uncovered.hub_mask.copy()
        outside[reached] = False
        with pytest.raises(ValueError, match="border hubs outside"):
            FastPPV(small_social, _rebuilt(uncovered, hub_mask=outside))


class TestSpliceBatch:
    """``splice_batch``, the one driver both engines fill, called
    directly with the starts ``FastPPV`` builds."""

    STOP = StopAfterIterations(2)

    @staticmethod
    def _starts(graph, index, ids, io=None):
        """Per query its iteration 0: a hub's own block row, or its lone
        push row with the frontier in sorted border order."""
        sources = [q for q in dict.fromkeys(ids) if q not in index]
        scores, border, edges = prime_push_many(
            graph, np.asarray(sources, dtype=np.int64), index.hub_mask,
            alpha=index.alpha, epsilon=index.epsilon,
        )
        pushed = {}
        for row, q in enumerate(sources):
            hubs = np.nonzero(border[row])[0]
            pushed[q] = Start(scores[row], hubs, border[row, hubs], int(edges[row]))
        return [pushed.get(q, Start())._replace(io=io) for q in ids]

    def _run(self, graph, index, ids, starts):
        return splice_batch(
            ids, starts, index.block, index.block.rows_of, self.STOP,
            DEFAULT_DELTA, 50, time.perf_counter(),
        )

    def _ids(self, index):
        return [int(index.hubs[0]), 3, 7, 3, int(index.hubs[1])]

    def test_hub_and_pushed_starts_are_the_engines_results(
        self, small_social, small_social_index
    ):
        ids = self._ids(small_social_index)
        starts = self._starts(small_social, small_social_index, ids)
        assert [start.scores is None for start in starts] == [
            True, False, False, False, True
        ]
        served = FastPPV(small_social, small_social_index).query_many(
            ids, stop=self.STOP
        )
        for result, expected in zip(
            self._run(small_social, small_social_index, ids, starts), served
        ):
            assert_equivalent(expected, result)
            assert result.cluster_faults is result.hub_reads is None
            assert result.truncated is None

    def test_io_record_adds_the_expanded_hubs(self, small_social, small_social_index):
        ids = self._ids(small_social_index)
        starts = self._starts(small_social, small_social_index, ids, io=(4, 9, True))
        for result in self._run(small_social, small_social_index, ids, starts):
            assert result.cluster_faults == 4
            assert result.hub_reads == 9 + result.hubs_expanded
            assert result.truncated is True

    def test_work_units_add_the_push_edges(self, small_social, small_social_index):
        ids = self._ids(small_social_index)
        starts = self._starts(small_social, small_social_index, ids)
        counted = self._run(small_social, small_social_index, ids, starts)
        unpushed = self._run(
            small_social, small_social_index, ids,
            [start._replace(edges=0) for start in starts],
        )
        for start, result, bare in zip(starts, counted, unpushed):
            assert result.work_units == start.edges + bare.work_units
            assert result.scores.tobytes() == bare.scores.tobytes()
        assert all(start.edges > 0 for start in starts if start.scores is not None)

    def test_start_rows_are_read_not_written(self, small_social, small_social_index):
        ids = self._ids(small_social_index)
        starts = self._starts(small_social, small_social_index, ids)
        before = []
        for start in starts:
            if start.scores is not None:
                start.scores.flags.writeable = False
                before.append(start.scores.tobytes())
        results = self._run(small_social, small_social_index, ids, starts)
        assert before == [s.scores.tobytes() for s in starts if s.scores is not None]
        # Each result owns its scores: none pins the batch's matrix.
        for result in results:
            assert result.scores.base is None


class TestRoutingAndChunking:
    def test_non_batch_safe_stops_use_scalar_path(self, small_social,
                                                  small_social_index):
        from repro import StopAfterTime
        from repro.core.batch import batch_safe

        class CustomStop:
            def should_stop(self, state):
                return state.iteration >= 1

        assert not batch_safe(StopAfterTime(1.0))
        assert not batch_safe(any_of(StopAfterIterations(2),
                                     StopAfterTime(1.0)))
        assert not batch_safe(CustomStop())
        assert batch_safe(any_of(StopAfterIterations(2),
                                 StopAtL1Error(0.1)))
        engine = FastPPV(small_social, small_social_index, delta=1e-4)
        # A custom (uninspectable) condition routes per query too.
        custom_results = engine.query_batch([3], stop=CustomStop())
        assert custom_results[0].iterations == 1
        stop = any_of(StopAfterIterations(2), StopAfterTime(1e9))
        results = engine.query_batch([3, 8], stop=stop)
        # Per-query scalar semantics: each is the batch of one, which
        # is the scalar loop bit for bit.
        scalar = ReferenceFastPPV(small_social, small_social_index, delta=1e-4)
        for query, result in zip([3, 8], results):
            assert_equivalent(scalar.query(query, stop=stop), result)

    def test_removed_options_are_type_errors(self, small_social,
                                             small_social_index):
        # Result caching lives in the service's PopularityCache only, and
        # the chunk size follows the graph (no caller ever set it).
        from repro import PPVService

        with pytest.raises(TypeError):
            FastPPV(small_social, small_social_index, cache_size=8)
        with pytest.raises(TypeError):
            FastPPV(small_social, small_social_index, chunk_size=4)
        with pytest.raises(TypeError):
            PPVService.open(
                small_social_index, graph=small_social, chunk_size=4
            )
        assert not hasattr(FastPPV(small_social, small_social_index),
                           "batch_engine")

    def test_default_chunk_size_is_graph_aware(self, small_social):
        assert batch_module._chunk_size(small_social.num_nodes) == 512
        # No batch the ledger serves at 4 000 nodes is split; huge
        # graphs keep each dense matrix near the element budget.
        assert batch_module._chunk_size(4_000) == 512
        assert batch_module._chunk_size(100_000) == 41
        assert batch_module._chunk_size(10**7) == 16


class TestCallbackContract:
    def test_invocation_counts(self, small_social, small_social_index):
        batch = FastPPV(small_social, small_social_index, delta=1e-4)
        calls: dict[int, list[QueryState]] = {}
        queries = [4, 9, 9]
        results = batch.query_many(
            queries,
            stop=StopAfterIterations(2),
            on_iteration=lambda position, state: calls.setdefault(
                position, []
            ).append(state),
        )
        assert sorted(calls) == [0, 1, 2]
        for position, result in enumerate(results):
            # One call per executed iteration, iteration 0 included.
            assert len(calls[position]) == result.iterations + 1
            assert [s.iteration for s in calls[position]] == list(
                range(result.iterations + 1)
            )
            assert calls[position][-1].l1_error == pytest.approx(
                result.l1_error
            )

    def test_callback_counts_match_scalar_engine(self, small_social,
                                                 small_social_index):
        scalar = ReferenceFastPPV(small_social, small_social_index, delta=1e-4)
        scalar_calls: list[QueryState] = []
        scalar.query(
            7, stop=StopAfterIterations(2), on_iteration=scalar_calls.append
        )
        batch_calls: list[QueryState] = []
        FastPPV(small_social, small_social_index, delta=1e-4).query_many(
            [7],
            stop=StopAfterIterations(2),
            on_iteration=lambda _position, state: batch_calls.append(state),
        )
        assert len(batch_calls) == len(scalar_calls)
        assert [s.iteration for s in batch_calls] == [
            s.iteration for s in scalar_calls
        ]

    def test_single_query_callback(self, small_social, small_social_index):
        batch = FastPPV(small_social, small_social_index)
        states: list[QueryState] = []
        result = batch.query(11, stop=StopAfterIterations(1),
                             on_iteration=states.append)
        assert len(states) == result.iterations + 1
