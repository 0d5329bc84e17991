"""The compiled kernels, pinned bit for bit against their references.

``repro.native`` ports two schedules to C: the cluster drain
(``_ClusterWaves`` rows vs the per-edge ``oracles.ReferencePrimePushRun``)
and the level-synchronous ``prime_push_many`` (vs its numpy rounds) —
and the splice round (``splice_rounds_exact``, one
``repro_splice_round`` call per round, vs ``scalar_splice_rounds``).
Everything here
compares *bytes* — ``scores.tobytes()``, the border's ``(hub, mass)``
order, ``drains`` / ``truncated``, SHA-256 over served score vectors —
never a tolerance.  The drain cases are the ones of
``test_disk_drain.py`` (its fixtures and strategies are imported, not
copied).

Also here: how a process loads its kernels (no compiler, an unusable
cache directory, a failed build, two processes racing the first build,
a truncated or foreign cached library), the two small fixes that ride
along (the interpreter-independent pool sum; structural validation of
cluster segments before any kernel sees them), allocation failure
inside the push kernel, and a block row that names a node outside the
graph.

The compiled kernels are the only selection: a ``[native]`` row keeps
the id it had while a Python / numpy row ran beside it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferencePrimePushRun,
    ReferenceWavesDiskFastPPV,
    reference_disk_query,
    reference_query,
    scalar_splice_rounds,
    sharded_over,
)
from test_disk_drain import (
    BACKENDS,
    NODES,
    TRICKY_EDGES,
    TRICKY_LABELS,
    _assert_runs_identical,
    _begin,
    _csr,
    _deploy,
    _finish,
    _open,
    _run,
    _stage,
    _waves,
    deployments,
)

import repro
from repro import (
    FastPPV,
    StopAfterIterations,
    StopAtL1Error,
    any_of,
    build_index,
    native,
    select_hubs,
    social_graph,
)
from repro.core import prime
from repro.core.index import clip_prime_ppv
from repro.core.prime import PrimePPV
from repro.core.splice import HubRows, SpliceBlock, splice_rounds_exact
from repro.core.topk import StopWhenCertified
from repro.graph.digraph import DiGraph
from repro.server.protocol import ShardUnavailableError
from repro.serving import PPVService, QuerySpec
from repro.storage import (
    ClusterAssignment,
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    cluster_graph,
    load_index,
    save_index,
)
from repro.storage import disk_engine
from repro.storage.disk_engine import _ClusterWaves, _PrimePushRun
from repro.storage.residency import ResidentCluster

SRC = str(Path(repro.__file__).resolve().parents[1])

NATIVE = pytest.mark.parametrize("kernels", ["native"])


@pytest.fixture(scope="module")
def tricky(tmp_path_factory):
    root = tmp_path_factory.mktemp("native_drain")
    _deploy(root, _csr(NODES, TRICKY_EDGES), [2], TRICKY_LABELS, epsilon=1e-9)
    return root


# --------------------------------------------------------------------- #
# (a) The drain against the per-edge oracle


class TestDrainThreeWays:
    @BACKENDS
    @pytest.mark.parametrize("fault_budget", [1, 2, 3, 10**9])
    @pytest.mark.parametrize("source", range(NODES))
    def test_every_source(self, tricky, source, fault_budget, backend):
        # Parallel edges, self-loops, the hub as source, a dangling
        # source, edge-less rows and clusters, budget truncation.
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            native_run = _run(
                _PrimePushRun, tricky, ppv_store, source, fault_budget, backend
            )
            oracle = _run(
                ReferencePrimePushRun, tricky, ppv_store, source, fault_budget
            )
        _assert_runs_identical(native_run, oracle)
        hubs, masses = native_run.frontier()
        assert (hubs.dtype, masses.dtype) == (np.int64, np.float64)
        assert hubs.tolist() == list(oracle.border)

    def test_truncation_actually_happens(self, tricky):
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            runs = [
                _run(_PrimePushRun, tricky, ppv_store, 0, budget)
                for budget in (1, 2, 3, 10**9)
            ]
            waves = _waves(_open("disk", tricky / "c"), [0], ppv_store, 1)
        assert runs[0].truncated and not runs[-1].truncated
        waves.run()
        waves.run()  # and stays finished
        assert waves.state.wave == -1 and waves.rows()[0].drains == 1

    @BACKENDS
    def test_a_drain_that_expands_no_row_deposits_nothing(self, tricky, backend):
        # Staged by hand in each push's own state (dicts in the oracle,
        # the batch of one's arrays here).
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            started = [
                _begin(kind, _open(backend, tricky / "c"), 0, ppv_store, 10)
                for kind in (_PrimePushRun, ReferencePrimePushRun)
            ]
        for push in started:
            _stage(push, 1, ppv_store.epsilon / 2)
        started[1].drain()
        native_run, oracle = (_finish(push) for push in started)
        _assert_runs_identical(native_run, oracle)
        assert native_run.drains == 1
        assert native_run.scores.tolist() == [native_run._state.alpha] + [0.0] * (
            NODES - 1
        )

    def test_the_first_wave_is_staged_until_run(self, tricky):
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            waves = _waves(_open("disk", tricky / "c"), [0], ppv_store, 10)
        assert waves.state.wave == TRICKY_LABELS[0]
        assert waves.rows()[0].drains == 0
        waves.run()
        assert waves.rows()[0].drains > 1

    def test_one_resident_cluster_call_and_one_c_call_per_wave(
        self, tricky, monkeypatch
    ):
        # The ledger's ``store.cluster_load`` span is exactly the
        # resident_cluster call; no ctypes call is made per drain.
        lib, calls = native.load(), []

        class Counted:
            def __getattr__(self, name):
                function = getattr(lib, name)
                return lambda *args: calls.append(name) or function(*args)

        monkeypatch.setattr(disk_engine.native, "load", Counted)

        def serve(engine_class):
            store = _open("disk", tricky / "c")
            loads = []
            resident_cluster = store.resident_cluster
            store.resident_cluster = lambda c: loads.append(c) or resident_cluster(c)
            with DiskPPVStore(tricky / "i.fppv") as ppv_store:
                engine = engine_class(store, ppv_store, delta=0.0)
                runs = engine._grouped_pushes(list(range(NODES)))
            return store, loads, runs

        store, loads, runs = serve(DiskFastPPV)
        assert calls.count("repro_waves_start") == 1
        assert calls.count("repro_wave") == len(loads)
        assert calls.count("repro_check_segment") == store.faults
        assert set(calls) == {
            "repro_waves_start", "repro_wave", "repro_check_segment"
        }
        # Waves share drains: fewer loads than drains.
        assert 1 < len(loads) < sum(run.drains for run in runs.values())
        assert not hasattr(lib, "repro_drain")
        assert not hasattr(lib, "repro_next_cluster")
        # The reference loop picks a cluster per wave and drains the
        # same clusters in the same order.
        picked = []

        class Logged(ReferenceWavesDiskFastPPV):
            run_class = ReferencePrimePushRun

            def _wave_cluster(self, needs):
                picked.append(super()._wave_cluster(needs))
                return picked[-1]

        oracle_store, oracle_loads, _ = serve(Logged)
        assert picked == loads
        assert oracle_store.faults == store.faults

    def test_the_list_lowering_is_never_built(self, tricky):
        # The per-edge Python drain's plain-list views are gone: a
        # resident cluster is its four arrays, nothing else.
        store = _open("disk", tricky / "c", 4)
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            DiskFastPPV(store, ppv_store, delta=0.0).query_many([0, 3, 6])
            assert not hasattr(ppv_store, "hub_list")
        assert not hasattr(store, "labels_list")
        assert ResidentCluster.__slots__ == (
            "segment", "nodes_array", "offsets_array", "targets_array",
            "probs_array",
        )
        # ... and out_edges (the oracle's lookup) reads those arrays.
        targets, _ = store.out_edges(0)
        assert targets.tolist() == [1, 1, 0, 3]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(deployments())
def test_hypothesis_deployments_three_ways(deployment):
    (
        num_nodes, edges, labels, hubs, batch, memory_budget, fault_budget,
        backend,
    ) = deployment
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        _deploy(root, _csr(num_nodes, edges), hubs, labels, epsilon=1e-6)
        budget = fault_budget if fault_budget is not None else max(labels) + 1
        with DiskPPVStore(root / "i.fppv") as ppv_store:

            def serve():
                engine = DiskFastPPV(
                    _open(backend, root / "c", memory_budget), ppv_store,
                    delta=0.0, fault_budget=fault_budget,
                )
                return engine.query_many(batch), engine._grouped_pushes(batch)

            served, runs = serve()
            for query, got in zip(batch, served):
                want = reference_disk_query(
                    DiskGraphStore.open(root / "c"), ppv_store, query,
                    delta=0.0, fault_budget=fault_budget,
                )
                assert got.scores.tobytes() == want.scores.tobytes()
                assert got.error_history == want.error_history
                assert (got.cluster_faults, got.hub_reads, got.truncated) == (
                    want.cluster_faults, want.hub_reads, want.truncated
                )
            for query, run in runs.items():
                assert type(run) is _PrimePushRun
                _assert_runs_identical(
                    run,
                    _run(ReferencePrimePushRun, root, ppv_store, query, budget),
                )


# Sources whose first step needs their own cluster (TRICKY_LABELS: 0, 1
# in cluster 0; 3, 4 in 1; 5, 6 in 2; 7 in 3), the clusters the store
# holds when the batch starts, and the wave the rule stages first.
WAVE_CHOICES = {
    "none_held_the_most_demanded": ([3, 4, 0], [], 1),
    "none_held_ties_to_the_smallest_id": ([5, 3], [], 1),
    "a_held_cluster_first_however_little_demanded": ([3, 4, 0], [0], 0),
    "the_most_demanded_of_the_held": ([0, 3, 4, 7], [0, 1], 1),
    "a_held_cluster_no_run_needs_is_passed_over": ([3, 0, 4], [2], 1),
    "held_ties_to_the_smallest_id": ([5, 3, 0, 1], [1, 2], 1),
}


class TestWaveChoice:
    """The compiled rule stages the wave the reference schedule's
    ``_wave_cluster`` picks, reading the store's ``resident_flags`` in
    place: a held cluster before any other, the most demanded first,
    ties to the smallest id."""

    @BACKENDS
    @pytest.mark.parametrize("case", WAVE_CHOICES)
    def test_the_first_wave_is_the_reference_rules_choice(
        self, tricky, case, backend
    ):
        sources, held, expected = WAVE_CHOICES[case]
        store = _open(backend, tricky / "c", clusters=4)
        for cluster in held:
            store.resident_cluster(cluster)
        assert np.flatnonzero(store.resident_flags).tolist() == held
        needs = {}
        for source in sources:
            needs.setdefault(TRICKY_LABELS[source], []).append(source)
        rule = ReferenceWavesDiskFastPPV._wave_cluster
        assert rule(SimpleNamespace(graph_store=store), needs) == expected
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            waves = _waves(store, sources, ppv_store, 10)
        assert waves.state.wave == expected
        assert store.faults == len(held)  # staging loads nothing


# --------------------------------------------------------------------- #
# (b) prime_push_many, native vs numpy


class _SpyNumpy:
    """``numpy`` for ``repro.core.prime``, recording which aggregation
    rule each round of the numpy push takes."""

    def __init__(self) -> None:
        self.rules: set[str] = set()
        self.add = SimpleNamespace(at=np.add.at, reduceat=self._reduceat)

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, *args, **kwargs):
        self.rules.add("dense")
        return np.bincount(*args, **kwargs)

    def _reduceat(self, *args, **kwargs):
        self.rules.add("sort")
        return np.add.reduceat(*args, **kwargs)


def _push_both_ways(graph, sources, hub_mask, alpha=0.15, epsilon=1e-8):
    """``prime_push_many`` through the compiled kernel and through the
    numpy rounds — byte-equal — plus the aggregation rules the rounds
    took."""
    sources = np.asarray(sources, dtype=np.int64)
    got = prime.prime_push_many(graph, sources, hub_mask, alpha, epsilon)
    spy = _SpyNumpy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prime, "np", spy)
        want = prime.prime_push_many(
            graph, sources, hub_mask, alpha, epsilon, _numpy_rounds=True
        )
    for name, native_array, numpy_array in zip(
        ("scores", "border", "edges_touched"), got, want
    ):
        assert native_array.dtype == numpy_array.dtype, name
        assert native_array.shape == numpy_array.shape, name
        assert native_array.tobytes() == numpy_array.tobytes(), name
    return got, spy.rules


def _weighted_csr(num_nodes, edges, weights) -> DiGraph:
    """A weighted graph that keeps parallel edges and self-loops."""
    order = sorted(range(len(edges)), key=lambda i: edges[i][0])
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount([s for s, _ in edges], minlength=num_nodes)))
    )
    return DiGraph(
        indptr,
        np.array([edges[i][1] for i in order], dtype=np.int32),
        weights=np.array([weights[i] for i in order]),
    )


def _fans(sizes, seed=0):
    """One fan per size ``m``: a source with weighted edges to ``m``
    middle nodes that all point (weighted) at one sink — so the second
    round delivers one group of exactly ``m`` distinct shares."""
    rng = np.random.default_rng(seed)
    edges, weights, sources, node = [], [], [], 0
    for m in sizes:
        source, sink = node, node + 1
        middles = range(node + 2, node + 2 + m)
        edges += [(source, mid) for mid in middles]
        # A second out-edge per middle node keeps the shares distinct.
        edges += [e for mid in middles for e in ((mid, sink), (mid, source))]
        weights += rng.uniform(0.1, 1.0, size=3 * m).tolist()
        sources.append(source)
        node += m + 2
    return _weighted_csr(node, edges, weights), sources


class TestPrimePushMany:
    # Group sizes that walk every branch of numpy's pairwise sum behind
    # reduceat (first + pairwise(rest)): rest < 8, the 8-accumulator
    # block with and without a remainder, exactly 128, and the recursive
    # split above it (uneven halves included).
    SIZES = [1, 2, 3, 8, 9, 10, 12, 16, 17, 24, 31, 64, 128, 129, 130, 137,
             200, 257, 300, 513, 1000]

    @pytest.mark.parametrize("limit", [prime._DENSE_AGGREGATION_LIMIT, 0])
    def test_fans_of_every_pairwise_branch(self, monkeypatch, limit):
        # limit 0 forces the sort rule onto every round; the default
        # lets the predicate choose (these rounds are dense).
        monkeypatch.setattr(prime, "_DENSE_AGGREGATION_LIMIT", limit)
        graph, sources = _fans(self.SIZES)
        hub_mask = np.zeros(graph.num_nodes, dtype=bool)
        (scores, _, _), rules = _push_both_ways(graph, sources, hub_mask)
        assert rules == ({"sort"} if limit == 0 else {"dense", "sort"})
        assert np.count_nonzero(scores) > sum(self.SIZES)

    def test_a_star_with_in_degree_above_128_as_a_hub(self):
        graph, sources = _fans([200, 13])
        hub_mask = np.zeros(graph.num_nodes, dtype=bool)
        hub_mask[[1, sources[1]]] = True  # the big sink, and a hub *source*
        (_, border, _), _ = _push_both_ways(graph, sources, hub_mask)
        assert border[0, 1] > 0.0  # the sink absorbed the fan
        # The hub source expanded its initial unit and absorbed the
        # mass that cycled back.
        assert border[1, sources[1]] > 0.0

    @pytest.mark.parametrize("batch", [1, 16, 64])
    def test_social_graph_takes_both_rules(self, small_social, batch):
        hubs = select_hubs(small_social, num_hubs=40)
        hub_mask = np.zeros(small_social.num_nodes, dtype=bool)
        hub_mask[hubs] = True
        rng = np.random.default_rng(batch)
        sources = rng.choice(small_social.num_nodes, batch, replace=False)
        sources[0] = hubs[0]  # a hub source rides in every batch
        for epsilon in (1e-4, 1e-8):
            (scores, border, edges), rules = _push_both_ways(
                small_social, sources, hub_mask, epsilon=epsilon
            )
            assert rules == {"dense", "sort"}
            assert (edges > 0).all() and not border[:, ~hub_mask].any()

    def test_dangling_nodes_and_duplicate_sources(self):
        graph = _csr(NODES, TRICKY_EDGES)
        hub_mask = np.zeros(NODES, dtype=bool)
        hub_mask[2] = True
        (scores, _, edges), _ = _push_both_ways(
            graph, [5, 7, 0, 0, 2, 5], hub_mask, epsilon=1e-9
        )
        assert edges[:2].tolist() == [0, 0]  # dangling sources touch nothing
        assert scores[2].tobytes() == scores[3].tobytes()

    def test_empty_batch_and_bad_arguments(self, small_social):
        hub_mask = np.zeros(small_social.num_nodes, dtype=bool)
        scores, border, edges = prime.prime_push_many(
            small_social, np.empty(0, np.int64), hub_mask
        )
        assert scores.shape == border.shape == (0, small_social.num_nodes)
        with pytest.raises(ValueError):
            prime.prime_push_many(small_social, [small_social.num_nodes], hub_mask)
        with pytest.raises(ValueError):
            prime.prime_push_many(small_social, [0], hub_mask[:-1])

    def test_non_contiguous_and_integer_inputs_are_normalised(self, small_social):
        n = small_social.num_nodes
        hub_mask = np.zeros(2 * n, dtype=bool)[::2]
        hub_mask[::9] = True
        sources = np.arange(0, 40, dtype=np.int32)[::2]
        _push_both_ways(small_social, sources, hub_mask)


@st.composite
def push_cases(draw):
    num_nodes = draw(st.integers(2, 40))
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), min_size=1, max_size=160))
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False),
            min_size=len(edges), max_size=len(edges),
        )
    )
    hubs = draw(st.sets(node, max_size=4))
    sources = draw(st.lists(node, min_size=1, max_size=12))
    epsilon = draw(st.sampled_from([1e-3, 1e-6, 1e-10]))
    limit = draw(st.sampled_from([0, prime._DENSE_AGGREGATION_LIMIT]))
    return num_nodes, edges, weights, sorted(hubs), sources, epsilon, limit


@settings(max_examples=60, deadline=None, derandomize=True)
@given(push_cases())
def test_hypothesis_pushes_native_equals_numpy(case):
    num_nodes, edges, weights, hubs, sources, epsilon, limit = case
    graph = _weighted_csr(num_nodes, edges, weights)
    hub_mask = np.zeros(num_nodes, dtype=bool)
    hub_mask[hubs] = True
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prime, "_DENSE_AGGREGATION_LIMIT", limit)
        _, rules = _push_both_ways(graph, sources, hub_mask, epsilon=epsilon)
    assert limit or "dense" not in rules


# --------------------------------------------------------------------- #
# (b') prime_push_many's rows on threads: the serial call's bytes


def _push_on(graph, sources, hub_mask, threads, alpha=0.15, epsilon=1e-8):
    """The kernel entry itself with an explicit thread count: the
    threads the rows ran on, and the three outputs."""
    n = graph.num_nodes
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    outputs = (
        np.zeros((sources.size, n)), np.zeros((sources.size, n)),
        np.zeros(sources.size, dtype=np.int64),
    )
    hub_mask = np.ascontiguousarray(hub_mask, dtype=np.bool_)
    indptr, indices, probs, rows, hubs, *out = (
        array.ctypes.data
        for array in (
            graph.indptr, graph.indices, graph.edge_probabilities, sources,
            hub_mask, *outputs,
        )
    )
    used = native.load().repro_prime_push_many(
        n, indptr, indices, probs, sources.size, rows, hubs,
        alpha, epsilon, prime._max_rounds(alpha, epsilon),
        prime._DENSE_AGGREGATION_LIMIT, *out, threads,
    )
    return used, outputs


def _assert_thread_counts_agree(graph, sources, hub_mask, thread_counts, **kw):
    """Every thread count gives the serial call's bytes, which are the
    numpy rounds' (``_push_both_ways``); returns the rules they took."""
    want, rules = _push_both_ways(graph, sources, hub_mask, **kw)
    for threads in thread_counts:
        used, got = _push_on(graph, sources, hub_mask, threads, **kw)
        assert used == max(1, min(threads, len(sources))), threads
        for name, a, b in zip(("scores", "border", "edges_touched"), got, want):
            assert a.tobytes() == b.tobytes(), (threads, name)
    return rules


class TestThreadedPush:
    @pytest.mark.parametrize("batch", [1, 2, 3, 7, 16, 33])
    def test_every_thread_count_is_the_serial_bytes(self, small_social, batch):
        hubs = select_hubs(small_social, num_hubs=40)
        hub_mask = np.zeros(small_social.num_nodes, dtype=bool)
        hub_mask[hubs] = True
        rng = np.random.default_rng(batch)
        sources = rng.choice(small_social.num_nodes, batch)
        sources[0] = hubs[0]  # a hub source rides in every batch
        sources[batch // 2:] = sources[:batch - batch // 2]  # duplicates
        threads = [1, 2, 3, 4, batch + 3]
        for epsilon in (1e-4, 1e-8):
            rules = _assert_thread_counts_agree(
                small_social, sources, hub_mask, threads, epsilon=epsilon
            )
            if batch >= 16:  # one call, both aggregation rules
                assert rules == {"dense", "sort"}

    def test_rows_of_different_lengths_give_the_same_bytes_at_any_thread_count(
        self,
    ):
        # Dangling sources end their rows in round 0 while the fans'
        # rows run on, taken first, last, or both.
        fan_graph, fans = _fans([9, 130, 3])
        dangling = [fan_graph.num_nodes, fan_graph.num_nodes + 1]
        graph = DiGraph(
            np.append(fan_graph.indptr, [fan_graph.indptr[-1]] * 2),
            fan_graph.indices, weights=fan_graph.edge_probabilities,
        )
        hub_mask = np.zeros(graph.num_nodes, dtype=bool)
        for sources in (dangling + fans, fans + dangling, [fans[1]] + dangling):
            _assert_thread_counts_agree(graph, sources, hub_mask, [1, 2, 3, 5])

    def test_zero_or_negative_threads_run_on_one(self, small_social):
        hub_mask = np.zeros(small_social.num_nodes, dtype=bool)
        for threads in (0, -3):
            used, _ = _push_on(small_social, [1, 2, 3], hub_mask, threads)
            assert used == 1

    def test_the_thread_policy(self):
        cpus = len(os.sched_getaffinity(0))
        assert native.push_threads(1) == 1
        assert native.push_threads(1 << 30) == cpus

    def test_the_status_command_prints_the_thread_count(self, tmp_path):
        status = _status(tmp_path, XDG_CACHE_HOME=_cache_home())
        assert status.returncode == 0, status.stderr
        threads = len(os.sched_getaffinity(0))
        assert f"\nthreads: {threads} per batch push " in status.stdout

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="/proc")
    def test_batched_queries_leave_no_thread_behind(
        self, small_social, small_social_index, monkeypatch
    ):
        # One thread per row, so every batch below starts threads.
        monkeypatch.setattr(native, "push_threads", lambda rows: rows)
        engine = FastPPV(small_social, small_social_index)
        nodes = [v for v in range(small_social.num_nodes)
                 if v not in small_social_index][:200]
        before = len(os.listdir("/proc/self/task"))
        for start in range(0, 200, 8):
            engine.query_many(nodes[start:start + 8], stop=StopAfterIterations(1))
        assert len(os.listdir("/proc/self/task")) == before


def _assert_rows_are_lone_pushes(data, graph, sources, hub_mask, epsilon):
    """Row independence: the batch permuted, whole and cut into calls,
    each on 1-4 threads or on more threads than it has rows, gives every
    row its source's lone push — which is the numpy rounds of that
    source alone."""
    sources = np.array(sources, dtype=np.int64)
    order = np.array(data.draw(st.permutations(range(sources.size))), dtype=np.int64)
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, sources.size - 1)))))
    lone = {}
    for source in set(sources.tolist()):
        _, got = _push_on(graph, [source], hub_mask, 1, epsilon=epsilon)
        want = prime.prime_push_many(
            graph, [source], hub_mask, epsilon=epsilon, _numpy_rounds=True
        )
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        lone[source] = [a[0].tobytes() for a in got]
    for part in [order, *np.split(order, cuts)]:
        if part.size == 0:
            continue
        threads = data.draw(
            st.integers(1, 4) | st.integers(part.size + 1, part.size + 4)
        )
        _, got = _push_on(graph, sources[part], hub_mask, threads, epsilon=epsilon)
        for i, source in enumerate(sources[part].tolist()):
            assert [a[i].tobytes() for a in got] == lone[source], (part, threads)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(push_cases(), st.integers(2, 6), st.data())
def test_hypothesis_threaded_pushes_equal_serial_and_numpy(
    small_social, case, threads, data
):
    num_nodes, edges, weights, hubs, sources, epsilon, limit = case
    graph = _weighted_csr(num_nodes, edges, weights)
    hub_mask = np.zeros(num_nodes, dtype=bool)
    hub_mask[hubs] = True
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prime, "_DENSE_AGGREGATION_LIMIT", limit)
        _assert_thread_counts_agree(
            graph, sources, hub_mask, [1, threads], epsilon=epsilon
        )
        _assert_rows_are_lone_pushes(data, graph, sources, hub_mask, epsilon)
    # Rows on a social graph, where a round's density varies from row
    # to row, so a rule chosen from batch totals would split them.
    social_mask = np.zeros(small_social.num_nodes, dtype=bool)
    social_mask[::10] = True
    social_sources = data.draw(
        st.lists(st.integers(0, small_social.num_nodes - 1), min_size=1, max_size=12)
    )
    _assert_rows_are_lone_pushes(
        data, small_social, social_sources, social_mask, epsilon
    )


# --------------------------------------------------------------------- #
# (c) Served bits on the ledger's dataset, against the oracles

SOCIAL4K = dict(num_nodes=4000, graph_seed=11, num_hubs=400, epsilon=1e-6,
                num_clusters=10, cluster_seed=1, delta=1e-4, eta=2)
L1_NODES = [125 * k + 5 for k in range(32)]  # benchmarks/ledger/dataset.py


@pytest.fixture(scope="module")
def social4k(tmp_path_factory):
    """``social4k`` as ``benchmarks/ledger/dataset.py`` builds it."""
    workdir = tmp_path_factory.mktemp("social4k")
    graph = social_graph(
        num_nodes=SOCIAL4K["num_nodes"], seed=SOCIAL4K["graph_seed"]
    )
    hubs = select_hubs(graph, num_hubs=SOCIAL4K["num_hubs"])
    index = build_index(graph, hubs, epsilon=SOCIAL4K["epsilon"])
    save_index(index, workdir / "index.fppv")
    assignment = cluster_graph(
        graph, SOCIAL4K["num_clusters"], seed=SOCIAL4K["cluster_seed"]
    )
    DiskGraphStore(graph, assignment, workdir / "clusters")
    return SimpleNamespace(graph=graph, index=index, workdir=workdir)


def _digest_of(results) -> str:
    """SHA-256 over score vectors, in order (PR 14's method)."""
    sha = hashlib.sha256()
    for result in results:
        sha.update(result.scores.tobytes())
    return sha.hexdigest()


# The disk digest is what both kernel selections served, equal, while
# the repo still had a Python / numpy one; the memory digest is
# ``reference_query``'s.
SOCIAL4K_DIGESTS = {
    "memory": "002fd7719f43a2da141c453dc3438bc2098c4f7db676261fa5198b2448b39a1e",
    "disk": "1cf0628ee13763671587bf20b4d8968d257a119cae8ef2ee61e86fb8baf1adef",
}


def test_social4k_served_scores_sha256_are_pinned(social4k):
    """The ledger's 32 accuracy-sample nodes, served as one burst from
    memory and from disk, hash to the pinned digests, which are also
    ``reference_query``'s and ``reference_disk_query``'s: a memory
    burst's push rows are each the lone push of their query."""
    stop = StopAfterIterations(SOCIAL4K["eta"])
    specs = [QuerySpec(node, stop=stop) for node in L1_NODES]
    with PPVService.open(
        social4k.index, graph=social4k.graph, delta=SOCIAL4K["delta"],
        cache_size=0,
    ) as service:
        memory = _digest_of(service.query_many(specs))
    with PPVService.open(
        str(social4k.workdir / "index.fppv"), backend="disk",
        graph_store=DiskGraphStore.open(social4k.workdir / "clusters"),
        delta=SOCIAL4K["delta"], cache_size=0,
    ) as service:
        disk = _digest_of(service.query_many(specs))
    assert {"memory": memory, "disk": disk} == SOCIAL4K_DIGESTS
    engine = FastPPV(social4k.graph, social4k.index, delta=SOCIAL4K["delta"])
    assert memory == _digest_of(
        reference_query(engine, node, stop=stop) for node in L1_NODES
    )
    graph_store = DiskGraphStore.open(social4k.workdir / "clusters")
    with DiskPPVStore(social4k.workdir / "index.fppv") as ppv_store:
        assert disk == _digest_of(
            reference_disk_query(
                graph_store, ppv_store, node, stop=stop, delta=SOCIAL4K["delta"]
            )
            for node in L1_NODES
        )


def test_social4k_index_block_holds_the_packed_rows(social4k):
    """The index's block holds bytewise ``HubRows.pack``'s arrays of its
    prime PPVs, each indptr their counts' cumulative sum — for the built
    index and for the same index read back from disk."""
    index = social4k.index
    want = _packed_csr(HubRows.pack(index.get(hub) for hub in index.hubs.tolist()))
    assert _block_csr(index.block) == want
    loaded = load_index(social4k.workdir / "index.fppv")
    assert _block_csr(loaded.block) == want


# sha256 / size of social4k's saved index, and of the two shard indexes
# partition_index writes for it: the writer reads the index's block.
SOCIAL4K_INDEX = (
    "ce9d7f56f7ba4c3390633bf23d5024bf2440cdd79f2965d1a8d794a231da0860", 1_248_176
)
SOCIAL4K_SHARD_INDEXES = (
    "eff84a54df81a546e521dcae5a4ef70a3df08b90db30b8ffb8a5347d3599f893",
    "c1679c3481d203d56792e1424c5e507b82839004ffae9cf2b55d9f0553b0dd50",
)


def test_social4k_index_bytes_are_pinned(social4k, tmp_path):
    from repro.sharding.partition import partition_index, shard_dir_name

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    saved = social4k.workdir / "index.fppv"
    assert (sha256(saved), saved.stat().st_size) == SOCIAL4K_INDEX
    again = tmp_path / "again.fppv"
    assert save_index(load_index(saved), again) == SOCIAL4K_INDEX[1]
    assert again.read_bytes() == saved.read_bytes()
    partition_index(
        social4k.graph, social4k.index, 2, tmp_path / "parts",
        assignment=cluster_graph(social4k.graph, 10, seed=1),
    )
    assert tuple(
        sha256(tmp_path / "parts" / shard_dir_name(shard) / "index.fppv")
        for shard in range(2)
    ) == SOCIAL4K_SHARD_INDEXES


def test_social4k_memory_backend_holds_one_copy(social4k):
    """``get`` views the index's block, refuses writes, and the memory
    backend holds nothing else of size: after ``load_index`` and one
    burst of 8, the bytes still held stay under 1.6 MB (2.9 MB while
    the index kept its hubs twice)."""
    path = social4k.workdir / "index.fppv"
    index = load_index(path)
    block = index.block
    for hub in index.hubs[::40].tolist():
        entry = index.get(hub)
        for array, (_, indices, data) in (
            (entry.nodes, block._scores.csr()), (entry.scores, block._scores.csr()),
            (entry.border_hubs, block._borders.csr()),
            (entry.border_masses, block._borders.csr()),
        ):
            assert np.shares_memory(array, indices) or np.shares_memory(array, data)
        with pytest.raises(ValueError, match="read-only"):
            entry.scores[0] = 0.0
    del index, block, entry
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        index = load_index(path)
        FastPPV(social4k.graph, index).query_many(range(8))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 1_600_000, held


def test_social4k_load_index_peak_is_pinned(social4k):
    """``load_index`` reads the payload region once, around any pool,
    and decodes it once: its tracemalloc peak at social4k stays under
    3.2 MB (2.93 MB measured; 4.80 MB while it kept per-record bytes,
    their join, ``HubRows`` and the block at once)."""
    path = social4k.workdir / "index.fppv"
    load_index(path)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        index = load_index(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert index.num_hubs == SOCIAL4K["num_hubs"]
    assert peak <= 3_200_000, peak


def test_social4k_index_entries_are_the_compiled_rounds_bytes(social4k):
    # build_index runs the numpy rounds (see _build_chunk for why); the
    # day it flips to the compiled ones, every stored byte stays.
    index = social4k.index
    for hub in index.hubs.tolist():
        stored = index.get(hub)
        compiled = clip_prime_ppv(
            prime.prime_ppv(
                social4k.graph, hub, index.hub_mask, index.alpha, index.epsilon
            ),
            index.clip,
        )
        for name in ("nodes", "scores", "border_hubs", "border_masses"):
            assert getattr(stored, name).tobytes() == getattr(compiled, name).tobytes()
        # The index keeps no edge counts; the build's rounds count the
        # compiled rounds' edges.
        assert compiled.edges_touched == prime.prime_ppv(
            social4k.graph, hub, index.hub_mask, index.alpha, index.epsilon,
            _numpy_rounds=True,
        ).edges_touched


# --------------------------------------------------------------------- #
# (d) Loading: how a process ends up with its kernels, or an error

PROBE = """
import hashlib, sys, warnings
import numpy as np
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro import native, social_graph, select_hubs
    from repro.core.prime import prime_push_many
    graph = social_graph(num_nodes=300, edges_per_node=3, seed=5)
    hub_mask = np.zeros(300, dtype=bool)
    hub_mask[select_hubs(graph, num_hubs=30)] = True
    sha = hashlib.sha256()
    for _ in range(2):  # the second call must not warn again
        for array in prime_push_many(graph, np.arange(0, 300, 7), hub_mask):
            sha.update(array.tobytes())
print(native.path, len([w for w in caught if "repro.native" in str(w.message)]),
      sha.hexdigest())
"""


def _environment(tmp_path, **env) -> dict:
    """A child's whole environment: its cache (and home) under
    ``tmp_path``, nothing inherited but ``PATH``."""
    return {
        "PATH": os.environ["PATH"], "PYTHONPATH": SRC,
        "XDG_CACHE_HOME": str(tmp_path / "cache"), "HOME": str(tmp_path),
        **env,
    }


LOAD_TWICE = """
from repro import native
for _ in range(2):
    try:
        native.load()
    except RuntimeError as error:
        print(error)
"""


def _load_twice(tmp_path, **env) -> list[str]:
    """LOAD_TWICE in a fresh interpreter: the error of each ``load()``."""
    done = subprocess.run(
        [sys.executable, "-c", LOAD_TWICE], env=_environment(tmp_path, **env),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    errors = done.stdout.splitlines()
    assert len(errors) == 2 and errors[0] == errors[1], errors
    return errors


def _cache_home() -> str:
    """The ``$XDG_CACHE_HOME`` this process's library was loaded from."""
    native.load()
    return str(native.path.parent.parent)


def _status(tmp_path, **env):
    """``python -m repro.native`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "repro.native"],
        env=_environment(tmp_path, **env),
        capture_output=True, text=True, timeout=120,
    )


class TestSelection:
    def test_no_compiler_on_path_is_a_runtime_error(self, tmp_path):
        (tmp_path / "bin").mkdir()
        error, _ = _load_twice(tmp_path, PATH=str(tmp_path / "bin"))
        assert error.startswith("compiled kernels unavailable: no C compiler on PATH")
        assert "$CC" in error and "$XDG_CACHE_HOME" in error
        assert not (tmp_path / "cache").exists()  # nothing was built
        status = _status(tmp_path, PATH=str(tmp_path / "bin"))
        assert status.returncode == 1 and status.stdout == f"error: {error}\n"
        assert "Traceback" not in status.stderr

    def test_an_unusable_cache_directory_is_a_runtime_error(self, tmp_path):
        # A regular file where the cache root should be: unusable even
        # for root, who ignores permission bits.
        (tmp_path / "cache").write_text("not a directory")
        error, _ = _load_twice(tmp_path)
        assert f"cache directory {tmp_path / 'cache'}" in error
        assert "is unusable" in error and "$XDG_CACHE_HOME" in error
        status = _status(tmp_path)
        assert status.returncode == 1 and status.stdout == f"error: {error}\n"

    def test_a_failed_build_runs_the_compiler_once_per_process(self, tmp_path):
        log = tmp_path / "cc.log"
        fake = tmp_path / "bin" / "fake-cc"
        fake.parent.mkdir()
        fake.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"open({str(log)!r}, 'a').write('built\\n')\n"
            "sys.stderr.write('fake-cc: no kernels\\ntoday\\n')\n"
            "sys.exit(1)\n"
        )
        fake.chmod(0o755)
        error, _ = _load_twice(tmp_path, CC=str(fake))
        assert f"{fake} failed: fake-cc: no kernels today;" in error
        assert log.read_text() == "built\n"  # once, not once per load()
        assert not list((tmp_path / "cache" / "repro-fastppv").iterdir())
        _load_twice(tmp_path, CC=str(fake))  # a new process tries again
        assert log.read_text() == "built\n" * 2

    def test_two_processes_racing_the_first_build_load_whole_libraries(
        self, tmp_path
    ):
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", PROBE], env=_environment(tmp_path),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outputs = [racer.communicate(timeout=120) for racer in racers]
        assert [racer.returncode for racer in racers] == [0, 0], outputs
        paths, warned, shas = zip(*(out.split() for out, _ in outputs))
        assert warned == ("0", "0") and shas[0] == shas[1]
        cached = sorted((tmp_path / "cache" / "repro-fastppv").iterdir())
        assert not [p for p in cached if p.suffix == ".tmp"]
        for path in paths:
            assert Path(path) in cached
            assert native._digest(Path(path).read_bytes()) == Path(
                path
            ).stem.rsplit("-", 1)[1]

    def test_a_truncated_or_foreign_cached_library_is_rebuilt_not_loaded(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cc = native.compiler()
        # Built, not loaded: this process must not have it mapped when
        # the bytes under that name change.
        path = native._build(cc, native.cache_dir(), native._build_tag(cc))
        whole = path.read_bytes()
        assert path.parent == tmp_path / "repro-fastppv"
        # Truncated in place (a full disk, a copy cut short).
        path.write_bytes(whole[: len(whole) // 2])
        # A foreign file under a name this build would look for.
        foreign = path.with_name(
            path.name.replace(path.stem.rsplit("-", 1)[1], "0" * 16)
        )
        foreign.write_bytes(b"\x7fELF not really")
        lib, rebuilt = native._library()
        assert rebuilt == path and path.read_bytes() == whole
        assert not foreign.exists()
        native._declare(lib)
        assert lib.repro_run_size() > 0

    def test_the_source_ships_with_the_package(self):
        assert native.SOURCE.is_file()
        text = (Path(SRC).parent / "pyproject.toml").read_text()
        assert '"*.c"' in text and "repro.native" in text
        # The flags are the contract: nothing that reassociates or fuses;
        # -pthread for the batched push's row threads.
        assert native.FLAGS == (
            "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread",
        )

    def test_a_pool_parent_loads_before_it_forks(self, monkeypatch):
        from repro.server import pool

        loads = []
        monkeypatch.setattr(pool.native, "load", lambda: loads.append(1))
        monkeypatch.setattr(
            pool.socket, "create_server",
            lambda *a, **k: (_ for _ in ()).throw(
                OSError("stop before the fork")
            ),
        )
        with pytest.raises(OSError):
            pool.ServerPool(lambda: None, workers=1).start()
        assert loads == [1]


# --------------------------------------------------------------------- #
# (e) The two small fixes


def _near_tie_store(root: Path) -> DiskGraphStore:
    """Node 0 (cluster 0) exports into two pools: cluster 1 gets
    ``0.125`` and four shares of ``1.25e-17`` (each below half an ulp of
    the running sum, so a left-to-right sum never sees them), cluster 2
    gets one share of ``nextafter(0.125)``."""
    big, tiny = 0.25, 0.25e-16
    probs = np.array([big, tiny, tiny, tiny, tiny, np.nextafter(big, 1.0)])
    graph = SimpleNamespace(
        indptr=np.array([0, 6, 6, 6, 6, 6, 6, 6]),
        indices=np.arange(1, 7, dtype=np.int32),
        out_degrees=np.array([6, 0, 0, 0, 0, 0, 0]),
        edge_probabilities=probs,
    )
    labels = np.array([0, 1, 1, 1, 1, 1, 2])
    return DiskGraphStore(
        graph, ClusterAssignment(anchors=np.arange(3), labels=labels), root
    )


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(_PrimePushRun, id="native"),
        pytest.param(ReferencePrimePushRun, id="reference"),
    ],
)
def test_heaviest_pool_is_a_left_to_right_sum(tmp_path, monkeypatch, kind):
    store = _near_tie_store(tmp_path)
    # What CPython >= 3.12's builtin sum() computes; were the pool sum
    # spelled sum(), this makes 3.11 behave like 3.12 here.
    monkeypatch.setattr(sys.modules[kind.__module__], "sum", math.fsum, raising=False)
    loads = []
    resident_cluster = store.resident_cluster
    store.resident_cluster = lambda c: loads.append(c) or resident_cluster(c)
    hubs = np.zeros(7, dtype=bool)
    if kind is _PrimePushRun:
        _ClusterWaves(store, [0], hubs, 0.5, 1e-30, 10).run()
    else:
        run = kind(store, 0, hubs, 0.5, 1e-30, 10)
        while run.next_cluster() is not None:
            run.drain()
    # The oracle resolves residency per expanded node: one entry per
    # drain is its run of equal loads.
    drained = [c for i, c in enumerate(loads) if i == 0 or loads[i - 1] != c]
    pool_one = [0.125] + [1.25e-17] * 4
    pool_two = float(np.nextafter(0.125, 1.0))
    plain = 0.0
    for mass in pool_one:
        plain += mass
    assert plain < pool_two < math.fsum(pool_one)  # the near-tie is real
    assert drained == [0, 2, 1]  # the compensated sum would drain 1 first


_HEADER = struct.Struct("<2Q")


def _rewrite_segment(directory: Path, cluster: int, edit) -> None:
    """Apply ``edit(arrays)`` to a stored segment and make the manifest
    agree (length, CRC-32): structurally wrong, checksum-consistent."""
    arrays = {
        name: array.copy()
        for name, array in DiskGraphStore.open(directory).cluster_arrays(cluster).items()
    }
    edit(arrays)
    data = b"".join(
        (
            _HEADER.pack(arrays["nodes"].size, arrays["targets"].size),
            arrays["nodes"].astype("<i8").tobytes(),
            arrays["offsets"].astype("<i8").tobytes(),
            arrays["probs"].astype("<f8").tobytes(),
            arrays["targets"].astype("<i4").tobytes(),
        )
    )
    (directory / f"cluster_{cluster:05d}.seg").write_bytes(data)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["segments"][manifest["clusters"].index(cluster)] = [
        len(data), zlib.crc32(data),
    ]
    (directory / "manifest.json").write_text(json.dumps(manifest))


def _set(name, position, value):
    def edit(arrays):
        arrays[name][position] = value
    return edit


_TARGETS = f"an edge target lies outside [0, {NODES})"
_OFFSETS = "offsets are not a non-decreasing 0..8 sequence"  # 8 edges
MALFORMED = {  # the edit, and the problem its refusal names
    "target_past_the_last_node": (_set("targets", 0, NODES), _TARGETS),
    "negative_target": (_set("targets", -1, -1), _TARGETS),
    "offsets_do_not_start_at_zero": (_set("offsets", 0, 1), _OFFSETS),
    "offsets_decrease": (_set("offsets", 1, 99), _OFFSETS),
    "offsets_end_short_of_the_edges": (_set("offsets", -1, 1), _OFFSETS),
    "member_out_of_range": (
        _set("nodes", 0, NODES + 3), f"a member node lies outside [0, {NODES})"
    ),
    "member_of_another_cluster": (
        _set("nodes", 0, 3), "a member node is labelled with another cluster"
    ),
}


def _refusal(case: str) -> str:
    """The refusal text of MALFORMED ``case``, as a pattern."""
    return re.escape(f"malformed cluster segment ({MALFORMED[case][1]})")


class TestSegmentStructure:
    @pytest.fixture
    def broken(self, tricky, tmp_path, request):
        shutil.copytree(tricky / "c", tmp_path / "c")
        shutil.copy(tricky / "i.fppv", tmp_path / "i.fppv")
        _rewrite_segment(tmp_path / "c", 0, MALFORMED[request.param][0])
        return tmp_path, request.param

    @pytest.mark.parametrize("broken", MALFORMED, indirect=True)
    def test_refused_locally_naming_the_segment(self, broken):
        root, case = broken
        store = DiskGraphStore.open(root / "c")
        with pytest.raises(ValueError, match=r"cluster_00000\.seg: " + _refusal(case)):
            store.resident_cluster(0)
        with pytest.raises(ValueError, match=_refusal(case)):
            store.out_edges(0)
        assert store.faults == 0 and not store.resident_flags.any()
        assert store.resident_cluster(1).nodes_array.tolist() == [3, 4]

    @pytest.mark.parametrize("broken", MALFORMED, indirect=True)
    def test_refused_as_shard_unavailable_from_a_shard(self, broken):
        root, case = broken
        remote = sharded_over(DiskGraphStore.open(root / "c"))
        with pytest.raises(
            ShardUnavailableError, match=r"from shard 0: " + _refusal(case)
        ):
            remote.resident_cluster(0)

    @NATIVE
    @pytest.mark.parametrize(
        "broken", ["target_past_the_last_node", "negative_target"], indirect=True
    )
    def test_no_kernel_sees_it(self, broken, kernels):
        # Before the check: an out-of-bounds index into the drain's
        # per-node state.
        root, case = broken
        with DiskPPVStore(root / "i.fppv") as ppv_store:
            engine = DiskFastPPV(DiskGraphStore.open(root / "c"), ppv_store)
            with pytest.raises(ValueError, match=_refusal(case)):
                engine.query(0)
            engine.query(7)  # a query that never touches the segment

    def test_resident_arrays_are_the_stored_bytes_in_their_stored_dtypes(self):
        segment = b"".join((
            _HEADER.pack(2, 3),
            np.array([4, 9], "<i8").tobytes(),
            np.array([0, 1, 3], "<i8").tobytes(),
            np.array([1.0, 0.5, 0.5], "<f8").tobytes(),
            np.array([9, 4, 9], "<i4").tobytes(),
        ))
        resident = ResidentCluster(segment)
        assert resident.segment is segment
        for name, dtype in (
            ("nodes_array", np.int64), ("offsets_array", np.int64),
            ("targets_array", np.int32), ("probs_array", np.float64),
        ):
            array = getattr(resident, name)
            assert array.dtype == dtype
            assert array.flags.c_contiguous and array.flags.aligned
            assert array.base is segment  # a view: nothing copied or widened
        assert resident.nodes_array.tolist() == [4, 9]
        assert resident.out_edges(9)[0].tolist() == [4, 9]
        with pytest.raises(ValueError, match="length its header implies"):
            ResidentCluster(segment[:-1])

    def test_a_node_its_segment_does_not_hold_is_an_error_not_a_crash(
        self, tricky, tmp_path
    ):
        # Node 1 is labelled with cluster 0 but dropped from its
        # segment: every check of the *segment* passes, so the drain
        # itself must refuse the row lookup.
        shutil.copytree(tricky / "c", tmp_path / "c")

        def drop_node_one(arrays):
            keep = arrays["offsets"][2] - arrays["offsets"][1]
            arrays["targets"] = np.delete(
                arrays["targets"], np.s_[arrays["offsets"][1]:arrays["offsets"][2]]
            )
            arrays["probs"] = np.delete(
                arrays["probs"], np.s_[arrays["offsets"][1]:arrays["offsets"][2]]
            )
            arrays["nodes"] = np.delete(arrays["nodes"], 1)
            offsets = np.delete(arrays["offsets"], 2)
            offsets[2:] -= keep
            arrays["offsets"] = offsets

        _rewrite_segment(tmp_path / "c", 0, drop_node_one)
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            waves = _waves(DiskGraphStore.open(tmp_path / "c"), [0], ppv_store, 10)
        assert waves.state.wave == 0
        with pytest.raises(ValueError, match="node 1 reached while draining cluster 0 "):
            waves.run()


# --------------------------------------------------------------------- #
# (f) Allocation failure inside the push kernel

STARVE = """
import resource
import numpy as np
from repro import native
from repro.core import prime
from repro.core.index import clip_prime_ppv
from repro.graph.digraph import DiGraph

n, degree, batch = 2000, 50, 8
rng = np.random.default_rng(3)
graph = DiGraph(
    np.arange(0, n * degree + 1, degree),
    rng.integers(0, n, size=n * degree).astype(np.int32),
)
graph.edge_probabilities
hub_mask = np.zeros(n, dtype=bool)
sources = np.arange(batch, dtype=np.int64)
native.load()

with open("/proc/self/statm") as statm:
    mapped = int(statm.read().split()[0]) * resource.getpagesize()
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
# Room for the outputs (3 * batch * n * 8 bytes is generous) and some
# slack, but not for the ~7 MB of lanes one saturated row needs, even
# on one thread.
resource.setrlimit(resource.RLIMIT_AS, (mapped + (2 << 20), hard))
try:
    prime.prime_push_many(graph, sources, hub_mask, epsilon=1e-12)
except MemoryError as error:
    print("MemoryError:", error)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

got = prime.prime_push_many(graph, sources, hub_mask, epsilon=1e-12)
want = prime.prime_push_many(
    graph, sources, hub_mask, epsilon=1e-12, _numpy_rounds=True
)
print("recovered:", all(a.tobytes() == b.tobytes() for a, b in zip(got, want)))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS + /proc")
def test_allocation_failure_in_the_push_kernel_is_a_memory_error(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", STARVE],
        env=_environment(tmp_path, XDG_CACHE_HOME=_cache_home()),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "MemoryError: prime_push_many: the push kernel ran out of memory" in done.stdout
    assert "recovered: True" in done.stdout


THREAD_STARVE = """
import os, resource
import numpy as np
from repro import native
from repro.core import prime
from repro.graph.digraph import DiGraph

n, degree, length = 2000, 50, 100
rng = np.random.default_rng(3)
# Nodes n .. n + length - 1 are a chain: a row pushed from its head
# runs `length` rounds on a few bytes.
graph = DiGraph(
    np.concatenate((np.arange(0, n * degree + 1, degree),
                    n * degree + np.arange(1, length), [n * degree + length - 1])),
    np.concatenate((rng.integers(0, n, size=n * degree),
                    np.arange(n + 1, n + length))).astype(np.int32),
)
graph.edge_probabilities
size = graph.num_nodes
hub_mask = np.zeros(size, dtype=bool)
lib = native.load()
tasks = len(os.listdir("/proc/self/task"))


def addresses(*arrays):
    return [array.ctypes.data for array in arrays]


def push(sources, threads):
    sources = np.array(sources, dtype=np.int64)
    out = (np.zeros((sources.size, size)), np.zeros((sources.size, size)),
           np.zeros(sources.size, np.int64))
    used = lib.repro_prime_push_many(
        size, *addresses(graph.indptr, graph.indices, graph.edge_probabilities),
        sources.size, *addresses(sources, hub_mask), 0.15, 1e-12,
        prime._max_rounds(0.15, 1e-12), prime._DENSE_AGGREGATION_LIMIT,
        *addresses(*out), threads)
    return used, out


chains, busy = [n] * 8, list(range(8))
push(chains + chains, 4)  # three thread stacks, cached for the calls below
with open("/proc/self/statm") as statm:
    mapped = int(statm.read().split()[0]) * resource.getpagesize()
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
# Room for chain rows, not for the lanes of a busy one.
resource.setrlimit(resource.RLIMIT_AS, (mapped + (4 << 20), hard))
used, out = push(chains + chains, 4)
print("chains:", used, out[2].max())
for threads in (2, 4):
    # Whichever thread takes a busy row fails; the call still joins
    # every thread it started.
    for name, sources in (("busy last:", chains + busy),
                          ("busy first:", busy + chains)):
        used, _ = push(sources, threads)
        print(name, threads, used)
try:
    prime.prime_push_many(graph, chains + busy, hub_mask, epsilon=1e-12)
except MemoryError as error:
    print("MemoryError:", error)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
print("threads left:", len(os.listdir("/proc/self/task")) - tasks)
used, got = push(chains + busy, 2)
_, want = push(chains + busy, 1)
print("recovered:", used, all(a.tobytes() == b.tobytes() for a, b in zip(got, want)))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS + /proc")
def test_allocation_failure_in_any_thread_ends_every_thread(tmp_path):
    # One malloc arena, so every thread's allocations count against
    # RLIMIT_AS (glibc gives each thread an arena reserved up front).
    done = subprocess.run(
        [sys.executable, "-c", THREAD_STARVE],
        env=_environment(
            tmp_path, XDG_CACHE_HOME=_cache_home(), MALLOC_ARENA_MAX="1",
        ),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "chains: 4 99",
        "busy last: 2 -1", "busy first: 2 -1",
        "busy last: 4 -1", "busy first: 4 -1",
        "MemoryError: prime_push_many: the push kernel ran out of memory",
        "threads left: 0",
        "recovered: 2 True",
    ]


REFUSED_THREADS = """
import resource, sys
import numpy as np
from repro import native
from repro.core import prime
from repro.graph.digraph import DiGraph

n, degree = 200, 4
rng = np.random.default_rng(3)
graph = DiGraph(
    np.arange(0, n * degree + 1, degree),
    rng.integers(0, n, size=n * degree).astype(np.int32),
)
hub_mask = np.zeros(n, dtype=bool)
hub_mask[::17] = True
sources = np.arange(0, 40, 5, dtype=np.int64)
lib = native.load()


def addresses(*arrays):
    return [array.ctypes.data for array in arrays]


def push(threads):
    out = (np.zeros((sources.size, n)), np.zeros((sources.size, n)),
           np.zeros(sources.size, np.int64))
    used = lib.repro_prime_push_many(
        n, *addresses(graph.indptr, graph.indices, graph.edge_probabilities),
        sources.size, *addresses(sources, hub_mask), 0.15, 1e-8,
        prime._max_rounds(0.15, 1e-8), prime._DENSE_AGGREGATION_LIMIT,
        *addresses(*out), threads)
    return used, out


want = prime.prime_push_many(graph, sources, hub_mask, _numpy_rounds=True)
push(1)  # the push's own blocks, freed for the call below to reuse
warm = int(sys.argv[1])
if warm > 1:
    push(warm)  # leaves warm - 1 thread stacks cached
with open("/proc/self/statm") as statm:
    mapped = int(statm.read().split()[0]) * resource.getpagesize()
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
# No room for a new thread's stack.
resource.setrlimit(resource.RLIMIT_AS, (mapped + (16 << 10), hard))
used, got = push(4)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
print(used, all(a.tobytes() == b.tobytes() for a, b in zip(got, want)))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS + /proc")
@pytest.mark.parametrize("cached_stacks", [0, 1, 2])
def test_refused_threads_leave_the_rows_to_fewer(tmp_path, cached_stacks):
    # Under RLIMIT_AS a thread starts only on a stack the C library
    # kept from an earlier one, if any: asked for 4, the call runs on
    # fewer, with the same bytes.
    done = subprocess.run(
        [sys.executable, "-c", REFUSED_THREADS, str(cached_stacks + 1)],
        env=_environment(tmp_path, XDG_CACHE_HOME=_cache_home()),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    used, same = done.stdout.split()
    assert 1 <= int(used) < 4
    assert same == "True"


# --------------------------------------------------------------------- #
# (g) The compiled splice round against the scalar loop


def _entry(hub, nodes, scores, border_hubs=(), border_masses=()) -> PrimePPV:
    return PrimePPV(
        source=hub,
        nodes=np.array(nodes, dtype=np.int64),
        scores=np.array(scores, dtype=np.float64),
        border_hubs=np.array(border_hubs, dtype=np.int64),
        border_masses=np.array(border_masses, dtype=np.float64),
    )


ALPHA, SPLICE_NODES = 0.15, 8
# Hubs 1, 2, 5, 6.  Hub 5's border is empty; 6 borders itself; 1 and 6
# both feed 2, so a frontier [6, 1] touches [1, 2, 6, 5] — not sorted.
ENTRIES = {
    1: _entry(1, [0, 1, 3], [0.031, 0.19, 0.0123], [2, 5], [0.27, 0.1]),
    2: _entry(2, [2, 4], [0.1501, 0.07], [1, 5, 6], [0.2, 0.3, 0.11]),
    5: _entry(5, [5], [0.15]),
    6: _entry(6, [3, 6, 7], [0.02, 0.171, 0.3], [1, 2, 6], [0.05, 0.21, 0.13]),
}


def _start(hubs, masses, seed=0):
    """A query after iteration 0: a sparse estimate and its frontier."""
    estimate = np.zeros(SPLICE_NODES)
    touched = np.random.default_rng(seed).choice(SPLICE_NODES, 3, replace=False)
    estimate[touched] = [0.15, 0.04, 0.0021]
    return estimate, list(hubs), list(masses)


def _hub_start(hub):
    entry = ENTRIES[hub]
    return (
        entry.to_dense(SPLICE_NODES),
        entry.border_hubs.tolist(),
        entry.border_masses.tolist(),
    )


def _seen(state):
    """Every bit of a ``QueryState`` but its clock."""
    return (
        state.iteration, state.l1_error, state.frontier_size,
        state.scores.tobytes(),
    )


def _batch_rounds(
    entries, num_nodes, alpha, starts, stop, delta, cap, resident, fetched=None
):
    """``splice_rounds_exact`` over ``starts`` on a block holding every
    entry up front (memory) or growing through ``ensure`` (disk), whose
    calls are appended to ``fetched``."""
    estimates = np.array([estimate for estimate, _, _ in starts]).reshape(
        len(starts), num_nodes
    )
    frontiers = [
        (np.array(hubs, dtype=np.int64), np.array(masses, dtype=np.float64))
        for _, hubs, masses in starts
    ]
    if resident:
        block = SpliceBlock(alpha, num_nodes, HubRows.pack(entries.values()))
        ensure = block.rows_of
    else:
        block = SpliceBlock(alpha, num_nodes, HubRows.pack(()))

        def ensure(hubs):
            if fetched is not None:
                fetched.append(hubs.tolist())
            block.add_rows(HubRows.pack(entries[hub] for hub in hubs.tolist()))

    trace = [[] for _ in starts]
    rounds = splice_rounds_exact(
        estimates, frontiers, stop, alpha, delta, cap, block, ensure,
        time.perf_counter(),
        on_iteration=lambda i, state: trace[i].append(_seen(state)),
    )
    return (
        estimates.tobytes(),
        [outcome[:4] for outcome in rounds],
        trace,
        [(hubs.tolist(), masses.tolist()) for hubs, masses in frontiers],
    )


def _scalar_rounds(entries, alpha, starts, stop, delta, cap):
    """The same through ``scalar_splice_rounds``, one query at a time."""
    estimates, outcomes, trace = [], [], [[] for _ in starts]
    for i, (estimate, hubs, masses) in enumerate(starts):
        estimate = estimate.copy()
        outcomes.append(
            scalar_splice_rounds(
                estimate, dict(zip(hubs, masses)), stop, alpha, delta, cap,
                entries.__getitem__, time.perf_counter(),
                on_iteration=lambda state: trace[i].append(_seen(state)),
            )
        )
        estimates.append(estimate)
    return np.array(estimates).tobytes(), outcomes, trace


def _assert_rounds_three_ways(
    entries, num_nodes, alpha, starts, stop, delta=0.0, cap=64
):
    want = _scalar_rounds(entries, alpha, starts, stop, delta, cap)
    frontiers = set()
    for resident in (True, False):
        *got, final = _batch_rounds(
            entries, num_nodes, alpha, starts, stop, delta, cap, resident
        )
        assert tuple(got) == want, resident
        frontiers.add(repr(final))
    assert len(frontiers) == 1  # order and bits of what a next round would read
    return want[1]


class TestSpliceRoundsThreeWays:
    def test_a_hub_query_among_pushed_ones(self):
        starts = [_hub_start(1), _start([6, 1], [0.3, 0.2]), _hub_start(6)]
        outcomes = _assert_rounds_three_ways(
            ENTRIES, SPLICE_NODES, ALPHA, starts, StopAfterIterations(3)
        )
        assert [iterations for iterations, *_ in outcomes] == [3, 3, 3]

    @NATIVE
    def test_first_touch_order_is_not_sorted_order(self, kernels):
        *_, (frontier,) = _batch_rounds(
            ENTRIES, SPLICE_NODES, ALPHA, [_start([6, 1], [0.3, 0.2])],
            StopAfterIterations(1), 0.0, 64, True,
        )
        assert frontier[0] == [1, 2, 6, 5]
        assert frontier[1][1] == 0.0 + 0.3 * 0.21 + 0.2 * 0.27

    def test_duplicate_ids_do_not_share_an_accumulator(self):
        starts = [_start([2, 1], [0.4, 0.1]), _start([2, 1], [0.4, 0.1]),
                  _start([1], [0.5], seed=3), _start([2, 1], [0.4, 0.1])]
        outcomes = _assert_rounds_three_ways(
            ENTRIES, SPLICE_NODES, ALPHA, starts, StopAfterIterations(4)
        )
        assert outcomes[0] == outcomes[1] == outcomes[3] != outcomes[2]

    def test_an_empty_frontier_retires_at_once(self):
        starts = [_start([], []), _start([6], [0.3]), _start([], [], seed=2)]
        outcomes = _assert_rounds_three_ways(
            ENTRIES, SPLICE_NODES, ALPHA, starts, StopAfterIterations(2)
        )
        assert [o[0] for o in outcomes] == [0, 2, 0]
        assert [o[2:] for o in outcomes] == [(0, 0), outcomes[1][2:], (0, 0)]

    def test_delta_gating_every_pair_still_counts_the_round(self):
        starts = [_start([1, 2], [0.3, 0.2]), _hub_start(2)]
        outcomes = _assert_rounds_three_ways(
            ENTRIES, SPLICE_NODES, ALPHA, starts, StopAfterIterations(5), delta=1.0
        )
        for iterations, error_history, hubs_expanded, work_units in outcomes:
            assert (iterations, hubs_expanded, work_units) == (1, 0, 0)
            assert error_history[0] == error_history[1]

    def test_delta_gating_some_pairs(self):
        starts = [_start([1, 2, 6], [0.3, 0.01, 0.2]), _start([5, 2], [0.01, 0.6])]
        outcomes = _assert_rounds_three_ways(
            ENTRIES, SPLICE_NODES, ALPHA, starts, StopAfterIterations(3), delta=0.01
        )
        assert outcomes[0][2] > 2

    def test_a_hub_with_an_empty_border_ends_the_query(self):
        starts = [_start([5], [0.3]), _start([5, 1], [0.3, 0.2])]
        outcomes = _assert_rounds_three_ways(
            ENTRIES, SPLICE_NODES, ALPHA, starts, StopAfterIterations(4)
        )
        assert outcomes[0][:1] + outcomes[0][2:] == (1, 1, 1)
        assert outcomes[1][0] == 4

    def test_a_growing_block_fetches_hubs_first_needed_in_later_rounds(self):
        # Round 1 needs hub 1; its border brings 2 and 5 (round 2), and
        # hub 2's brings 6 (round 3): the round asks, ensure fetches, the
        # round runs again.
        starts = [_start([1], [0.5]), _start([1], [0.4], seed=4)]
        _assert_rounds_three_ways(
            ENTRIES, SPLICE_NODES, ALPHA, starts, StopAfterIterations(3)
        )
        fetched = []
        _batch_rounds(
            ENTRIES, SPLICE_NODES, ALPHA, starts, StopAfterIterations(3),
            0.0, 64, False, fetched,
        )
        assert fetched == [[1], [2, 5], [6]]

    def test_a_resident_block_refuses_a_hub_it_lacks_as_a_key_error(self):
        # On memory ``ensure`` is ``block.rows_of``: hub 5, first needed
        # in round 2, is not indexed.
        entries = {hub: ENTRIES[hub] for hub in (1, 2, 6)}
        block = SpliceBlock(ALPHA, SPLICE_NODES, HubRows.pack(entries.values()))
        estimates = np.zeros((1, SPLICE_NODES))
        frontiers = [(np.array([1]), np.array([0.5]))]
        with pytest.raises(KeyError, match=r"hubs \[5\] are not in the block"):
            splice_rounds_exact(
                estimates, frontiers, StopAfterIterations(3), ALPHA, 0.0, 64,
                block, block.rows_of, time.perf_counter(),
            )

    def test_max_iterations_zero_runs_no_round(self):
        starts = [_start([1], [0.5]), _hub_start(1)]
        outcomes = _assert_rounds_three_ways(
            ENTRIES, SPLICE_NODES, ALPHA, starts, StopAfterIterations(3), cap=0
        )
        assert [o[0] for o in outcomes] == [0, 0]

    def test_top_k_certificates_retire_queries_mid_batch(self, small_social):
        # The round loop evaluates should_stop_many; the scalar loop
        # should_stop.  Same decisions, so same bits, on both block
        # shapes.  A real index (clip 0): certificates need real mass.
        n = small_social.num_nodes
        index = build_index(
            small_social, select_hubs(small_social, num_hubs=40),
            clip=0.0, epsilon=1e-6,
        )
        entries = {hub: index.get(hub) for hub in index.hubs.tolist()}
        starts = []
        for query in [3, int(index.hubs[0]), 8, 120, 301, int(index.hubs[7])]:
            base = entries.get(query) or prime.prime_ppv(
                small_social, query, index.hub_mask, index.alpha, 1e-6
            )
            starts.append(
                (base.to_dense(n), base.border_hubs.tolist(),
                 base.border_masses.tolist())
            )
        outcomes = _assert_rounds_three_ways(
            entries, n, index.alpha, starts,
            StopWhenCertified(k=3, max_iterations=30),
        )
        retired_at = {iterations for iterations, *_ in outcomes}
        assert len(retired_at) > 2 and max(retired_at) < 30


@st.composite
def splice_cases(draw):
    num_nodes = draw(st.integers(3, 14))
    node = st.integers(0, num_nodes - 1)
    hubs = sorted(draw(st.sets(node, min_size=1, max_size=5)))
    value = st.floats(1e-4, 0.3, allow_nan=False)

    def sparse(ids, max_size):
        chosen = sorted(draw(st.sets(ids, max_size=max_size)))
        return chosen, [draw(value) for _ in chosen]

    entries = {}
    for hub in hubs:
        nodes, scores = sparse(node, 6)
        border = sparse(st.sampled_from(hubs), len(hubs))
        entries[hub] = _entry(hub, nodes, scores, *border)
    starts = []
    for _ in range(draw(st.integers(1, 5))):
        estimate = np.zeros(num_nodes)
        nodes, scores = sparse(node, 4)
        estimate[nodes] = scores
        frontier = draw(st.lists(st.sampled_from(hubs), unique=True, max_size=5))
        starts.append((estimate, frontier, [draw(value) for _ in frontier]))
    delta = draw(st.sampled_from([0.0, 1e-3, 0.02]))
    stop = draw(
        st.sampled_from(
            [StopAfterIterations(0), StopAfterIterations(3), StopAtL1Error(0.5),
             StopWhenCertified(k=2, max_iterations=5)]
        )
    )
    return entries, num_nodes, starts, stop, delta, draw(st.sampled_from([0, 2, 64]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(splice_cases())
def test_hypothesis_rounds_three_ways(case):
    entries, num_nodes, starts, stop, delta, cap = case
    _assert_rounds_three_ways(entries, num_nodes, 0.2, starts, stop, delta, cap)


@dataclass(frozen=True)
class _StopPastFrontier:
    """A user condition with no ``should_stop_many``: the round loop asks
    it per state, as the scalar loop does."""

    size: int
    rounds: int

    def should_stop(self, state) -> bool:
        return state.frontier_size > self.size or state.iteration >= self.rounds


ROUND_STOPS = [
    StopWhenCertified(k=2, max_iterations=6),
    StopAtL1Error(0.3),
    StopAtL1Error(0.6),
    any_of(StopAtL1Error(0.4), StopAfterIterations(2)),
    any_of(StopWhenCertified(k=1, max_iterations=4), StopAtL1Error(0.5)),
    _StopPastFrontier(3, 4),
    any_of(_StopPastFrontier(2, 5), StopAtL1Error(0.5)),
]


@st.composite
def round_batches(draw):
    """``splice_cases`` with repeated queries, shuffled, under stopping
    conditions that retire queries mid-batch."""
    entries, num_nodes, starts, _, delta, _ = draw(splice_cases())
    repeats = draw(st.lists(st.sampled_from(range(len(starts))), max_size=3))
    starts = draw(st.permutations(starts + [starts[i] for i in repeats]))
    stop = draw(st.sampled_from(ROUND_STOPS))
    return entries, num_nodes, starts, stop, delta, draw(st.sampled_from([1, 3, 64]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(round_batches())
def test_hypothesis_the_compiled_round_is_the_scalar_loop(case):
    """Scores, error histories, counters and every ``on_iteration``
    state, bit for bit, on a resident and on a growing block."""
    entries, num_nodes, starts, stop, delta, cap = case
    _assert_rounds_three_ways(entries, num_nodes, 0.2, starts, stop, delta, cap)


@pytest.mark.parametrize("num_nodes", [4_000, 20_000, 100_000])
def test_the_error_sum_keeps_np_sums_bits(num_nodes):
    """Each round's ``1 - sum(estimate)`` is computed in C; it must be
    ``1.0 - float(np.sum(row))`` to the bit on random supports."""
    rng = np.random.default_rng(num_nodes)

    def values(size):
        return rng.random(size) * 10.0 ** rng.integers(-9, -2, size)

    hubs = rng.choice(num_nodes, 24, replace=False)
    entries = {}
    for hub in hubs.tolist():
        size = rng.integers(1, num_nodes // 4)
        nodes = np.sort(rng.choice(num_nodes, size, replace=False))
        border = np.sort(rng.choice(hubs, rng.integers(0, 7), replace=False))
        entries[hub] = _entry(
            hub, nodes, values(size), border, rng.random(border.size) * 0.3
        )
    estimates = np.zeros((4, num_nodes))
    frontiers = []
    for row in estimates:
        support = rng.choice(num_nodes, rng.integers(1, num_nodes), replace=False)
        row[support] = values(support.size)
        frontiers.append((rng.choice(hubs, 6, replace=False), rng.random(6) * 0.4))
    block = SpliceBlock(0.15, num_nodes, HubRows.pack(entries.values()))
    seen = [[] for _ in frontiers]
    rounds = splice_rounds_exact(
        estimates, frontiers, StopAfterIterations(3), 0.15, 0.0, 64, block,
        block.rows_of, time.perf_counter(),
        on_iteration=lambda i, state: seen[i].append(state.scores.copy()),
    )
    for (iterations, history, *_), rows in zip(rounds, seen):
        assert iterations == 3
        want = [1.0 - float(np.sum(row)) for row in rows]
        assert np.array(history).tobytes() == np.array(want).tobytes()


def _block_csr(block: SpliceBlock) -> tuple:
    return tuple(
        array.tobytes() for matrix in (block._scores, block._borders)
        for array in matrix.csr()
    )


def _packed_csr(rows: HubRows) -> tuple:
    """The bytes of ``rows`` as the block's two CSR matrices: each indptr
    the cumulative sum of the counts, the arrays as they are."""
    def indptr(counts):
        return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    return tuple(
        array.tobytes()
        for array in (
            indptr(rows.entries), rows.nodes, rows.scores,
            indptr(rows.borders), rows.border_hubs, rows.border_masses,
        )
    )


@st.composite
def row_batches(draw):
    """Prime PPVs (empty score and border rows included) of distinct
    hubs, split into append batches."""
    num_nodes = draw(st.integers(1, 12))
    node = st.integers(0, num_nodes - 1)
    value = st.floats(-1.0, 1.0, allow_nan=False)
    entries = []
    for hub in draw(st.permutations(range(num_nodes)))[:draw(st.integers(0, 6))]:
        nodes = sorted(draw(st.sets(node, max_size=5)))
        borders = sorted(draw(st.sets(node, max_size=4)))
        entries.append(_entry(
            hub, nodes, [draw(value) for _ in nodes],
            borders, [draw(value) for _ in borders],
        ))
    cuts = sorted(draw(st.lists(st.integers(0, len(entries)), max_size=4)))
    bounds = [0, *cuts, len(entries)]
    return num_nodes, [entries[a:b] for a, b in zip(bounds, bounds[1:])]


@NATIVE
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=row_batches())
def test_hypothesis_add_rows_holds_the_packed_rows(case, kernels):
    """A block made over one batch and grown by ``add_rows`` holds
    bytewise ``HubRows.pack``'s arrays of every row in append order (the
    batch it was made with without a copy), reads each prime PPV back,
    and splices the scalar loop's bits: the scores, then the trivial-tour
    correction the round applies at the hub."""
    num_nodes, batches = case
    first = HubRows.pack(batches[0])
    block = SpliceBlock(ALPHA, num_nodes, first)
    for batch in batches[1:]:
        block.add_rows(HubRows.pack(batch))
    appended = [entry for batch in batches for entry in batch]
    assert _block_csr(block) == _packed_csr(HubRows.pack(appended))
    if len(batches) == 1 and first.nodes.size:
        assert np.shares_memory(block._scores.csr()[1], first.nodes)
    assert block.num_rows == len(appended)
    for entry in appended:
        got = block.prime_of(entry.source)
        for array, want in zip(got, (entry.nodes, entry.scores,
                                     entry.border_hubs, entry.border_masses)):
            assert array.tobytes() == want.tobytes()
    if appended:
        # One round of one query per held hub, its frontier that hub.
        held = [entry.source for entry in appended]
        estimates = np.zeros((len(held), num_nodes))
        splice_rounds_exact(
            estimates, [(np.array([hub]), np.array([0.5])) for hub in held],
            StopAfterIterations(1), ALPHA, 0.0, 64, block, block.rows_of,
            time.perf_counter(),
        )
        want = np.zeros_like(estimates)
        for part, entry in zip(want, appended):
            np.add.at(part, entry.nodes, 0.5 * entry.scores)
            part[entry.source] -= ALPHA * 0.5
        assert estimates.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=row_batches(), data=st.data())
def test_hypothesis_drop_keeps_every_other_row(case, data):
    """Hubs dropped between appends — the rows compacted once dropped
    elements outnumber live ones — read as missing, every other row
    reads back bytewise, and a dropped hub can be appended again."""
    num_nodes, batches = case
    block = SpliceBlock(ALPHA, num_nodes, HubRows.pack([]))
    held, dropped = {}, []
    for batch in batches:
        block.add_rows(HubRows.pack(batch))
        held.update((entry.source, entry) for entry in batch)
        gone = []
        if held:
            gone = sorted(data.draw(st.sets(st.sampled_from(sorted(held)))))
        block.drop(np.array(gone, dtype=np.int64))
        dropped += [held.pop(hub) for hub in gone]
        assert block.hubs.tolist() == sorted(held) and block.num_rows == len(held)
        assert block.missing(np.array(gone, dtype=np.int64)).tolist() == gone
    block.add_rows(HubRows.pack(dropped))
    for entry in [*held.values(), *dropped]:
        got = block.prime_of(entry.source)
        for array, want in zip(got, (entry.nodes, entry.scores,
                                     entry.border_hubs, entry.border_masses)):
            assert array.tobytes() == want.tobytes()


class TestOneRowPerHub:
    """A block refuses a hub it already holds, and a batch naming a hub
    twice, before it changes anything."""

    def _block(self):
        return SpliceBlock(ALPHA, SPLICE_NODES, HubRows.pack([ENTRIES[1]]))

    def test_a_held_hub(self):
        block = self._block()
        with pytest.raises(ValueError, match="hub 1 already has a row"):
            block.add_rows(HubRows.pack([ENTRIES[2], ENTRIES[1]]))
        assert block.num_rows == 1
        assert block.missing(np.array([1, 2])).tolist() == [2]

    def test_a_repeated_hub(self):
        block = self._block()
        with pytest.raises(ValueError, match="hub 2 is named twice"):
            block.add_rows(HubRows.pack([ENTRIES[2], ENTRIES[6], ENTRIES[2]]))
        assert block.missing(np.array([2, 6])).tolist() == [2, 6]
        with pytest.raises(ValueError, match="hub 6 is named twice"):
            SpliceBlock(ALPHA, SPLICE_NODES, HubRows.pack([ENTRIES[6]] * 2))
        block.add_rows(HubRows.pack([ENTRIES[2]]))
        assert block.num_rows == 2

    def test_a_hub_outside_the_graph(self):
        entry = _entry(SPLICE_NODES, [0], [0.15], [], [])
        with pytest.raises(ValueError, match=f"hub {SPLICE_NODES} is outside"):
            self._block().add_rows(HubRows.pack([entry]))

    def test_arrays_that_disagree_with_their_counts(self):
        rows = HubRows.pack([ENTRIES[2]])
        with pytest.raises(ValueError, match="disagree with its counts"):
            self._block().add_rows(replace(rows, scores=rows.scores[:-1]))
        with pytest.raises(ValueError, match="disagree with its counts"):
            SpliceBlock(ALPHA, SPLICE_NODES, replace(rows, entries=-rows.entries))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(deployments())
def test_hypothesis_indexes_the_batch_of_one_is_the_scalar_loop(deployment):
    # Both backends: memory against reference_query, disk against the
    # oracle loops of oracles.py.
    num_nodes, edges, labels, hubs, batch, memory_budget, fault_budget, backend = (
        deployment
    )
    graph = _csr(num_nodes, edges)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        _deploy(root, graph, hubs, labels, epsilon=1e-6)
        index = load_index(root / "i.fppv")
        stop = StopAfterIterations(3)
        with DiskPPVStore(root / "i.fppv") as ppv_store:
            memory = FastPPV(graph, index, delta=0.0)
            disk = DiskFastPPV(
                _open(backend, root / "c", memory_budget), ppv_store,
                delta=0.0, fault_budget=fault_budget,
            )
            for query in batch:
                got = memory.query(query, stop=stop)
                want = reference_query(memory, query, stop=stop)
                assert got.scores.tobytes() == want.scores.tobytes()
                assert got.error_history == want.error_history
                assert (got.iterations, got.hubs_expanded, got.work_units) == (
                    want.iterations, want.hubs_expanded, want.work_units
                )
                got = disk.query(query, stop=stop)
                want = reference_disk_query(
                    DiskGraphStore.open(root / "c"), ppv_store, query,
                    stop=stop, delta=0.0, fault_budget=fault_budget,
                )
                assert got.scores.tobytes() == want.scores.tobytes()
                assert got.error_history == want.error_history
                assert got.hub_reads == want.hub_reads
                assert got.work_units == want.work_units


class TestAColumnOutsideTheGraph:
    """A block row naming a node ``>= num_nodes`` or ``< 0`` (a corrupt
    payload that still parses) is refused by the round before it writes
    anything — never written through, into a neighbour's row or off the
    buffer."""

    @staticmethod
    def _refused(entries, hub):
        # Three queries; only the middle one's frontier names ``hub``.
        block = SpliceBlock(ALPHA, SPLICE_NODES, HubRows.pack(entries.values()))
        estimates = np.full((3, SPLICE_NODES), 7.0)
        frontiers = [
            (np.array([1]), np.array([0.5])),
            (np.array([1, hub]), np.array([0.5, 0.25])),
            (np.array([5]), np.array([0.5])),
        ]
        with pytest.raises(ValueError, match=f"hub {hub} names a node outside"):
            splice_rounds_exact(
                estimates, frontiers, StopAfterIterations(2), ALPHA, 0.0, 64,
                block, block.rows_of, time.perf_counter(),
            )
        assert (estimates == 7.0).all()

    @NATIVE
    @pytest.mark.parametrize("bad", [SPLICE_NODES, SPLICE_NODES + 40, -1, -(2**40)])
    def test_score_row(self, kernels, bad):
        entries = dict(ENTRIES)
        entries[2] = _entry(2, [2, bad], [0.15, 0.07], [1], [0.2])
        self._refused(entries, 2)

    @NATIVE
    @pytest.mark.parametrize("bad", [SPLICE_NODES, -1])
    def test_border_row(self, kernels, bad):
        entries = dict(ENTRIES)
        entries[6] = _entry(6, [6], [0.15], [1, bad], [0.2, 0.1])
        self._refused(entries, 6)

    @NATIVE
    def test_through_the_round_loop(self, kernels):
        entries = dict(ENTRIES)
        entries[1] = _entry(1, [0, SPLICE_NODES], [0.1, 0.2], [2], [0.3])
        with pytest.raises(ValueError, match="hub 1 names a node outside"):
            _batch_rounds(
                entries, SPLICE_NODES, ALPHA, [_start([6, 1], [0.3, 0.2])],
                StopAfterIterations(2), 0.0, 64, False,
            )

    def test_a_frontier_hub_outside_the_graph(self):
        block = SpliceBlock(ALPHA, SPLICE_NODES, HubRows.pack(ENTRIES.values()))
        with pytest.raises(ValueError, match="frontier hub -1 is outside"):
            splice_rounds_exact(
                np.zeros((1, SPLICE_NODES)), [(np.array([-1]), np.array([0.5]))],
                StopAfterIterations(2), ALPHA, 0.0, 64, block, block.rows_of,
                time.perf_counter(),
            )
