"""Bitwise teeth for the disk push's drain.

A batch's pushes run as ``_ClusterWaves``: one compiled call per wave
drains every run that needs the wave's cluster, routing mass and
depositing scores over the resident cluster's arrays; a push of one
source is a batch of one, read back as its ``_PrimePushRun`` row.  The cases
it could get wrong — the same target twice in one row,
self-loops, a hub source, rows without edges, a cluster without edges,
a drain that expands nothing, a budget-truncated run — are pinned here
against the per-edge oracle of ``oracles.py``, byte for byte, together
with the dict orders downstream code iterates (``border``) and the
deterministic accounting.  Every case runs on both residencies: the
local ``DiskGraphStore`` (segment views) and the router's
``ShardedGraphStore`` (the same segment decoded out of a
``ShardEngine.fetch_cluster`` reply — ``oracles.LocalFleet``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferencePrimePushRun,
    clusters_pool,
    reference_disk_query,
    sharded_over,
)
from repro import build_index
from repro.graph.digraph import DiGraph
from repro.storage import (
    ClusterAssignment,
    DiskFastPPV,
    DiskGraphStore,
    DiskPPVStore,
    save_index,
)
from repro.storage.disk_engine import _ClusterWaves, _PrimePushRun


def _csr(num_nodes: int, edges: list[tuple[int, int]]) -> DiGraph:
    """A graph that keeps parallel edges and self-loops (``from_edges``
    merges duplicates; the raw CSR constructor does not)."""
    edges = sorted(edges, key=lambda edge: edge[0])
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount([s for s, _ in edges], minlength=num_nodes)))
    )
    return DiGraph(indptr, np.array([d for _, d in edges], dtype=np.int32))


def _deploy(root: Path, graph: DiGraph, hubs, labels, epsilon: float):
    """Save an index and a cluster store for ``graph`` under ``root``."""
    labels = np.asarray(labels, dtype=np.int64)
    num_clusters = int(labels.max()) + 1
    save_index(build_index(graph, hubs, epsilon=epsilon), root / "i.fppv")
    DiskGraphStore(
        graph,
        ClusterAssignment(anchors=np.arange(num_clusters), labels=labels),
        root / "c",
    )


def _open(backend: str, directory: Path, clusters: int = 1):
    """A fresh reader of ``directory`` for ``backend``, over a pool of
    ``clusters`` largest segments."""
    store = DiskGraphStore.open(directory)
    pool = clusters_pool(store, clusters)
    if backend == "disk":
        return DiskGraphStore.open(directory, pool=pool)
    return sharded_over(store, pool)


BACKENDS = pytest.mark.parametrize("backend", ["disk", "sharded"])


def _waves(store, sources, ppv_store, fault_budget) -> _ClusterWaves:
    """The compiled pushes of ``sources`` as one batch, started (the
    first wave staged) but not run."""
    return _ClusterWaves(
        store, sources, ppv_store.hub_mask, ppv_store.alpha,
        ppv_store.epsilon, fault_budget,
    )


def _begin(kind, store, source, ppv_store, fault_budget):
    """A push of ``kind`` from ``source``, nothing drained yet: the
    oracle's run, or the compiled batch of one."""
    if kind is _PrimePushRun:
        return _waves(store, [source], ppv_store, fault_budget)
    return kind(
        store, source, ppv_store.hub_mask, ppv_store.alpha,
        ppv_store.epsilon, fault_budget,
    )


def _finish(started):
    """Drain ``started`` to completion (or to its budget); the run."""
    if isinstance(started, _ClusterWaves):
        started.run()
        return started.rows()[0]
    while started.next_cluster() is not None:
        started.drain()
    return started


def _run(kind, root, ppv_store, source, fault_budget, backend="disk"):
    """A push of ``kind`` from ``source`` on a fresh one-cluster store,
    drained to completion (or to its budget)."""
    return _finish(
        _begin(kind, _open(backend, root / "c"), source, ppv_store, fault_budget)
    )


def _stage(started, node: int, mass: float) -> None:
    """Stage a drain of cluster 0 holding only ``node`` at ``mass`` by
    hand — in the oracle's dicts or in the compiled batch of one's
    arrays (and its next wave).  Unreachable through ``next_cluster``,
    which stages super-threshold mass only."""
    if isinstance(started, ReferencePrimePushRun):
        started.pools.clear()
        started._pending = (0, {node: mass})
        return
    arrays, state = started.arrays, started.runs[0]
    arrays["head"][:] = -1
    arrays["queued"][:] = 0
    arrays["mass"][0, node], arrays["queued"][0, node] = mass, 1
    state.order_count = 0
    state.pending, state.pending_head, state.pending_tail = 0, node, node
    started.state.wave = 0


def _assert_runs_identical(fast, oracle) -> None:
    assert fast.scores.tobytes() == oracle.scores.tobytes()
    assert list(fast.border.items()) == list(oracle.border.items())
    assert (fast.drains, fast.edges, fast.truncated) == (
        oracle.drains, oracle.edges, oracle.truncated
    )


# Node 0 fans out with a parallel edge (0 -> 1 twice) and a self-loop;
# 3 carries a self-loop and a parallel pair into the hub 2; 5 is
# dangling; 6 only feeds the graph; 7 is dangling and alone in its
# cluster, so that cluster stores no edge at all.  Hub: 2.  Four clusters.
TRICKY_EDGES = [
    (0, 1), (0, 1), (0, 0), (0, 3), (1, 2), (1, 4), (2, 0), (2, 3),
    (3, 3), (3, 2), (3, 2), (3, 4), (4, 0), (4, 5), (4, 1), (4, 7),
    (6, 0), (6, 6),
]
TRICKY_LABELS = [0, 0, 0, 1, 1, 2, 2, 3]
NODES = len(TRICKY_LABELS)


@pytest.fixture(scope="module")
def tricky(tmp_path_factory):
    root = tmp_path_factory.mktemp("drain")
    _deploy(root, _csr(NODES, TRICKY_EDGES), [2], TRICKY_LABELS, epsilon=1e-9)
    return root


class TestHandBuiltRows:
    @BACKENDS
    @pytest.mark.parametrize("fault_budget", [1, 2, 3, 10**9])
    @pytest.mark.parametrize("source", range(NODES))
    def test_every_source_matches_the_per_edge_oracle(
        self, tricky, source, fault_budget, backend
    ):
        # Sources cover: parallel edges + self-loop (0, 3), the hub as
        # the push's source (2), a dangling source whose only drain
        # expands a row with no edges (5), a source in (7) and one
        # exporting into (4) the edge-less cluster; budgets 1..3 truncate.
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            fast = _run(
                _PrimePushRun, tricky, ppv_store, source, fault_budget, backend
            )
            oracle = _run(
                ReferencePrimePushRun, tricky, ppv_store, source, fault_budget
            )
        _assert_runs_identical(fast, oracle)
        assert fast.scores[source] > 0.0

    def test_truncation_actually_happens(self, tricky):
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            flags = [
                _run(_PrimePushRun, tricky, ppv_store, 0, budget).truncated
                for budget in (1, 2, 3, 10**9)
            ]
        assert flags[0] and not flags[-1]

    @BACKENDS
    def test_a_drain_that_expands_no_row_deposits_nothing(self, tricky, backend):
        # Staged by hand so the empty deposit stays safe.
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            started = [
                _begin(kind, _open(backend, tricky / "c"), 0, ppv_store, 10)
                for kind in (_PrimePushRun, ReferencePrimePushRun)
            ]
        for push in started:
            _stage(push, 1, ppv_store.epsilon / 2)
        started[1].drain()
        runs = [_finish(push) for push in started]
        _assert_runs_identical(*runs)
        assert runs[0].drains == 1
        assert runs[0].scores.tolist() == [ppv_store.alpha] + [0.0] * (NODES - 1)

    @BACKENDS
    def test_edgeless_rows_and_clusters_keep_integer_targets(self, tricky, backend):
        # What the deposit indexes with: an empty row of a cluster with
        # edges (5), the only row of a cluster without any (7).
        store = _open(backend, tricky / "c")
        for node in (5, 7):
            targets, probs = store.out_edges(node)
            assert targets.size == probs.size == 0
            assert targets.dtype.kind == "i" and probs.dtype == np.float64

    @BACKENDS
    @pytest.mark.parametrize("memory_budget", [1, 2, 4])
    def test_engine_matches_oracle_query(self, tricky, memory_budget, backend):
        queries = [0, 3, 2, 5, 0, 6, 4, 1, 7]
        with DiskPPVStore(tricky / "i.fppv") as ppv_store:
            engine = DiskFastPPV(
                _open(backend, tricky / "c", memory_budget),
                ppv_store,
                delta=0.0,
            )
            served = engine.query_many(queries)
            for query, got in zip(queries, served):
                want = reference_disk_query(
                    DiskGraphStore.open(tricky / "c"), ppv_store, query,
                    delta=0.0,
                )
                assert got.scores.tobytes() == want.scores.tobytes()
                assert (got.cluster_faults, got.hub_reads, got.truncated) == (
                    want.cluster_faults, want.hub_reads, want.truncated
                )


# --------------------------------------------------------------------- #
# The property: any small graph, any residency, any batch


@st.composite
def deployments(draw):
    num_nodes = draw(st.integers(4, 12))
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), min_size=3, max_size=36))
    num_clusters = draw(st.integers(1, 4))
    labels = draw(
        st.lists(
            st.integers(0, num_clusters - 1),
            min_size=num_nodes, max_size=num_nodes,
        )
    )
    labels[0] = num_clusters - 1  # every cluster id up to the max exists
    hubs = sorted(draw(st.sets(node, min_size=1, max_size=3)))
    batch = draw(st.lists(node, min_size=1, max_size=6))
    memory_budget = draw(st.sampled_from([1, 2, num_clusters]))
    fault_budget = draw(st.sampled_from([None, 1, 2, 3]))
    backend = draw(st.sampled_from(["disk", "sharded"]))
    return (
        num_nodes, edges, labels, hubs, batch, memory_budget, fault_budget,
        backend,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(deployments())
def test_batch_equals_oracle_and_query_alone(deployment):
    (
        num_nodes, edges, labels, hubs, batch, memory_budget, fault_budget,
        backend,
    ) = deployment
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        _deploy(root, _csr(num_nodes, edges), hubs, labels, epsilon=1e-6)
        with DiskPPVStore(root / "i.fppv") as ppv_store:

            def engine(resident):
                return DiskFastPPV(
                    _open(backend, root / "c", resident), ppv_store,
                    delta=0.0, fault_budget=fault_budget,
                )

            served = engine(memory_budget).query_many(batch)
            runs = engine(memory_budget)._grouped_pushes(batch)
            # The engine's default budget: the number of clusters.
            budget = fault_budget if fault_budget is not None else max(labels) + 1
            for query, got in zip(batch, served):
                alone = engine(1).query(query)
                want = reference_disk_query(
                    DiskGraphStore.open(root / "c"), ppv_store, query,
                    delta=0.0, fault_budget=fault_budget,
                )
                for other in (alone, want):
                    assert got.scores.tobytes() == other.scores.tobytes()
                    assert (
                        got.cluster_faults, got.hub_reads, got.truncated
                    ) == (other.cluster_faults, other.hub_reads, other.truncated)
                if query not in ppv_store:
                    _assert_runs_identical(
                        runs[query],
                        _run(ReferencePrimePushRun, root, ppv_store, query, budget),
                    )
