"""Command-line interface.

The subcommands cover the offline/online lifecycle end to end::

    repro generate social --nodes 5000 --out graph.txt
    repro info graph.txt
    repro index graph.txt --hubs 300 --workers 4 --out graph.fppv
    repro query graph.txt graph.fppv 42 --top 10 --eta 2
    repro query graph.txt graph.fppv 42 7 19
    repro query graph.txt graph.fppv 42 7 19 --top-k 10
    repro disk-query graph.txt graph.fppv 42 7 19 --clusters 12
    repro serve graph.txt graph.fppv --requests requests.jsonl
    repro serve graph.txt graph.fppv --tcp 127.0.0.1:7474 --workers 4
    repro shard-index graph.txt graph.fppv --shards 3 --out parts/
    repro serve --shard-map parts/ --tcp 127.0.0.1:7474
    repro serve graph.txt graph.fppv --shards 3 --tcp 127.0.0.1:7474
    repro stats 127.0.0.1:7474 --watch
    repro stats 127.0.0.1:7474 --prometheus
    repro trace 127.0.0.1:7474 0123456789abcdef
    repro autotune graph.txt

All online subcommands run through the :class:`~repro.serving.PPVService`
façade: ``query`` and ``disk-query`` submit their nodes as one burst (so
multi-node invocations coalesce into the batched sparse-matrix / cluster
-grouped disk engine automatically), and ``serve`` keeps a service open
over a JSONL request loop — on stdin/stdout by default (each input line
is a request, responses are emitted in request order at every blank
line or at end of input), or over the network with ``--tcp HOST:PORT``
(the :mod:`repro.server` asyncio front-end; add ``--workers N`` to
pre-fork N serving processes sharing the port).  Concurrent batches
share the scheduler's coalescing and popularity cache either way.  ``query
--top-k K`` switches to certified top-k serving: each query runs until
its top set is provably exact.  ``disk-query`` replays the Sect. 5.3
reduced-memory deployment (cluster-segmented graph, on-disk PPV index)
and reports the cluster faults and hub reads every query paid.

Graphs travel as whitespace edge lists (the SNAP convention), indexes as
the binary ``.fppv`` format of :mod:`repro.storage.ppv_store`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from typing import Sequence

from repro.core.autotune import autotune_hub_count
from repro.core.hubs import HubPolicy, select_hubs
from repro.core.index import build_index
from repro.core.query import (
    StopAfterIterations,
    StopAfterTime,
    StopAtL1Error,
    any_of,
)
from repro.graph.analysis import graph_stats
from repro.graph.generators import bibliographic_graph, erdos_renyi_graph, social_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.serving import PPVService, QuerySpec
from repro.serving.spec import DEFAULT_TOPK_BUDGET
from repro.storage.ppv_store import load_index, save_index


def _index_mismatch(covered: int, graph) -> bool:
    """Report (on stderr) an index built for a different graph; every
    subcommand that pairs GRAPH with INDEX exits 2 on ``True``."""
    if covered == graph.num_nodes:
        return False
    print(
        f"error: index covers {covered} nodes but the graph has "
        f"{graph.num_nodes}",
        file=sys.stderr,
    )
    return True


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="generate a synthetic graph and write an edge list"
    )
    parser.add_argument(
        "kind", choices=["social", "bibliographic", "erdos-renyi"]
    )
    parser.add_argument("--nodes", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output edge-list path")
    parser.set_defaults(func=_cmd_generate)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "social":
        graph = social_graph(num_nodes=args.nodes, seed=args.seed)
    elif args.kind == "bibliographic":
        # Nodes split ~1:2 authors:papers with venues at ~1%.
        authors = max(2, args.nodes // 3)
        papers = max(2, 2 * args.nodes // 3)
        venues = max(2, args.nodes // 100)
        graph = bibliographic_graph(
            num_authors=authors, num_papers=papers, num_venues=venues,
            seed=args.seed,
        ).graph
    else:
        graph = erdos_renyi_graph(args.nodes, 4.0 / args.nodes, seed=args.seed)
    write_edge_list(graph, args.out)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.out}")
    return 0


def _add_info(subparsers) -> None:
    parser = subparsers.add_parser("info", help="print graph statistics")
    parser.add_argument("graph", help="edge-list path")
    parser.add_argument("--undirected", action="store_true")
    parser.set_defaults(func=_cmd_info)


def _cmd_info(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, undirected=args.undirected)
    for name, value in graph_stats(graph).as_dict().items():
        print(f"{name:>28}: {value}")
    return 0


def _add_index(subparsers) -> None:
    parser = subparsers.add_parser(
        "index", help="select hubs and precompute the PPV index"
    )
    parser.add_argument("graph", help="edge-list path")
    parser.add_argument("--hubs", type=int, required=True)
    parser.add_argument(
        "--policy",
        choices=[p.value for p in HubPolicy],
        default=HubPolicy.EXPECTED_UTILITY.value,
    )
    parser.add_argument("--alpha", type=float, default=0.15)
    parser.add_argument("--epsilon", type=float, default=1e-8)
    parser.add_argument("--clip", type=float, default=1e-4)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel workers for the offline build",
    )
    parser.add_argument("--undirected", action="store_true")
    parser.add_argument("--out", required=True, help="output .fppv path")
    parser.set_defaults(func=_cmd_index)


def _cmd_index(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, undirected=args.undirected)
    hubs = select_hubs(
        graph, args.hubs, policy=HubPolicy(args.policy), alpha=args.alpha
    )
    index = build_index(
        graph, hubs, alpha=args.alpha, epsilon=args.epsilon, clip=args.clip,
        workers=args.workers,
    )
    written = save_index(index, args.out)
    print(
        f"indexed {index.num_hubs} hubs "
        f"({index.stats.stored_entries} entries, {written / 1e6:.2f} MB on disk) "
        f"in {index.stats.build_seconds:.2f}s -> {args.out}"
    )
    return 0


def _add_query(subparsers) -> None:
    parser = subparsers.add_parser(
        "query", help="run an incremental PPV query against an index"
    )
    parser.add_argument("graph", help="edge-list path")
    parser.add_argument("index", help=".fppv index path")
    parser.add_argument("node", type=int, nargs="+")
    parser.add_argument(
        "--batch", action="store_true",
        help="legacy no-op: the serving facade coalesces all given nodes "
        "into engine batches automatically (with --time-limit, queries "
        "still run one at a time so each keeps its own time budget)",
    )
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="serve certified top-K: iterate until the top-K set is "
        "provably exact (--eta becomes the certificate budget, default "
        f"{DEFAULT_TOPK_BUDGET}); incompatible with --target-error and "
        "--time-limit",
    )
    parser.add_argument(
        "--eta", type=int, default=None,
        help="iteration budget (default 2; with --top-k, the certificate "
        f"budget, default {DEFAULT_TOPK_BUDGET})",
    )
    parser.add_argument(
        "--target-error", type=float, default=None,
        help="stop early once the L1 error is below this",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None,
        help="stop after this many seconds",
    )
    parser.add_argument("--delta", type=float, default=0.005)
    parser.add_argument("--undirected", action="store_true")
    parser.add_argument(
        "--family", default=None,
        choices=("ppv", "top_k", "hitting", "reachability"),
        help="query family (default: top_k with --top-k, else ppv); "
        "hitting needs --target, reachability takes --max-length/--alpha",
    )
    parser.add_argument(
        "--target", type=int, default=None,
        help="hitting family: the target node whose discounted hitting "
        "probability is estimated",
    )
    parser.add_argument(
        "--beta", type=float, default=None,
        help="hitting family: per-step discount (default 0.85)",
    )
    parser.add_argument(
        "--max-levels", type=int, default=None,
        help="hitting family: hub-length levels to splice (default 16)",
    )
    parser.add_argument(
        "--max-length", type=int, default=None,
        help="reachability family: tour length cutoff (default 6, max 12)",
    )
    parser.add_argument(
        "--alpha", type=float, default=None,
        help="reachability family: teleport probability (default 0.15)",
    )
    parser.set_defaults(func=_cmd_query)


def _cmd_query(args: argparse.Namespace) -> int:
    if args.top_k is not None and (
        args.target_error is not None or args.time_limit is not None
    ):
        print(
            "error: --top-k runs until its certificate fires and cannot "
            "be combined with --target-error / --time-limit",
            file=sys.stderr,
        )
        return 2
    if args.family == "top_k" and args.top_k is None:
        print("error: --family top_k needs --top-k K", file=sys.stderr)
        return 2
    if args.family == "ppv" and args.top_k is not None:
        print(
            "error: --family ppv does not take --top-k (use --family "
            "top_k)",
            file=sys.stderr,
        )
        return 2
    if args.family == "hitting" and args.target is None:
        print(
            "error: --family hitting needs --target NODE", file=sys.stderr
        )
        return 2
    graph = read_edge_list(args.graph, undirected=args.undirected)
    index = load_index(args.index)
    if _index_mismatch(index.hub_mask.size, graph):
        return 2
    service = PPVService.open(index, graph=graph, delta=args.delta)

    if args.family == "hitting":
        params: dict = {"target": args.target}
        if args.beta is not None:
            params["beta"] = args.beta
        if args.max_levels is not None:
            params["max_levels"] = args.max_levels
        with service:
            results = service.query_many(
                [
                    QuerySpec(node, family="hitting", params=params)
                    for node in args.node
                ]
            )
        for query, result in zip(args.node, results):
            upper = result.value + result.remaining_mass
            print(
                f"query {query} -> target {args.target}: discounted "
                f"hitting probability in [{result.value:.6f}, "
                f"{upper:.6f}] after {result.iterations} levels"
            )
        return 0

    if args.family == "reachability":
        params = {}
        if args.max_length is not None:
            params["max_length"] = args.max_length
        if args.alpha is not None:
            params["alpha"] = args.alpha
        with service:
            results = service.query_many(
                [
                    QuerySpec(node, family="reachability", params=params)
                    for node in args.node
                ]
            )
        for query, result in zip(args.node, results):
            print(
                f"query {query}: tour-enumerated PPV up to length "
                f"{result.max_length} (truncation bound "
                f"{result.truncation_bound:.2e})"
            )
            for rank, (node, score) in enumerate(
                result.top_k(args.top), start=1
            ):
                print(f"{rank:4d}. node {node:8d}  score {score:.6f}")
        return 0

    if args.top_k is not None:
        budget = args.eta if args.eta is not None else DEFAULT_TOPK_BUDGET
        with service:
            results = service.query_many(
                [
                    QuerySpec(node, top_k=args.top_k, top_k_budget=budget)
                    for node in args.node
                ]
            )
        for query, result in zip(args.node, results):
            status = "certified" if result.certified else "UNCERTIFIED"
            print(
                f"query {query}: top-{args.top_k} {status} after "
                f"{result.iterations} iterations, "
                f"L1 error {result.l1_error:.4f}"
            )
            for rank, node in enumerate(result.nodes, start=1):
                print(
                    f"{rank:4d}. node {int(node):8d}  "
                    f"score {result.scores[node]:.6f}"
                )
        if not any(result.certified for result in results) and index.clip > 0:
            print(
                f"hint: no certificate fired — the index clips stored "
                f"entries at {index.clip:g}, which floors the reachable L1 "
                "error; rebuild with `index --clip 0` for tight certificates",
                file=sys.stderr,
            )
        return 0

    eta = args.eta if args.eta is not None else 2
    conditions = [StopAfterIterations(eta)]
    if args.target_error is not None:
        conditions.append(StopAtL1Error(args.target_error))
    if args.time_limit is not None:
        conditions.append(StopAfterTime(args.time_limit))
    stop = any_of(*conditions)
    with service:
        results = service.query_many(
            [QuerySpec(node, stop=stop) for node in args.node]
        )
    for result in results:
        print(
            f"query {result.query}: {result.iterations} iterations, "
            f"L1 error {result.l1_error:.4f}, {result.seconds * 1000:.1f} ms"
        )
        for rank, node in enumerate(result.top_k(args.top), start=1):
            print(
                f"{rank:4d}. node {int(node):8d}  score {result.scores[node]:.6f}"
            )
    return 0


def _add_disk_query(subparsers) -> None:
    parser = subparsers.add_parser(
        "disk-query",
        help="run queries against a disk-resident deployment (Sect. 5.3)",
    )
    parser.add_argument("graph", help="edge-list path")
    parser.add_argument("index", help=".fppv index path")
    parser.add_argument("node", type=int, nargs="+")
    parser.add_argument(
        "--batch", action="store_true",
        help="legacy no-op: the serving facade coalesces all given nodes "
        "into one cluster-grouped batch, amortising cluster faults and "
        "hub reads",
    )
    parser.add_argument(
        "--clusters", type=int, default=8,
        help="number of PPR clusters the graph is segmented into",
    )
    parser.add_argument(
        "--memory-budget", type=int, default=1,
        help="clusters resident in memory at once (the paper keeps 1)",
    )
    parser.add_argument(
        "--fault-budget", type=int, default=None,
        help="per-query cluster-fault budget (default: number of clusters)",
    )
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument("--eta", type=int, default=2, help="iteration budget")
    parser.add_argument("--delta", type=float, default=0.005)
    parser.add_argument("--seed", type=int, default=0, help="clustering seed")
    parser.add_argument(
        "--workdir", default=None,
        help="directory for the cluster files (default: a temp dir)",
    )
    parser.add_argument("--undirected", action="store_true")
    parser.set_defaults(func=_cmd_disk_query)


def _cmd_disk_query(args: argparse.Namespace) -> int:
    from repro.storage import DiskGraphStore, DiskPPVStore, cluster_graph

    graph = read_edge_list(args.graph, undirected=args.undirected)
    # Validate the graph/index pair before paying for clustering and the
    # cluster files; only then segment the graph.
    cleanup_workdir = args.workdir is None
    workdir = (
        args.workdir
        if args.workdir is not None
        else tempfile.mkdtemp(prefix="fastppv_disk_")
    )
    try:
        with DiskPPVStore(args.index) as ppv_store:
            if _index_mismatch(ppv_store.num_nodes, graph):
                return 2
            assignment = cluster_graph(graph, args.clusters, seed=args.seed)
            graph_store = DiskGraphStore(
                graph, assignment, workdir, memory_budget=args.memory_budget
            )
            stop = StopAfterIterations(args.eta)
            faults_before = graph_store.faults
            reads_before = ppv_store.reads
            with PPVService.open(
                ppv_store,
                backend="disk",
                graph_store=graph_store,
                delta=args.delta,
                fault_budget=args.fault_budget,
            ) as service:
                results = service.query_many(
                    [QuerySpec(node, stop=stop) for node in args.node]
                )
            physical_faults = graph_store.faults - faults_before
            physical_reads = ppv_store.reads - reads_before
    finally:
        if cleanup_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    for result in results:
        inner = result.result
        truncated = ", truncated" if result.truncated else ""
        print(
            f"query {inner.query}: {inner.iterations} iterations, "
            f"L1 error {inner.l1_error:.4f}, "
            f"{result.cluster_faults} faults, {result.hub_reads} hub reads"
            f"{truncated}"
        )
        for rank, node in enumerate(inner.top_k(args.top), start=1):
            print(
                f"{rank:4d}. node {int(node):8d}  score {inner.scores[node]:.6f}"
            )
    print(
        f"physical I/O for {len(results)} queries: {physical_faults} cluster "
        f"faults, {physical_reads} hub reads "
        f"({assignment.num_clusters} clusters, memory budget "
        f"{args.memory_budget})"
    )
    return 0


def _add_shard_index(subparsers) -> None:
    parser = subparsers.add_parser(
        "shard-index",
        help="partition a built index into per-shard stores for "
        "scale-out serving",
        description="Split a graph + .fppv index into N shard "
        "directories (whole PPR clusters per shard, LPT-balanced) "
        "under a partition root with a shard_map.json manifest.  Serve "
        "the result with `repro serve --shard-map ROOT --tcp ...`.",
    )
    parser.add_argument("graph", help="edge-list path")
    parser.add_argument("index", help=".fppv index path")
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument(
        "--out", required=True, help="partition root directory"
    )
    parser.add_argument(
        "--clusters", type=int, default=None,
        help="PPR clusters to segment into (default: max(8, 2*shards))",
    )
    parser.add_argument("--seed", type=int, default=0, help="clustering seed")
    parser.add_argument("--undirected", action="store_true")
    parser.set_defaults(func=_cmd_shard_index)


def _cmd_shard_index(args: argparse.Namespace) -> int:
    from repro.sharding import partition_index

    if args.shards < 1:
        print("error: --shards must be at least 1", file=sys.stderr)
        return 2
    graph = read_edge_list(args.graph, undirected=args.undirected)
    index = load_index(args.index)
    if _index_mismatch(index.hub_mask.size, graph):
        return 2
    try:
        manifest = partition_index(
            graph, index, args.shards, args.out,
            num_clusters=args.clusters, seed=args.seed,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for entry in manifest["shards"]:
        total_mb = (entry["index_bytes"] + entry["graph_bytes"]) / 1e6
        print(
            f"shard {entry['shard']}: {entry['nodes']} nodes, "
            f"{len(entry['hubs'])} hubs, {len(entry['clusters'])} "
            f"clusters, {total_mb:.2f} MB -> {args.out}/{entry['dir']}"
        )
    print(
        f"partitioned {manifest['num_hubs']} hubs / "
        f"{manifest['num_clusters']} clusters across "
        f"{manifest['num_shards']} shards -> {args.out}/shard_map.json"
    )
    return 0


def _parse_max_delay(value: str):
    """``--max-delay`` accepts seconds or the adaptive ``auto`` mode."""
    if value == "auto":
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds or 'auto', got {value!r}"
        ) from None


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="serve JSONL requests over stdio or TCP via the PPVService "
        "facade",
        description="Serve JSONL requests (one object per line; see "
        "repro.server.protocol).  A request names a node "
        '({"id": 1, "node": 7}) or a weighted node set ({"nodes": [3, 9], '
        '"weights": [2, 1]}) plus optional "eta", "target_error", '
        '"time_limit", "top_k", "budget" and "top".  The default '
        "transport is the single-process stdio loop (responses in "
        "request order, emitted at every blank line and at end of "
        "input); --tcp HOST:PORT starts the asyncio network server "
        "instead, and --workers N pre-forks N serving processes on the "
        "same port.",
    )
    parser.add_argument(
        "graph", nargs="?", default=None,
        help="edge-list path (not needed with --shard-map)",
    )
    parser.add_argument(
        "index", nargs="?", default=None,
        help=".fppv index path (not needed with --shard-map)",
    )
    transport = parser.add_mutually_exclusive_group()
    transport.add_argument(
        "--stdio", action="store_true",
        help="serve the JSONL loop on stdin/stdout (the default)",
    )
    transport.add_argument(
        "--tcp", metavar="HOST:PORT", default=None,
        help="serve over TCP on this address (port 0 picks a free port)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="TCP only: pre-fork this many serving processes sharing "
        "the listen socket (escapes the GIL; needs fork support).  With "
        "--shards/--shard-map: worker processes per shard pool",
    )
    sharded = parser.add_mutually_exclusive_group()
    sharded.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="TCP only: partition the index into N shards on the fly "
        "and serve them through a shard router (exact results; see "
        "repro.sharding)",
    )
    sharded.add_argument(
        "--shard-map", default=None, metavar="ROOT",
        help="TCP only: serve an existing partition root built by "
        "`repro shard-index` through a shard router",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=256,
        help="TCP only: server-wide bound on admitted-but-unanswered "
        "requests (backpressure)",
    )
    parser.add_argument(
        "--requests", default="-",
        help="stdio only: JSONL request file, '-' for stdin (the default)",
    )
    parser.add_argument(
        "--backend", choices=["memory", "disk"], default="memory",
        help="serving backend (disk replays the Sect. 5.3 deployment)",
    )
    parser.add_argument("--top", type=int, default=10,
                        help='ranked scores per response (a request\'s own '
                        '"top" field overrides this)')
    parser.add_argument("--delta", type=float, default=0.005)
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="requests coalesced into one scheduler drain",
    )
    parser.add_argument(
        "--max-delay", type=_parse_max_delay, default=0.002,
        help="seconds a drain holds its batch open for more arrivals, "
        "or 'auto' to tune the window from the observed arrival rate",
    )
    parser.add_argument(
        "--cache-size", type=int, default=None,
        help="capacity of the popularity result cache "
        "(0 disables caching; default: the service default)",
    )
    parser.add_argument(
        "--clusters", type=int, default=8,
        help="disk backend: number of PPR clusters",
    )
    parser.add_argument(
        "--memory-budget", type=int, default=1,
        help="disk backend: clusters resident in memory at once",
    )
    parser.add_argument(
        "--fault-budget", type=int, default=None,
        help="disk backend: per-query cluster-fault budget",
    )
    parser.add_argument("--seed", type=int, default=0, help="clustering seed")
    parser.add_argument(
        "--workdir", default=None,
        help="disk backend: directory for cluster files (default: temp)",
    )
    parser.add_argument(
        "--slow-query", type=float, default=None, metavar="SECONDS",
        help="record queries slower than this to the slow-query log "
        "(served back through the stats verb, span trees included)",
    )
    parser.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="append every finished trace span to this file as JSONL",
    )
    parser.add_argument("--undirected", action="store_true")
    parser.set_defaults(func=_cmd_serve)


def _make_obs(args: argparse.Namespace):
    """The serve subcommand's Observability bundle.  Called inside
    service factories so pre-forked workers each build their own."""
    from repro.obs import Observability

    return Observability(
        slow_query_seconds=args.slow_query,
        trace_log_path=args.trace_log,
    )


def _parse_tcp_address(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--tcp expects HOST:PORT (e.g. 127.0.0.1:7474), got {value!r}"
        )
    return host, int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from contextlib import ExitStack

    from repro.server import PPVServer, ServerConfig, run_pool, serve_stdio
    from repro.storage import DiskGraphStore, DiskPPVStore, cluster_graph

    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.max_inflight < 1:
        print("error: --max-inflight must be at least 1", file=sys.stderr)
        return 2
    tcp_address = None
    if args.tcp is not None:
        try:
            tcp_address = _parse_tcp_address(args.tcp)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.workers != 1:
        print("error: --workers needs --tcp", file=sys.stderr)
        return 2

    if args.shards is not None or args.shard_map is not None:
        return _serve_sharded(args, tcp_address)
    if args.graph is None or args.index is None:
        print(
            "error: serve needs GRAPH and INDEX (or --shard-map ROOT)",
            file=sys.stderr,
        )
        return 2

    graph = read_edge_list(args.graph, undirected=args.undirected)
    service_kwargs: dict = {
        "max_batch": args.max_batch,
        "max_delay": args.max_delay,
    }
    if args.cache_size is not None:
        service_kwargs["cache_size"] = args.cache_size
    with ExitStack() as stack:
        if args.backend == "disk":
            # Validate the pair, then build the cluster files once; each
            # serving process opens its *own* DiskPPVStore (one shared
            # file handle across forked workers would race on seeks).
            with DiskPPVStore(args.index) as probe:
                num_covered = probe.num_nodes
            if _index_mismatch(num_covered, graph):
                return 2
            workdir = args.workdir
            if workdir is None:
                workdir = tempfile.mkdtemp(prefix="fastppv_serve_")
                stack.callback(shutil.rmtree, workdir, ignore_errors=True)
            assignment = cluster_graph(graph, args.clusters, seed=args.seed)
            graph_store = DiskGraphStore(
                graph, assignment, workdir, memory_budget=args.memory_budget
            )
            index_path = args.index

            def make_service() -> PPVService:
                return PPVService.open(
                    index_path,
                    backend="disk",
                    graph_store=graph_store,
                    delta=args.delta,
                    fault_budget=args.fault_budget,
                    obs=_make_obs(args),
                    **service_kwargs,
                )
        else:
            index = load_index(args.index)
            if _index_mismatch(index.hub_mask.size, graph):
                return 2

            def make_service() -> PPVService:
                return PPVService.open(
                    index,
                    graph=graph,
                    delta=args.delta,
                    obs=_make_obs(args),
                    **service_kwargs,
                )

        if tcp_address is None:
            service = stack.enter_context(make_service())
            if args.requests == "-":
                source = sys.stdin
            else:
                source = stack.enter_context(
                    open(args.requests, encoding="utf-8")
                )
            serve_stdio(
                service, source, sys.stdout,
                default_top=args.top, stats_sink=sys.stderr,
            )
            return 0

        host, port = tcp_address
        config = ServerConfig(
            host=host,
            port=port,
            max_inflight=args.max_inflight,
            default_top=args.top,
        )

        def announce(address) -> None:
            print(
                f"serving {args.backend} backend on "
                f"{address[0]}:{address[1]} "
                f"({args.workers} worker{'s' if args.workers != 1 else ''})",
                file=sys.stderr,
                flush=True,
            )

        if args.workers == 1:
            service = stack.enter_context(make_service())
            server = PPVServer(service, config)
            asyncio.run(server.serve(on_ready=announce))
            return 0
        return run_pool(
            make_service, args.workers, config, announce=announce
        )


def _serve_sharded(args: argparse.Namespace, tcp_address) -> int:
    """``serve --shards N`` / ``serve --shard-map ROOT``: shard pools
    plus a router front-end on the TCP address."""
    from contextlib import ExitStack

    from repro.server import ServerConfig
    from repro.sharding import ShardRouter, partition_index

    if tcp_address is None:
        print(
            "error: sharded serving needs --tcp (the router fans out "
            "over the network)",
            file=sys.stderr,
        )
        return 2
    with ExitStack() as stack:
        if args.shard_map is not None:
            root = args.shard_map
        else:
            if args.shards < 1:
                print("error: --shards must be at least 1", file=sys.stderr)
                return 2
            if args.graph is None or args.index is None:
                print(
                    "error: --shards partitions on the fly and needs "
                    "GRAPH and INDEX (serve a prebuilt partition with "
                    "--shard-map)",
                    file=sys.stderr,
                )
                return 2
            graph = read_edge_list(args.graph, undirected=args.undirected)
            index = load_index(args.index)
            if _index_mismatch(index.hub_mask.size, graph):
                return 2
            root = args.workdir
            if root is None:
                root = tempfile.mkdtemp(prefix="fastppv_shards_")
                stack.callback(shutil.rmtree, root, ignore_errors=True)
            partition_index(
                graph, index, args.shards, root,
                num_clusters=args.clusters if args.clusters != 8 else None,
                seed=args.seed,
            )
        host, port = tcp_address
        config = ServerConfig(
            host=host,
            port=port,
            max_inflight=args.max_inflight,
            default_top=args.top,
        )
        router_kwargs: dict = {
            "max_batch": args.max_batch,
            "max_delay": args.max_delay,
            "delta": args.delta,
            "fault_budget": args.fault_budget,
            "obs": _make_obs(args),
        }
        if args.cache_size is not None:
            router_kwargs["cache_size"] = args.cache_size
        try:
            router = ShardRouter(
                root,
                workers_per_shard=args.workers,
                config=config,
                **router_kwargs,
            )
        except (FileNotFoundError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

        def announce(address) -> None:
            print(
                f"shard router on {address[0]}:{address[1]} "
                f"({router.manifest['num_shards']} shards, "
                f"{args.workers} worker"
                f"{'s' if args.workers != 1 else ''} each)",
                file=sys.stderr,
                flush=True,
            )

        return router.serve_forever(announce)


def _add_stats(subparsers) -> None:
    parser = subparsers.add_parser(
        "stats",
        help="fetch a running server's stats (counters, metrics, slow "
        "queries) over TCP",
    )
    parser.add_argument("address", metavar="HOST:PORT")
    parser.add_argument(
        "--watch", nargs="?", const=2.0, type=float, default=None,
        metavar="SECONDS",
        help="refresh every SECONDS (default 2) until interrupted",
    )
    parser.add_argument(
        "--prometheus", action="store_true",
        help="render the metrics registry snapshot in Prometheus text "
        "exposition format",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="dump the raw stats payload as JSON",
    )
    parser.set_defaults(func=_cmd_stats)


def _print_metric_samples(metrics: dict) -> None:
    for name in sorted(metrics):
        entry = metrics[name]
        for sample in entry.get("samples", ()):
            labels = ""
            values = sample.get("labels") or ()
            if values:
                labels = "{%s}" % ",".join(
                    f"{key}={value!r}"
                    for key, value in zip(entry.get("labelnames", ()), values)
                )
            if "histogram" in sample:
                hist = sample["histogram"]
                print(
                    f"  {name}{labels}  count={hist.get('count', 0)} "
                    f"total={hist.get('total_seconds', 0.0):.4f}s"
                )
            else:
                print(f"  {name}{labels}  {sample.get('value')}")


def _print_stats(payload: dict) -> None:
    print(
        f"worker {payload.get('worker')}  pid {payload.get('pid')}  "
        f"version {payload.get('version')}  "
        f"uptime {payload.get('uptime_seconds', 0.0):.1f}s"
    )
    server = payload.get("server") or {}
    flat = {
        key: value
        for key, value in sorted(server.items())
        if not isinstance(value, (dict, list))
    }
    if flat:
        print("server: " + "  ".join(f"{k}={v}" for k, v in flat.items()))
    metrics = payload.get("metrics")
    if metrics:
        print("metrics:")
        _print_metric_samples(metrics)
    slow = payload.get("slow_queries")
    if slow:
        print(f"slow queries ({len(slow)}):")
        for entry in slow:
            print(
                f"  {entry.get('seconds', 0.0):.3f}s  "
                f"family={entry.get('family')}  nodes={entry.get('nodes')}  "
                f"trace={entry.get('trace', '-')}"
            )


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.server.client import PPVClient

    try:
        host, port = _parse_tcp_address(args.address)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        with PPVClient(host, port) as client:
            while True:
                payload = client.stats()
                try:
                    if args.as_json:
                        print(json.dumps(payload, indent=2, sort_keys=True))
                    elif args.prometheus:
                        from repro.obs import render_prometheus

                        print(
                            render_prometheus(payload["metrics"]), end=""
                        )
                    else:
                        _print_stats(payload)
                    if args.watch is None:
                        return 0
                    sys.stdout.flush()
                    time.sleep(args.watch)
                    print("---")
                except BrokenPipeError:
                    return 0  # stdout consumer went away (e.g. | head)
    except KeyboardInterrupt:
        return 0
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {host}:{port}: {error}", file=sys.stderr)
        return 1


def _add_trace(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="fetch recent trace spans from a running server and render "
        "the span tree",
    )
    parser.add_argument("address", metavar="HOST:PORT")
    parser.add_argument(
        "trace_id", nargs="?", default=None,
        help="show one trace (default: every span in the ring)",
    )
    parser.add_argument(
        "--limit", type=int, default=None,
        help="most recent spans to fetch per process",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="dump the raw span records as JSON",
    )
    parser.set_defaults(func=_cmd_trace)


def _print_span_tree(spans: list) -> None:
    from repro.obs.trace import span_tree

    roots, children = span_tree(spans)

    def walk(record: dict, depth: int) -> None:
        duration = record.get("duration")
        took = f"{duration * 1000:.2f} ms" if duration is not None else "?"
        attrs = record.get("attrs") or {}
        extra = "".join(f"  {k}={v}" for k, v in sorted(attrs.items()))
        print(f"{'  ' * depth}{record.get('name')}  {took}{extra}")
        for event in record.get("events", ()):
            print(f"{'  ' * (depth + 1)}! {event}")
        for child in children.get(record.get("span"), ()):
            walk(child, depth + 1)

    last_trace = None
    for root in roots:
        if root.get("trace") != last_trace:
            last_trace = root.get("trace")
            print(f"trace {last_trace}:")
        walk(root, 1)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.server.client import PPVClient

    try:
        host, port = _parse_tcp_address(args.address)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        with PPVClient(host, port) as client:
            payload = client.trace(args.trace_id, limit=args.limit)
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {host}:{port}: {error}", file=sys.stderr)
        return 1
    spans = payload.get("spans", [])
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not spans:
        print("no spans recorded")
        if "error" in payload:
            print(f"warning: {payload['error']}", file=sys.stderr)
        return 0
    _print_span_tree(spans)
    if "error" in payload:
        print(f"warning: {payload['error']}", file=sys.stderr)
    return 0


def _add_autotune(subparsers) -> None:
    parser = subparsers.add_parser(
        "autotune", help="probe hub counts and recommend one"
    )
    parser.add_argument("graph", help="edge-list path")
    parser.add_argument("--queries", type=int, default=15)
    parser.add_argument("--space-budget-mb", type=float, default=None)
    parser.add_argument("--undirected", action="store_true")
    parser.set_defaults(func=_cmd_autotune)


def _cmd_autotune(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, undirected=args.undirected)
    result = autotune_hub_count(
        graph,
        num_probe_queries=args.queries,
        space_budget_mb=args.space_budget_mb,
    )
    print(f"{'|H|':>8} {'work/query':>12} {'L1 error':>10} {'index MB':>10}")
    for probe in result.probes:
        marker = " <== best" if probe.num_hubs == result.best_num_hubs else ""
        print(
            f"{probe.num_hubs:>8} {probe.mean_work:>12.0f} "
            f"{probe.mean_l1_error:>10.4f} {probe.index_megabytes:>10.2f}"
            f"{marker}"
        )
    print(f"recommended number of hubs: {result.best_num_hubs}")
    return 0


def _add_validate(subparsers) -> None:
    parser = subparsers.add_parser(
        "validate", help="check an index's invariants against its graph"
    )
    parser.add_argument("graph", help="edge-list path")
    parser.add_argument("index", help=".fppv index path")
    parser.add_argument(
        "--sample", type=int, default=8,
        help="hub entries to recompute against the graph",
    )
    parser.add_argument("--undirected", action="store_true")
    parser.set_defaults(func=_cmd_validate)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import (
        validate_index_against_graph,
        validate_index_structure,
    )

    graph = read_edge_list(args.graph, undirected=args.undirected)
    index = load_index(args.index)
    report = validate_index_structure(index).merged(
        validate_index_against_graph(index, graph, sample=args.sample)
    )
    print(f"ran {report.checks} checks")
    if report.ok:
        print("index OK")
        return 0
    for problem in report.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="FastPPV: incremental, accuracy-aware Personalized PageRank",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_info(subparsers)
    _add_index(subparsers)
    _add_query(subparsers)
    _add_disk_query(subparsers)
    _add_shard_index(subparsers)
    _add_serve(subparsers)
    _add_stats(subparsers)
    _add_trace(subparsers)
    _add_autotune(subparsers)
    _add_validate(subparsers)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
