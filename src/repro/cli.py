"""Command-line interface.

The subcommands cover the offline/online lifecycle end to end::

    repro generate social --nodes 5000 --out graph.txt
    repro info graph.txt
    repro index graph.txt --hubs 300 --workers 4 --out graph.fppv
    repro query graph.txt graph.fppv 42 --top 10 --eta 2
    repro query graph.txt graph.fppv 42 7 19
    repro query graph.txt graph.fppv 42 7 19 --top-k 10
    repro query graph.txt graph.fppv 42 7 19 --backend disk --clusters 12
    repro serve graph.txt graph.fppv --requests requests.jsonl
    repro serve graph.txt graph.fppv --tcp 127.0.0.1:7474
    repro shard-index graph.txt graph.fppv --shards 3 --out parts/
    repro serve --shard-map parts/ --tcp 127.0.0.1:7474
    repro serve graph.txt graph.fppv --shards 3 --tcp 127.0.0.1:7474
    repro stats 127.0.0.1:7474 --watch
    repro stats 127.0.0.1:7474 --prometheus
    repro trace 127.0.0.1:7474 0123456789abcdef
    repro autotune graph.txt

``query`` and ``serve`` are the online subcommands and share one
bootstrap (:func:`_deployment`): GRAPH, INDEX, ``--backend`` and the
disk options become one open :class:`~repro.serving.PPVService`.
``--backend disk`` replays the Sect. 5.3 reduced-memory deployment
(cluster-segmented graph, on-disk PPV index) and every result then
reports the cluster faults and hub reads it paid.  ``query`` submits its
nodes as one burst, so multi-node invocations coalesce into engine
batches; ``--top-k K`` switches to certified top-k serving: each query
runs until its top set is provably exact.  ``serve`` keeps a service
open behind the :mod:`repro.server` asyncio front-end — as one
connection on stdin/stdout by default (each input line is a request,
replies come in completion order, correlated by ``id``), or over the
network with ``--tcp HOST:PORT`` (``--shards`` / ``--shard-map`` front
a shard fleet); both speak every verb of :mod:`repro.server.protocol`.
A server is one process: the compiled push already spreads a batch
over every CPU (:mod:`repro.native`).  A missing file, an unusable
value or compiled kernels that cannot be built (:mod:`repro.native`)
end any subcommand with ``error: ...`` on stderr and exit status 2
(:func:`main`).

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
from contextlib import contextmanager
from typing import Sequence

from repro import native
from repro.core.autotune import autotune_hub_count
from repro.core.hubs import HubPolicy, select_hubs
from repro.core.index import build_index
from repro.graph.analysis import graph_stats
from repro.graph.generators import bibliographic_graph, erdos_renyi_graph, social_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.serving import PPVService, QuerySpec
from repro.serving.spec import DEFAULT_TOPK_BUDGET
from repro.storage.ppv_store import DiskPPVStore, load_index, save_index
from repro.storage.residency import DEFAULT_MEMORY_BYTES

DEFAULT_CLUSTERS = 8
"""``--backend disk``'s cluster count when ``--clusters`` is not given."""


def _read_graph(args: argparse.Namespace):
    """GRAPH, once INDEX is known to cover it.

    The one place a subcommand that pairs the two reads the edge list
    and checks the pair — against the ``.fppv`` header alone, so a
    mismatch is a ``ValueError`` before the index is loaded or any
    clustering or partitioning is paid for.
    """
    with DiskPPVStore(args.index) as header:
        covered = header.num_nodes
    graph = read_edge_list(args.graph, undirected=args.undirected)
    if covered != graph.num_nodes:
        raise ValueError(
            f"index covers {covered} nodes but the graph has "
            f"{graph.num_nodes}"
        )
    return graph


@contextmanager
def _deployment(args: argparse.Namespace, **service_kwargs):
    """GRAPH, INDEX, ``--backend`` and the disk options as one open
    ``PPVService`` (``service_kwargs`` go to ``PPVService.open``),
    closed when the ``with`` block ends.

    ``query`` and ``serve`` both start here.  For the disk backend this
    clusters the graph and writes the segment directory once; a
    directory the user did not name with ``--workdir`` is a temp dir
    that lives exactly as long as the ``with`` block.
    """
    graph = _read_graph(args)
    if args.backend == "memory":
        index = load_index(args.index)
        with PPVService.open(
            index, graph=graph, delta=args.delta, **service_kwargs
        ) as service:
            yield service
        return
    from repro.storage import DiskGraphStore, StoredBytes, cluster_graph

    num_clusters = DEFAULT_CLUSTERS if args.clusters is None else args.clusters
    assignment = cluster_graph(graph, num_clusters, seed=args.seed)
    workdir = args.workdir
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="fastppv_disk_")
    try:
        graph_store = DiskGraphStore(
            graph, assignment, workdir, pool=StoredBytes(args.memory_bytes)
        )
        # From here on the stores are the deployment: this frame lives
        # as long as the service, and must not pin the graph in memory.
        del graph, assignment
        # Opened from the path: the service owns (and closes) its
        # DiskPPVStore, which shares the graph store's pool.
        with PPVService.open(
            args.index,
            backend="disk",
            graph_store=graph_store,
            delta=args.delta,
            fault_budget=args.fault_budget,
            **service_kwargs,
        ) as service:
            yield service
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    """``--backend`` and the disk deployment's options, identical on
    ``query`` and ``serve`` (what :func:`_deployment` reads)."""
    parser.add_argument(
        "--backend", choices=["memory", "disk"], default="memory",
        help="serving backend (disk replays the Sect. 5.3 deployment and "
        "reports every result's cluster faults and hub reads)",
    )
    parser.add_argument(
        "--clusters", type=int, default=None,
        help="disk backend: number of PPR clusters the graph is segmented "
        f"into (default {DEFAULT_CLUSTERS}; serve --shards N: "
        "max(8, 2N))",
    )
    parser.add_argument(
        "--memory-budget", dest="memory_bytes", type=int,
        default=DEFAULT_MEMORY_BYTES,
        help="disk and sharded backends: bytes of stored cluster segments "
        "and hub records held in memory, one pool for both (default "
        f"{DEFAULT_MEMORY_BYTES}; the paper holds one cluster and no "
        "record)",
    )
    parser.add_argument(
        "--fault-budget", type=int, default=None,
        help="disk backend: per-query cluster-fault budget (default: "
        "number of clusters)",
    )
    parser.add_argument("--seed", type=int, default=0, help="clustering seed")
    parser.add_argument(
        "--workdir", default=None,
        help="disk backend: directory for the cluster files (serve "
        "--shards: the partition root), kept afterwards (default: a temp "
        "dir, removed)",
    )


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
    _add_backend_options(parser)
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
        help="hitting family: per-step discount (default 0.85; max 256 push rounds)",
    )
    parser.add_argument(
        "--max-levels", type=int, default=None,
        help="hitting family: hub-length levels to splice (default 16, max 64)",
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


_REQUEST_FLAGS = (
    "family", "top_k", "eta", "target_error", "time_limit",
    "target", "beta", "max_levels", "max_length", "alpha",
)
"""``query`` flags that are wire request fields of the same name."""


def _query_specs(args: argparse.Namespace) -> list[QuerySpec]:
    """One spec per NODE, decoded from ``query``'s flags exactly as the
    wire decodes a request's fields — one set of range and combination
    checks for both — before any file is read."""
    from repro.server import protocol

    if args.top_k is not None and (
        args.target_error is not None or args.time_limit is not None
    ):
        raise ValueError(
            "--top-k runs until its certificate fires and cannot be "
            "combined with --target-error / --time-limit"
        )
    request = {
        flag: getattr(args, flag)
        for flag in _REQUEST_FLAGS
        if getattr(args, flag) is not None
    }
    if args.top_k is not None and args.eta is not None:
        request["budget"] = request.pop("eta")  # the certificate budget
    protocol.top_from_request({}, args.top)
    return [
        protocol.spec_from_request({**request, "node": node})
        for node in args.node
    ]


def _print_result(spec: QuerySpec, result, top: int) -> None:
    """One served result, whatever its family and backend: a header
    line — with the I/O columns when the result carries them — and the
    ranked scores of the score-ranked families."""
    query = spec.nodes[0]
    if spec.family == "hitting":
        print(
            f"query {query} -> target {spec.param('target')}: discounted "
            f"hitting probability in [{result.value:.6f}, "
            f"{result.value + result.remaining_mass:.6f}] after "
            f"{result.iterations} levels"
        )
        return
    if spec.family == "reachability":
        print(
            f"query {query}: tour-enumerated PPV up to length "
            f"{result.max_length} (truncation bound "
            f"{result.truncation_bound:.2e})"
        )
        ranked = result.top_k(top)
    else:
        io_columns = ""
        if result.cluster_faults is not None:  # the disk I/O record
            io_columns = (
                f", {result.cluster_faults} faults, "
                f"{result.hub_reads} hub reads"
                + (", truncated" if result.truncated else "")
            )
        if result.certified is not None:  # certified top-k
            status = "certified" if result.certified else "UNCERTIFIED"
            header = (
                f"top-{spec.top_k} {status} after {result.iterations} "
                f"iterations, L1 error {result.l1_error:.4f}"
            )
            nodes = result.top
        else:
            header = (
                f"{result.iterations} iterations, L1 error "
                f"{result.l1_error:.4f}, {result.seconds * 1000:.1f} ms"
            )
            nodes = result.top_k(top)
        print(f"query {query}: {header}{io_columns}")
        ranked = [(int(node), result.scores[node]) for node in nodes]
    for rank, (node, score) in enumerate(ranked, start=1):
        print(f"{rank:4d}. node {node:8d}  score {score:.6f}")


def _cmd_query(args: argparse.Namespace) -> int:
    specs = _query_specs(args)
    with _deployment(args) as service:
        results = service.query_many(specs)
    for spec, result in zip(specs, results):
        _print_result(spec, result, args.top)
    engine = service.engine
    if args.backend == "disk":
        # Both stores were opened for this run, so their counters are
        # its physical I/O (the results carry the deterministic counts).
        store = engine.graph_store
        print(
            f"physical I/O for {len(results)} queries: {store.faults} "
            f"cluster faults, {engine.ppv_store.reads} hub reads "
            f"({store.num_clusters} clusters, pool holds "
            f"{store.pool.held} of {store.pool.capacity} bytes)"
        )
    clip = (engine.ppv_store if args.backend == "disk" else engine.index).clip
    if specs[0].top_k is not None and clip > 0 and not any(
        result.certified for result in results
    ):
        print(
            f"hint: no certificate fired — the index clips stored "
            f"entries at {clip:g}, which floors the reachable L1 "
            "error; rebuild with `index --clip 0` for tight certificates",
            file=sys.stderr,
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
        raise ValueError("--shards must be at least 1")
    graph = _read_graph(args)
    manifest = partition_index(
        graph, load_index(args.index), args.shards, args.out,
        num_clusters=args.clusters, seed=args.seed,
    )
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
        '"time_limit", "top_k", "budget" and "top"; "verb" selects '
        "stream, stats, trace, ping, swap_index or shutdown.  By default "
        "the server answers one connection — stdin (or --requests) in, "
        "stdout out, until end of input; --tcp HOST:PORT listens on the "
        "network instead.  A server is one process.  Same protocol "
        "either way: enveloped replies "
        'in completion order, correlated by "id".',
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
        help="serve one connection on stdin/stdout (the default)",
    )
    transport.add_argument(
        "--tcp", metavar="HOST:PORT", default=None,
        help="serve over TCP on this address (port 0 picks a free port)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="only 1 is accepted: a server is one process, and the "
        "compiled push already uses every CPU",
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
        help="server-wide bound on admitted-but-unanswered requests "
        "(backpressure)",
    )
    parser.add_argument(
        "--requests", default="-",
        help="stdio only: JSONL request file served to its end, '-' for "
        "stdin (the default)",
    )
    _add_backend_options(parser)
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
    """The serve subcommand's Observability bundle."""
    from repro.obs import Observability

    return Observability(
        slow_query_seconds=args.slow_query,
        trace_log_path=args.trace_log,
    )


def _parse_tcp_address(value: str) -> tuple[str, int]:
    host, _sep, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"--tcp expects HOST:PORT (e.g. 127.0.0.1:7474), got {value!r}"
        )
    return host, int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import PPVServer, ServerConfig, protocol

    if args.workers != 1:
        raise ValueError(
            f"--workers {args.workers}: a server is one process (the "
            "compiled push already uses every CPU); drop --workers"
        )
    if args.max_inflight < 1:
        raise ValueError("--max-inflight must be at least 1")
    protocol.top_from_request({}, args.top)  # the default, checked as a request's
    sharded = args.shards is not None or args.shard_map is not None
    if args.tcp is None:
        if sharded:
            raise ValueError(
                "sharded serving needs --tcp (the router fans out over "
                "the network)"
            )
        # One connection owns the whole server, so its share of the
        # admission bound is all of it.
        transport = {"max_inflight_per_conn": args.max_inflight}
    else:
        host, port = _parse_tcp_address(args.tcp)
        transport = {"host": host, "port": port}
    config = ServerConfig(
        max_inflight=args.max_inflight, default_top=args.top, **transport
    )
    service_kwargs: dict = {
        "max_batch": args.max_batch,
        "max_delay": args.max_delay,
    }
    if args.cache_size is not None:
        service_kwargs["cache_size"] = args.cache_size
    if sharded:
        return _serve_sharded(args, config, service_kwargs)
    if args.graph is None or args.index is None:
        raise ValueError("serve needs GRAPH and INDEX (or --shard-map ROOT)")

    with _deployment(args, obs=_make_obs(args), **service_kwargs) as service:
        server = PPVServer(service, config)
        if args.tcp is None:
            # Unbuffered: the thread that copies it may still be parked
            # in a read of stdin when the process exits, and a buffered
            # reader's lock held there aborts interpreter shutdown.
            requests = open(
                sys.stdin.fileno() if args.requests == "-" else args.requests,
                "rb", buffering=0, closefd=args.requests != "-",
            )
            with requests as source:
                asyncio.run(server.serve_connection(source, sys.stdout.buffer))
            stats = service.stats()
            print(
                f"served {stats.submitted} requests in {stats.batches} "
                f"batches (largest {stats.largest_batch}); cache "
                f"{stats.cache_hits} hits / {stats.cache_misses} misses",
                file=sys.stderr,
            )
            return 0

        def announce(address) -> None:
            print(
                f"serving {args.backend} backend on "
                f"{address[0]}:{address[1]}",
                file=sys.stderr,
                flush=True,
            )

        asyncio.run(server.serve(on_ready=announce))
    return 0


def _serve_sharded(args: argparse.Namespace, config, service_kwargs) -> int:
    """``serve --shard-map ROOT`` / ``serve --shards N``: a
    :class:`~repro.sharding.ShardRouter` (one process per shard plus the
    router front-end) on the TCP address."""
    from repro.sharding import ShardRouter

    router_kwargs = dict(
        service_kwargs,
        config=config,
        delta=args.delta,
        fault_budget=args.fault_budget,
        memory_bytes=args.memory_bytes,
        obs=_make_obs(args),
    )
    if args.shard_map is not None:
        router = ShardRouter(args.shard_map, **router_kwargs)
    else:
        if args.shards < 1:
            raise ValueError("--shards must be at least 1")
        if args.graph is None or args.index is None:
            raise ValueError(
                "--shards partitions on the fly and needs GRAPH and "
                "INDEX (serve a prebuilt partition with --shard-map)"
            )
        graph = _read_graph(args)
        router = ShardRouter.partitioning(
            graph, load_index(args.index), args.shards,
            root=args.workdir, num_clusters=args.clusters, seed=args.seed,
            **router_kwargs,
        )

    def announce(address) -> None:
        print(
            f"shard router on {address[0]}:{address[1]} "
            f"({router.manifest['num_shards']} shards)",
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


def _ask_server(address: str, ask):
    """``stats`` / ``trace``: what ``ask(client)`` returns over a
    connection to HOST:PORT.  A server that cannot be reached, or is
    lost mid-call, is ``error: cannot reach ...`` on stderr and
    ``None`` — exit status 1 in both callers."""
    from repro.server.client import PPVClient

    host, port = _parse_tcp_address(address)
    try:
        with PPVClient(host, port) as client:
            return ask(client)
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {host}:{port}: {error}", file=sys.stderr)
        return None


def _cmd_stats(args: argparse.Namespace) -> int:
    def watch(client) -> int:
        while True:
            payload = client.stats()
            try:
                if args.as_json:
                    print(json.dumps(payload, indent=2, sort_keys=True))
                elif args.prometheus:
                    from repro.obs import render_prometheus

                    print(render_prometheus(payload["metrics"]), end="")
                else:
                    _print_stats(payload)
                if args.watch is None:
                    return 0
                sys.stdout.flush()
                time.sleep(args.watch)
                print("---")
            except BrokenPipeError:
                return 0  # stdout consumer went away (e.g. | head)

    try:
        return 1 if _ask_server(args.address, watch) is None else 0
    except KeyboardInterrupt:
        return 0


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
    payload = _ask_server(
        args.address,
        lambda client: client.trace(args.trace_id, limit=args.limit),
    )
    if payload is None:
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
    _add_shard_index(subparsers)
    _add_serve(subparsers)
    _add_stats(subparsers)
    _add_trace(subparsers)
    _add_autotune(subparsers)
    _add_validate(subparsers)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error boundary: a missing file or an unusable value, raised
    anywhere below as ``FileNotFoundError`` / ``ValueError`` (the two
    the wire calls ``invalid``), and compiled kernels that cannot be
    built (:class:`repro.native.Unavailable`, raised when an engine is
    constructed, before anything is served) are reported as
    ``error: ...`` on stderr with exit status 2 instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, native.Unavailable) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
