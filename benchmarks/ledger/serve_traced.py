"""Traced-run server launcher: the CLI's serving stack around a wrapped engine.

``repro serve`` cannot be handed a wrapped engine, so for the traced run
of the TCP workloads this launcher builds the same ``PPVService`` +
``PPVServer`` from the same public pieces and parameters the CLI uses
(``max_batch`` 64, ``max_inflight`` 256, a fresh ``Observability``), with
the engine — and on the sharded path the router's two remote stores —
behind :class:`spans.Timed` wrappers.  Spans stay in memory and are
written to ``--spans-out`` after the server has shut down (SIGTERM).

Banner on stderr, in the CLI's own shape so the harness parses both the
same way::

    traced memory backend on 127.0.0.1:40123
    traced sharded backend on 127.0.0.1:40123 shards 127.0.0.1:40125,127.0.0.1:40127
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from spans import ENGINE_SPANS, Recorder, Timed, traced_disk_engine  # noqa: E402

MAX_BATCH = 64
"""``repro serve --max-batch`` default."""


def _memory_engine(args, recorder: Recorder, stack: ExitStack):
    from repro.graph.io import read_edge_list
    from repro.serving import MemoryEngine
    from repro.storage import load_index

    engine = MemoryEngine(
        read_edge_list(args.graph), load_index(args.index), delta=args.delta
    )
    return Timed(engine, recorder, ENGINE_SPANS), ""


def _sharded_engine(args, recorder: Recorder, stack: ExitStack):
    """One single-worker pool per shard directory plus a router engine
    over them — ``ShardRouter``'s own recipe — with the router's remote
    stores re-seated behind timed wrappers in a plain ``DiskEngine``
    (which is all ``RouterEngine`` is, once bootstrapped)."""
    from repro.server import ServerConfig
    from repro.server.pool import ServerPool
    from repro.sharding import load_shard_map
    from repro.sharding.router import RouterEngine
    from repro.sharding.shard import shard_service_factory

    root = Path(args.shard_map)
    addresses = []
    for entry in load_shard_map(root)["shards"]:
        pool = ServerPool(
            shard_service_factory(root / entry["dir"], obs=True),
            workers=1,
            config=ServerConfig(host="127.0.0.1", port=0),
        )
        stack.callback(pool.stop)
        addresses.append(pool.start())
    router = RouterEngine(addresses, delta=args.delta, fault_budget=None)
    stack.callback(router.close)
    engine = traced_disk_engine(
        router.graph_store, router.ppv_store, recorder, args.delta,
        backend="sharded", shard_stats=router.shard_stats,
    )
    shards = ",".join(f"{host}:{port}" for host, port in addresses)
    return engine, f" shards {shards}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--backend", choices=["memory", "sharded"],
                        required=True)
    parser.add_argument("--graph")
    parser.add_argument("--index")
    parser.add_argument("--shard-map")
    parser.add_argument("--cache-size", type=int, required=True)
    parser.add_argument("--delta", type=float, required=True)
    parser.add_argument("--top", type=int, required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    from repro.obs import Observability
    from repro.server import PPVServer, ServerConfig
    from repro.serving import PPVService

    recorder = Recorder()
    with ExitStack() as stack:
        build = _memory_engine if args.backend == "memory" else _sharded_engine
        engine, banner_tail = build(args, recorder, stack)
        service = stack.enter_context(
            PPVService(
                engine, cache_size=args.cache_size, max_batch=MAX_BATCH,
                max_delay="auto", obs=Observability(),
            )
        )
        server = PPVServer(
            service,
            ServerConfig(host="127.0.0.1", port=0, default_top=args.top),
        )

        def announce(address) -> None:
            print(
                f"traced {args.backend} backend on "
                f"{address[0]}:{address[1]}{banner_tail}",
                file=sys.stderr, flush=True,
            )

        asyncio.run(server.serve(on_ready=announce))
    recorder.dump(args.spans_out, backend=args.backend)
    return 0


if __name__ == "__main__":
    sys.exit(main())
