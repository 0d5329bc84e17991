"""Cross-process network serving over :class:`~repro.serving.PPVService`.

Everything before this package lives inside one Python process; this is
the layer that puts the serving façade on the network:

* :mod:`repro.server.protocol` — the versioned JSONL request/response
  protocol (queries, certified top-k, streaming frames, stats, hot
  index swap, graceful shutdown) spoken by the server on every
  transport and by the client.
* :class:`PPVServer` (:mod:`repro.server.server`) — the asyncio
  front-end: many concurrent connections multiplexed onto one service
  with bounded in-flight admission (server-wide and per-connection
  backpressure) and structured error replies.  ``serve()`` accepts
  them from a TCP listener; ``serve_connection(source, sink)`` serves
  one pair of files through the same connection handler.
* :class:`ServerPool` (:mod:`repro.server.pool`) — one forked server
  process with a pid, a SIGKILL and an exit code: how the shard router
  starts its shards and the fault suites kill a server.  A server is
  one process; the compiled push already uses every CPU.
* :class:`PPVClient` (:mod:`repro.server.client`) — the small blocking
  client used by tests, benchmarks and examples.

The CLI front door is ``repro serve --tcp HOST:PORT``;
without ``--tcp`` the same server answers stdin on stdout.
"""

from repro.server.client import (
    ClientTimeout,
    PPVClient,
    ProtocolViolation,
    ServerError,
)
from repro.server.pool import ServerPool
from repro.server.server import PPVServer, ServerConfig

__all__ = [
    "PPVClient",
    "PPVServer",
    "ServerConfig",
    "ServerError",
    "ServerPool",
    "ClientTimeout",
    "ProtocolViolation",
]
