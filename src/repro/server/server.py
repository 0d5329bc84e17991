"""The asyncio front-end over one :class:`~repro.serving.PPVService`.

One :class:`PPVServer` owns one service and multiplexes any number of
client connections onto it — accepted from a TCP listener
(:meth:`PPVServer.serve`), or the one a pair of files makes
(:meth:`PPVServer.serve_connection`: ``repro serve`` on stdin/stdout)
through the same handler.  The event loop only parses, admits and
replies; every query still executes on the service's scheduler drain
thread, so concurrent connections coalesce into shared engine batches
exactly like concurrent ``submit()`` callers in one process — the
server rides :meth:`~repro.serving.spec.QueryHandle.add_done_callback`
instead of parking a thread per in-flight request.

Admission control (backpressure)
--------------------------------
Two bounds, both enforced *before* the next line is read from a
connection, so a client that outruns the service is throttled by TCP
flow control rather than ballooning server memory:

* ``max_inflight`` — server-wide bound on admitted-but-unanswered
  requests (the in-flight admission queue);
* ``max_inflight_per_conn`` — per-connection share, so one firehose
  client cannot starve the rest.

Structured errors (malformed JSON, oversized lines, unknown verbs, bad
fields) are replied per request and never tear down the connection; see
:mod:`repro.server.protocol` for the codes.

Every line takes one path: :meth:`PPVServer._dispatch_line` looks the
verb up in the handler table built in ``__init__``, successes leave
through ``_reply_ok`` and failures through ``_reply_error`` (coded by
:func:`protocol.error_code`), and both count into the service's
:mod:`repro.obs` registry, from which ``stats`` is rendered.

Hot swap and shutdown
---------------------
``swap_index`` closes the admission gate (arrivals are held, not
dropped), drains in-flight work via the service's own
``update_index`` flush, swaps, then reopens the gate — an accepted
query is always answered, from the old index or the new one.
``shutdown`` (verb, signal, or :meth:`PPVServer.request_shutdown`)
stops accepting connections, answers everything in flight, then closes.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
from dataclasses import asdict, dataclass

from repro.server import protocol
from repro.server.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    E_INVALID,
    E_OVERSIZED,
    E_UNAVAILABLE,
    ProtocolError,
    ShardUnavailableError,
)
from repro.serving.families import supported_families

DEFAULT_MAX_INFLIGHT = 256
DEFAULT_MAX_INFLIGHT_PER_CONN = 32


@dataclass
class ServerConfig:
    """Tunables of one :class:`PPVServer` (transport-level only;
    engine/scheduler knobs live on the service)."""

    host: str = "127.0.0.1"
    port: int = 0
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    max_inflight_per_conn: int = DEFAULT_MAX_INFLIGHT_PER_CONN
    default_top: int = 10

    def __post_init__(self) -> None:
        if self.max_line_bytes < 64:
            raise ValueError("max_line_bytes must be at least 64")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.max_inflight_per_conn < 1:
            raise ValueError("max_inflight_per_conn must be at least 1")


# How _dispatch_line runs a verb's handler (the table in __init__).
_CONTROL = "control"  # answered inline with the handler's payload
_TRACED = "traced"  # control, under a server-hop span when traced
_ADMITTED = "admitted"  # a task holding both admission bounds


class _ClientGone(ConnectionError):
    """Writing a reply failed: the peer is gone.  Raised by
    :meth:`PPVServer._send` only, so a handler's own ``OSError`` (a
    disk store's I/O error) is never taken for a disconnect and still
    gets its error reply."""


class _Connection:
    """Per-connection state: serialised writes and an in-flight bound."""

    __slots__ = ("reader", "writer", "write_lock", "slots", "tasks")

    def __init__(self, reader, writer, per_conn_limit: int) -> None:
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.slots = asyncio.Semaphore(per_conn_limit)
        self.tasks: set[asyncio.Task] = set()


class PPVServer:
    """Serve one :class:`~repro.serving.PPVService` over JSONL
    connections (TCP, or one pair of files).

    Parameters
    ----------
    service:
        The service to serve.  The server never closes it — the caller
        (or the forked process) that opened the service owns its
        lifetime.
    config:
        Transport tunables; defaults are fine for tests and benchmarks.
    fault_plan:
        Tests only: a :class:`repro.faults.FaultPlan`.  The
        ``server.request`` site fires per parsed request line (a
        ``kill`` rule implements "SIGKILL this server after m
        requests"); ``server.send`` fires per response frame (a
        ``torn`` rule truncates the frame and drops the connection, a
        raising rule simulates a mid-write disconnect).  ``None`` keeps
        both paths hook-free.
    """

    def __init__(
        self,
        service,
        config: ServerConfig | None = None,
        fault_plan=None,
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.fault_plan = fault_plan
        # The counters live in the service's registry (a PPVService
        # always has one) and are incremented in place; the stats
        # payload's "server" section is rendered from them.  They
        # belong to the service: one live server per service, and a
        # later server over the same service continues its series.
        self.obs = service.obs
        self._started_monotonic = time.monotonic()
        registry = self.obs.registry
        self._requests_total = registry.counter(
            "repro_server_requests_total",
            "Request lines parsed by the TCP front-end.",
        )
        self._requests_before = self._requests_total.value
        self._responses_total = registry.counter(
            "repro_server_responses_total",
            "Responses written by the TCP front-end.",
        )
        self._errors_total = registry.counter(
            "repro_server_errors_total",
            "Structured errors returned, by code.",
            labelnames=("code",),
        )
        registry.gauge_func(
            "repro_server_connections_open",
            "Client connections currently open.",
            lambda: len(self._connections),
        )
        registry.gauge_func(
            "repro_server_uptime_seconds",
            "Seconds since this server object was created.",
            lambda: time.monotonic() - self._started_monotonic,
        )
        self._connections_total = registry.counter(
            "repro_server_connections_total",
            "Client connections accepted.",
        )
        self._frames_total = registry.counter(
            "repro_server_frames_total",
            "Mid-stream frames written by the stream verb.",
        )
        self._swaps_total = registry.counter(
            "repro_server_swaps_total",
            "Index swaps completed through the swap_index verb.",
        )
        # verb -> (handler, kind), one entry per protocol.VERBS.  A
        # control handler takes the request and returns the ok payload
        # or raises: a coroutine function runs on the loop, a plain one
        # on a worker thread (a router's stats/trace fan out over the
        # network, a shard's fetches read its stores).  An admitted
        # handler is a query runner.
        self._verbs = {
            "ping": (self._ping, _CONTROL),
            "stats": (self._stats, _CONTROL),
            "trace": (self._trace, _CONTROL),
            "shutdown": (self._acknowledge, _CONTROL),
            "swap_index": (self._swap_index, _CONTROL),
            "fetch_hubs": (self._fetch_hubs, _TRACED),
            "fetch_cluster": (self._fetch_cluster, _TRACED),
            "shard_info": (self._shard_info, _TRACED),
            "query": (self._serve_query, _ADMITTED),
            "stream": (self._serve_stream, _ADMITTED),
        }
        self.address: tuple | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown: asyncio.Event | None = None
        self._gate: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._swap_lock: asyncio.Lock | None = None
        self._connections: set[_Connection] = set()
        self._started = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle

    def _open(self) -> int:
        """Create the per-run state :meth:`_on_connection` needs on the
        running loop; returns the stream readers' ``limit``."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._gate = asyncio.Event()
        self._gate.set()
        self._slots = asyncio.Semaphore(self.config.max_inflight)
        self._swap_lock = asyncio.Lock()
        self._install_signal_handlers(self._loop)
        # readuntil() needs headroom above the payload bound so the
        # oversized error path triggers deterministically at our limit,
        # not the transport's.
        return self.config.max_line_bytes + 2

    async def serve(self, sock=None, on_ready=None) -> None:
        """Accept and serve connections until shutdown is requested.

        ``sock`` overrides ``config.host``/``config.port`` with an
        already-bound listening socket — the path of a server forked by
        :class:`~repro.server.pool.ServerPool`, which binds in the
        parent.
        ``on_ready`` (if given) is called with the bound ``(host,
        port)`` once the server is listening.
        """
        limit = self._open()
        where = {"sock": sock}
        if sock is None:
            where = {"host": self.config.host, "port": self.config.port}
        self._server = await asyncio.start_server(
            self._on_connection, limit=limit, **where
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._started.set()
        if on_ready is not None:
            on_ready(self.address)
        try:
            await self._shutdown.wait()
            # Graceful: stop accepting, answer what is in flight, close
            # every connection, and only then wait for the listener —
            # on Python >= 3.12.1 Server.wait_closed() blocks until all
            # connection handlers finish, and the handlers are parked
            # in read() until _drain_connections() closes their
            # sockets, so the drain must come first.
            self._server.close()
            await self._drain_connections()
            await self._server.wait_closed()
        finally:
            # Covers the exception/cancellation path too (the normal
            # path above already closed; close() is idempotent).
            self._server.close()
            self._started.clear()

    async def serve_connection(self, source, sink) -> None:
        """Serve one connection and no listener (``repro serve`` without
        ``--tcp``): request bytes are read from the binary file
        ``source`` to its end, reply lines are written to ``sink``.

        The files are copied to and from the far end of a socket pair
        whose near end goes through :meth:`_on_connection` like any
        accepted connection.  Returns when that handler does (``source``
        ended and its last reply is out) or a shutdown has drained it.
        ``source.read(n)`` must return as soon as *some* bytes are there
        (an unbuffered file), or a peer that waits for a reply before
        writing its next request waits forever.
        """
        limit = self._open()
        near, far = socket.socketpair()
        reader, writer = await asyncio.open_connection(sock=near, limit=limit)

        def feed() -> None:
            try:
                while chunk := source.read(1 << 16):
                    far.sendall(chunk)
                far.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the server shut down first and the pair is closed

        def drain() -> None:
            with far, far.makefile("rb") as replies:
                for line in replies:
                    sink.write(line)
                    sink.flush()

        # A daemon, not an executor thread the loop would join on exit:
        # after a shutdown it may sit in a read of stdin forever.
        threading.Thread(target=feed, name="ppv-feed", daemon=True).start()
        drained = asyncio.ensure_future(asyncio.to_thread(drain))
        handler = asyncio.ensure_future(self._on_connection(reader, writer))
        handler.add_done_callback(lambda _handler: self._shutdown.set())
        await self._shutdown.wait()
        await self._drain_connections()
        await handler
        await drained

    def _install_signal_handlers(self, loop) -> None:
        try:
            import signal

            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self._shutdown.set)
        except (ImportError, NotImplementedError, RuntimeError, ValueError):
            # Not the main thread (test harnesses) or an exotic platform:
            # request_shutdown() and the shutdown verb still work.
            pass

    def request_shutdown(self) -> None:
        """Thread-safe graceful shutdown trigger (idempotent; a no-op
        once the event loop is already gone)."""
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already closed: the server is down

    async def _drain_connections(self) -> None:
        for connection in list(self._connections):
            await asyncio.gather(*connection.tasks, return_exceptions=True)
            await self._close_connection(connection)

    async def _close_connection(self, connection: _Connection) -> None:
        writer = connection.writer
        try:
            if not writer.is_closing():
                writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------ #
    # Connection handling

    async def _on_connection(self, reader, writer) -> None:
        # Small JSONL responses must not sit in Nagle's buffer waiting
        # for the client's delayed ACK.
        try:
            conn_sock = writer.get_extra_info("socket")
            if conn_sock is not None:
                conn_sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
        except OSError:  # pragma: no cover - exotic transports
            pass
        connection = _Connection(
            reader, writer, self.config.max_inflight_per_conn
        )
        self._connections.add(connection)
        self._connections_total.inc()
        try:
            await self._read_loop(connection)
            # EOF from the client: answer its outstanding requests
            # before closing our side.
            await asyncio.gather(*connection.tasks, return_exceptions=True)
        except (ConnectionError, OSError):
            pass
        finally:
            for task in connection.tasks:
                task.cancel()
            await self._close_connection(connection)
            self._connections.discard(connection)

    async def _read_loop(self, connection: _Connection) -> None:
        # The loop runs until the peer (or the shutdown drain, which
        # closes every connection once in-flight work is answered) ends
        # the connection; requests arriving after shutdown get a
        # structured ``unavailable`` reply from _dispatch_line rather
        # than silence.
        reader = connection.reader
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as error:
                if error.partial.strip():
                    await self._dispatch_line(connection, error.partial)
                return
            except asyncio.LimitOverrunError as error:
                await self._discard_oversized(connection, error.consumed)
                continue
            # The bound applies to the payload, excluding the record
            # separator readuntil includes.
            if len(line.rstrip(b"\r\n")) > self.config.max_line_bytes:
                await self._reply_oversized(connection)
                continue
            line = line.strip()
            if not line:
                continue
            await self._dispatch_line(connection, line)

    async def _discard_oversized(self, connection: _Connection, consumed: int) -> None:
        """Skip exactly the over-limit line, then report it.

        Consumes byte-exact amounts so pipelined requests queued behind
        the offending newline survive intact.
        """
        reader = connection.reader
        while True:
            if consumed:
                try:
                    await reader.readexactly(consumed)
                except asyncio.IncompleteReadError:
                    break
            try:
                await reader.readuntil(b"\n")  # the tail of the long line
                break
            except asyncio.LimitOverrunError as error:
                consumed = error.consumed
            except asyncio.IncompleteReadError:
                break
        await self._reply_oversized(connection)

    async def _reply_oversized(self, connection: _Connection) -> None:
        await self._reply_error(
            connection,
            None,
            ProtocolError(
                E_OVERSIZED,
                f"request line exceeds {self.config.max_line_bytes} bytes",
            ),
        )

    async def _send(self, connection: _Connection, message: dict) -> None:
        try:
            async with connection.write_lock:
                payload = protocol.encode(message)
                if self.fault_plan is not None:
                    action = self.fault_plan.fire("server.send")
                    if action is not None and action.torn:
                        # Write a prefix of the frame, then drop the
                        # connection: the client sees a line with no
                        # terminator followed by EOF — a torn frame.
                        connection.writer.write(
                            payload[: max(1, len(payload) // 2)]
                        )
                        try:
                            await connection.writer.drain()
                        finally:
                            connection.writer.close()
                        raise ConnectionResetError("injected torn frame")
                connection.writer.write(payload)
                await connection.writer.drain()
        except (ConnectionError, OSError) as error:
            raise _ClientGone(str(error)) from error

    async def _reply_ok(
        self, connection: _Connection, request_id, result=None, **extra
    ) -> None:
        """The one place a success record is sent and counted."""
        await self._send(
            connection, protocol.ok_response(request_id, result, **extra)
        )
        self._responses_total.inc()

    async def _reply_error(
        self, connection: _Connection, request_id, error: BaseException
    ) -> None:
        """The one place a failure is coded, counted and sent."""
        code = protocol.error_code(error)
        self._errors_total.labels(code).inc()
        await self._send(
            connection, protocol.error_response(request_id, code, str(error))
        )

    async def _dispatch_line(self, connection: _Connection, line) -> None:
        """Parse one request line and route it through the verb table.

        Control verbs are answered inline; query/stream verbs first
        acquire both admission bounds — stalling this coroutine (and
        with it the connection's read loop) is exactly the backpressure
        contract — then run as a task so the connection can pipeline.
        """
        self._requests_total.inc()
        if self.fault_plan is not None:
            self.fault_plan.fire(
                "server.request",
                requests=self._requests_total.value - self._requests_before,
            )
        request_id = None
        try:
            request = protocol.parse_request(line)
            request_id = request.get("id")
            protocol.check_version(request)
            verb = protocol.request_verb(request)
            handler, kind = self._verbs[verb]
            if kind is _ADMITTED:
                await self._admit(
                    handler, connection, request_id, request, verb
                )
                return
            # The shard side of a traced fetch: record how long this
            # worker spent serving the remote store's request, reply
            # included.
            span = None
            if kind is _TRACED:
                span = self._hop_span(
                    verb, protocol.trace_from_request(request)
                )
            try:
                if asyncio.iscoroutinefunction(handler):
                    payload = await handler(request)
                else:
                    payload = await asyncio.to_thread(handler, request)
                await self._reply_ok(connection, request_id, payload)
            finally:
                if span is not None:
                    span.end()
            if verb == "shutdown":
                # Only once the acknowledgement is out: the shutdown
                # drain closes this connection.
                self._shutdown.set()
        except _ClientGone:
            raise
        except Exception as error:
            await self._reply_error(connection, request_id, error)

    async def _admit(
        self, runner, connection: _Connection, request_id, request: dict,
        verb: str,
    ) -> None:
        """Hold a query/stream request until it owns both admission
        bounds, then start ``runner`` for it as a task."""
        spec = protocol.spec_from_request(request)
        top = protocol.top_from_request(request, self.config.default_top)
        if self._shutdown.is_set():
            raise ProtocolError(E_UNAVAILABLE, "server is shutting down")
        # A traced request gets a server-hop span covering admission
        # wait through response; downstream spans parent under it so
        # the tree reads client → server → service → kernel.
        span = self._hop_span(verb, spec.trace)
        if span is not None:
            spec = spec.with_trace(span.context())
        try:
            await self._gate.wait()
            await self._slots.acquire()
            await connection.slots.acquire()
        except BaseException:
            if span is not None:
                span.end(error="admission")
            raise
        task = asyncio.ensure_future(
            self._admitted(runner, connection, request_id, spec, top, span)
        )
        connection.tasks.add(task)
        task.add_done_callback(connection.tasks.discard)

    async def _admitted(
        self, runner, connection: _Connection, request_id, spec, top, span
    ) -> None:
        """Run one admitted request, releasing its slots afterwards."""
        try:
            # Re-check the swap gate here, after the slot waits: a
            # request that passed the dispatch-time gate and then sat
            # in an admission queue across the start of a swap must not
            # submit into the middle of the engine rebuild — from this
            # wait to the actual submit there is no further await, so
            # the swap (which closes the gate before flushing) cannot
            # interleave.
            await self._gate.wait()
            await runner(connection, request_id, spec, top)
        except _ClientGone:
            pass  # client went away; the read loop notices on its own
        except Exception as error:
            try:
                await self._reply_error(connection, request_id, error)
            except _ClientGone:
                pass
        finally:
            if span is not None:
                span.end()
            connection.slots.release()
            self._slots.release()

    def _hop_span(self, verb: str, context):
        """This server's span in a traced request's tree, or ``None``
        when the request carries no trace context."""
        if context is None:
            return None
        return self.obs.tracer.start_span(f"server.{verb}", context)

    # ------------------------------------------------------------------ #
    # Control verbs: take the request, return the ok payload or raise

    async def _ping(self, request: dict) -> dict:
        return {"pong": True}

    async def _acknowledge(self, request: dict) -> None:
        """``shutdown`` has nothing to compute: :meth:`_dispatch_line`
        stops the server once this empty acknowledgement is sent."""

    def _trace(self, request: dict) -> dict:
        """The ``trace`` verb: recent spans, locally recorded plus —
        behind a router engine — fanned out across every shard."""
        trace_id = request.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise ProtocolError(E_INVALID, '"trace_id" must be a string')
        limit = request.get("limit")
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool)
            or limit < 1
        ):
            raise ProtocolError(
                E_INVALID, '"limit" must be a positive integer'
            )
        spans = self.obs.tracer.spans(trace_id=trace_id, limit=limit)
        fan_out = getattr(self.service.engine, "trace_spans", None)
        payload = {"schema": protocol.TRACE_SCHEMA_VERSION}
        if fan_out is not None:
            try:
                spans.extend(fan_out(trace_id=trace_id, limit=limit))
            except ShardUnavailableError as error:
                payload["error"] = str(error)
        spans.sort(key=lambda record: record.get("start") or 0.0)
        payload["spans"] = spans
        payload["count"] = len(spans)
        return payload

    async def _swap_index(self, request: dict) -> dict:
        path = request.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError(E_INVALID, 'swap_index needs a "path"')
        # Hold new admissions (they queue behind the gate — accepted,
        # never dropped), drain what was admitted, swap, resume.  The
        # lock serialises concurrent swap requests.
        async with self._swap_lock:
            self._gate.clear()
            try:
                # The service routes: engines with a
                # ``replace_from_path`` hook (the shard router, which
                # rolls the swap across every shard) reopen from the
                # path; the rest load the .fppv and go through
                # update_index as before.
                await asyncio.to_thread(self.service.swap_path, path)
            except FileNotFoundError:
                raise ProtocolError(
                    E_INVALID, f"no index at {path!r}"
                ) from None
            finally:
                self._gate.set()
        self._swaps_total.inc()
        return {"swapped": True, "path": path}

    # Shard-internal data verbs: stored hub records, one cluster's
    # stored segment, or the shard's partition coordinates.  Served by
    # engines that expose the matching method (the shard engine of
    # :mod:`repro.sharding`); every other backend refuses with
    # ``invalid``.  The payloads can dwarf ``max_line_bytes`` — the line
    # bound applies to requests only, and the client reads responses
    # unbounded.

    def _shard_method(self, verb: str):
        method = getattr(self.service.engine, verb, None)
        if method is None:
            backend = getattr(self.service.engine, "backend", None)
            raise ProtocolError(
                E_INVALID,
                f"the {backend!r} backend does not serve {verb!r}; "
                "only shard processes do",
            )
        return method

    def _fetch_hubs(self, request: dict) -> dict:
        method = self._shard_method("fetch_hubs")
        hubs = request.get("hubs")
        if not isinstance(hubs, list):
            raise ProtocolError(E_INVALID, 'fetch_hubs needs a "hubs" list')
        try:
            return method([int(hub) for hub in hubs])
        except KeyError as error:
            # A hub this shard does not own; the message names it.
            raise ProtocolError(E_INVALID, str(error)) from None

    def _fetch_cluster(self, request: dict) -> dict:
        method = self._shard_method("fetch_cluster")
        cluster = request.get("cluster")
        if not isinstance(cluster, int) or isinstance(cluster, bool):
            raise ProtocolError(
                E_INVALID, 'fetch_cluster needs an integer "cluster"'
            )
        return method(cluster)

    def _shard_info(self, request: dict) -> dict:
        return self._shard_method("shard_info")()

    def _stats(self, request: dict) -> dict:
        # Imported lazily: repro/__init__ pulls in the whole serving stack.
        from repro import __version__

        errors = {
            code: count
            for (code,), count in self._errors_total.children().items()
        }
        payload = {
            "server": {
                "connections_total": self._connections_total.value,
                "connections_open": len(self._connections),
                "requests_total": self._requests_total.value,
                "responses_total": self._responses_total.value,
                "frames_total": self._frames_total.value,
                "errors_total": sum(errors.values()),
                "errors_by_code": errors,
                "swaps_total": self._swaps_total.value,
            },
            "service": asdict(self.service.stats()),
            # A server is one process; the shape stays for readers of
            # per-shard stats.
            "worker": {"index": 0, "pid": os.getpid()},
            "backend": getattr(self.service.engine, "backend", None),
            # Capability advertisement: the query families this
            # server's engine can answer.
            "families": list(supported_families(self.service.engine)),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "version": __version__,
            "pid": os.getpid(),
            "metrics": self.obs.registry.snapshot(),
        }
        if self.obs.slow_log is not None:
            payload["slow_queries"] = self.obs.slow_log.entries(
                tracer=self.obs.tracer
            )
        # A shard router aggregates its shards' stats (merged latency,
        # per-shard balance) into one extra section.
        shard_stats = getattr(self.service.engine, "shard_stats", None)
        if shard_stats is not None:
            try:
                payload["shards"] = shard_stats()
            except ShardUnavailableError as error:
                payload["shards"] = {"error": str(error)}
        return payload

    # ------------------------------------------------------------------ #
    # Admitted verbs: run as tasks holding both admission bounds

    async def _await_handle(self, handle):
        """Await a service handle without blocking the event loop."""
        future = self._loop.create_future()

        def on_done(_handle) -> None:
            self._loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(None)
            )

        handle.add_done_callback(on_done)
        await future
        return handle.result(timeout=0)

    async def _serve_query(
        self, connection: _Connection, request_id, spec, top
    ) -> None:
        result = await self._await_handle(self.service.submit(spec))
        await self._reply_ok(
            connection, request_id, protocol.render_result(spec, result, top)
        )

    async def _serve_stream(
        self, connection: _Connection, request_id, spec, top
    ) -> None:
        frames: asyncio.Queue = asyncio.Queue()
        abandon = threading.Event()
        loop = self._loop

        def emit(item) -> None:
            try:
                loop.call_soon_threadsafe(frames.put_nowait, item)
            except RuntimeError:  # loop already closed during shutdown
                pass

        def pump() -> None:
            """Iterate the service stream on a worker thread.

            Closing the iterator (normal end, abandon, or error) cancels
            the query at its next iteration boundary via the service's
            streaming contract.
            """
            try:
                iterator = self.service.stream(spec)
                try:
                    for snapshot in iterator:
                        if abandon.is_set():
                            break
                        emit(("frame", protocol.render_snapshot(snapshot, top)))
                finally:
                    iterator.close()
                emit(("done", None))
            except BaseException as error:
                emit(("error", error))

        thread = threading.Thread(
            target=pump, name="ppv-server-stream", daemon=True
        )
        thread.start()
        sent = 0
        try:
            while True:
                kind, payload = await frames.get()
                if kind == "frame":
                    await self._send(
                        connection, protocol.frame_response(request_id, payload)
                    )
                    sent += 1
                    self._frames_total.inc()
                elif kind == "done":
                    await self._reply_ok(
                        connection, request_id, done=True, frames=sent
                    )
                    return
                else:  # error
                    await self._reply_error(connection, request_id, payload)
                    return
        finally:
            # Mid-stream disconnect (send raised) or task cancellation:
            # tell the pump to stop so the engine abandons the query at
            # the next iteration boundary instead of streaming into the
            # void.
            abandon.set()

    # ------------------------------------------------------------------ #
    # Test/benchmark convenience

    def background(self) -> "_BackgroundServer":
        """Run this server on a daemon thread::

            with PPVServer(service).background() as (host, port):
                client = PPVClient(host, port)

        The context manager shuts the server down gracefully on exit.
        """
        return _BackgroundServer(self)


class _BackgroundServer:
    """Context manager running a :class:`PPVServer` on its own thread."""

    def __init__(self, server: PPVServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    def __enter__(self) -> tuple:
        def run() -> None:
            try:
                asyncio.run(self.server.serve())
            except BaseException as error:  # surfaced on __exit__
                self._failure = error

        self._thread = threading.Thread(
            target=run, name="ppv-server", daemon=True
        )
        self._thread.start()
        deadline = time.monotonic() + 10.0
        while not self.server._started.is_set():
            if self._failure is not None:
                raise self._failure
            if time.monotonic() > deadline:
                raise TimeoutError("server did not start listening")
            time.sleep(0.005)
        return self.server.address

    def __exit__(self, *exc_info) -> None:
        self.server.request_shutdown()
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():
            raise TimeoutError("server did not shut down")
        if self._failure is not None:
            raise self._failure

