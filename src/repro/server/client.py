"""A small synchronous client for the FastPPV TCP protocol.

One :class:`PPVClient` wraps one connection.  It is deliberately plain
— blocking socket I/O, one request/response at a time — because its
consumers are tests, benchmarks and examples that want many independent
*connections* (one client per thread) rather than a multiplexed one;
the server coalesces across connections anyway.

    from repro.server import PPVClient

    with PPVClient(host, port) as client:
        result = client.query(42, eta=2)
        topk = client.query(42, top_k=10)
        for frame in client.stream(42, top_k=10):
            if frame.get("certified"):
                break
        print(client.stats()["server"]["requests_total"])
"""

from __future__ import annotations

import json
import socket
from typing import Iterator, Sequence

from repro.obs.trace import default_tracer
from repro.server import protocol


class ServerError(RuntimeError):
    """A structured error reply (``ok: false``) from the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ProtocolViolation(RuntimeError):
    """The peer broke the wire protocol (not a structured error)."""


class ClientTimeout(TimeoutError):
    """A connect or reply deadline expired.

    After a *read* timeout the connection is unusable — the reply may
    still arrive and would be misread as the answer to the next request
    — so the client marks itself broken and every further request
    raises.  Reconnect with a fresh :class:`PPVClient`.
    """


class PPVClient:
    """One connection to a :class:`~repro.server.PPVServer`.

    Not thread-safe: share nothing, or give each thread its own client.

    Parameters
    ----------
    timeout:
        Read/write deadline in seconds (``None``: block forever).  A
        hung or dead server surfaces as :class:`ClientTimeout` instead
        of blocking ``query()`` indefinitely.
    connect_timeout:
        Deadline for establishing the connection; defaults to
        ``timeout``.  A refused or unreachable server raises the usual
        ``ConnectionError``/``OSError``; a silent one raises
        :class:`ClientTimeout`.
    fault_plan:
        Tests only: a :class:`repro.faults.FaultPlan` with the
        ``client.connect`` / ``client.send`` / ``client.recv`` sites.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 60.0,
        connect_timeout: float | None = None,
        fault_plan=None,
    ) -> None:
        self.fault_plan = fault_plan
        self._timeout = timeout
        self._broken = False
        if connect_timeout is None:
            connect_timeout = timeout
        if fault_plan is not None:
            fault_plan.fire("client.connect", host=host, port=port)
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except socket.timeout:
            raise ClientTimeout(
                f"connect to {host}:{port} timed out "
                f"after {connect_timeout} s"
            ) from None
        self._sock.settimeout(timeout)
        # Request/response over small writes: Nagle + delayed ACK would
        # add tens of milliseconds per round-trip.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._next_id = 0
        self._closed = False
        # Trace ids of the most recent trace=True query / query_many,
        # for fetching the assembled span tree via trace().
        self.last_trace_id: str | None = None
        self.last_trace_ids: list[str] = []

    # ------------------------------------------------------------------ #
    # Transport

    def __enter__(self) -> "PPVClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def _check_usable(self) -> None:
        if self._broken:
            raise ClientTimeout(
                "connection abandoned after an earlier timeout; "
                "open a fresh PPVClient"
            )

    def send_raw(self, payload: bytes) -> None:
        """Ship raw bytes (protocol tests: malformed/oversized lines)."""
        self._check_usable()
        if self.fault_plan is not None:
            self.fault_plan.fire("client.send")
        try:
            self._sock.sendall(payload)
        except socket.timeout:
            self._broken = True
            raise ClientTimeout(
                f"send stalled for {self._timeout} s"
            ) from None

    def read_message(self) -> dict:
        """Read one response record (whatever its id).

        Raises
        ------
        ClientTimeout
            No reply within the client's ``timeout``; the connection is
            marked broken (see :class:`ClientTimeout`).
        """
        self._check_usable()
        if self.fault_plan is not None:
            self.fault_plan.fire("client.recv")
        try:
            line = self._reader.readline()
        except socket.timeout:
            self._broken = True
            raise ClientTimeout(
                f"no reply within {self._timeout} s"
            ) from None
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            message = json.loads(line)
        except ValueError as error:
            raise ProtocolViolation(f"unparseable reply: {error}") from None
        if not isinstance(message, dict):
            raise ProtocolViolation("reply is not a JSON object")
        return message

    def send(self, body: dict):
        """Ship one request object and return its ``id`` (``v`` and
        ``id`` are filled in when absent).  Sending several before the
        first :meth:`receive` pipelines them."""
        body = dict(body)
        body.setdefault("v", protocol.PROTOCOL_VERSION)
        if "id" not in body:
            self._next_id += 1
            body["id"] = self._next_id
        self.send_raw(protocol.encode(body))
        return body["id"]

    def receive(self, request_id) -> dict:
        """Read the next record, which must answer ``request_id``
        (:class:`ProtocolViolation` otherwise), and return its success
        ``result``.  Raises :class:`ServerError` on a structured failure
        reply."""
        return self._unwrap(self._read_reply(request_id))

    def request(self, body: dict) -> dict:
        """One round-trip: :meth:`send`, then :meth:`receive`."""
        return self.receive(self.send(body))

    def _read_reply(self, request_id) -> dict:
        message = self.read_message()
        if message.get("id") != request_id:
            raise ProtocolViolation(
                f"reply for id {message.get('id')!r}, expected {request_id!r}"
            )
        return message

    @staticmethod
    def _unwrap(message: dict) -> dict:
        if message.get("ok"):
            return message.get("result", {})
        error = message.get("error") or {}
        raise ServerError(
            error.get("code", "unknown"), error.get("message", str(message))
        )

    # ------------------------------------------------------------------ #
    # Verbs

    def query(
        self,
        nodes: int | Sequence[int],
        *,
        weights: Sequence[float] | None = None,
        eta: int | None = None,
        target_error: float | None = None,
        time_limit: float | None = None,
        top_k: int | None = None,
        budget: int | None = None,
        top: int | None = None,
        family: str | None = None,
        params: dict | None = None,
        trace: bool = False,
    ) -> dict:
        """Serve one query; returns the result payload (see protocol).

        ``family`` selects the query family (default: ``top_k`` when
        ``top_k`` is given, else ``ppv``); ``params`` carries the
        family's own fields, e.g. ``family="hitting",
        params={"target": 7}``.

        ``trace=True`` opens a ``client.request`` root span and ships
        its context in the request's ``trace`` field; the server
        continues the trace across every hop.
        The trace id lands in :attr:`last_trace_id` — fetch the
        assembled tree with :meth:`trace`.
        """
        body = self._query_body(
            "query", nodes, weights, eta, target_error, time_limit,
            top_k, budget, top, family=family, params=params,
        )
        if not trace:
            return self.request(body)
        span = self._start_trace(body)
        try:
            return self.request(body)
        finally:
            span.end()

    def query_many(
        self,
        nodes_list: Sequence[int | Sequence[int]],
        *,
        window: int = 32,
        eta: int | None = None,
        target_error: float | None = None,
        time_limit: float | None = None,
        top_k: int | None = None,
        budget: int | None = None,
        top: int | None = None,
        family: str | None = None,
        params: dict | None = None,
        trace: bool = False,
    ) -> list[dict]:
        """Serve many queries over this one connection, pipelined.

        Keeps up to ``window`` requests outstanding so consecutive
        queries amortise the round-trip (and coalesce into shared
        engine batches server-side) instead of paying one RTT each.
        Results come back in input order regardless of the completion
        order on the wire.

        A structured error reply raises :class:`ServerError`
        immediately; close the connection afterwards — replies to
        still-outstanding requests are left unread.

        ``trace=True`` gives every query in the burst its own trace
        (ids collected in :attr:`last_trace_ids`, input order); each
        root span ends when its reply arrives.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        bodies = [
            self._query_body(
                "query", nodes, None, eta, target_error, time_limit,
                top_k, budget, top, family=family, params=params,
            )
            for nodes in nodes_list
        ]
        spans = None
        if trace:
            spans = [self._start_trace(body) for body in bodies]
            self.last_trace_ids = [span.trace_id for span in spans]
        results: list = [None] * len(bodies)
        pending: dict = {}
        sent = 0
        done = 0
        while done < len(bodies):
            while sent < len(bodies) and len(pending) < window:
                pending[self.send(bodies[sent])] = sent
                sent += 1
            message = self.read_message()
            try:
                position = pending.pop(message.get("id"))
            except KeyError:
                raise ProtocolViolation(
                    f"reply for unknown id {message.get('id')!r}"
                ) from None
            results[position] = self._unwrap(message)
            done += 1
            if spans is not None:
                spans[position].end()
        return results

    def stream(
        self,
        node: int,
        *,
        eta: int | None = None,
        target_error: float | None = None,
        time_limit: float | None = None,
        top_k: int | None = None,
        budget: int | None = None,
        top: int | None = None,
    ) -> Iterator[dict]:
        """Yield per-iteration frames of one streamed query.

        The generator ends after the server's ``done`` record.  Closing
        it early (``break``, ``.close()``) quietly drains the stream's
        remaining records off the socket, so the connection stays
        usable for further requests.
        """
        body = self._query_body(
            "stream", node, None, eta, target_error, time_limit,
            top_k, budget, top,
        )
        request_id = self.send(body)
        finished = False
        try:
            while True:
                message = self._read_reply(request_id)
                if "frame" in message:
                    yield message["frame"]
                    continue
                finished = True
                self._unwrap(message)  # raises on structured errors
                return
        finally:
            if not finished and not self._closed:
                # Abandoned mid-stream: the terminal record (and any
                # frames before it) are still in flight and would be
                # misread as the reply to the *next* request.
                try:
                    while "frame" in self._read_reply(request_id):
                        pass
                except (ConnectionError, OSError, RuntimeError,
                        ProtocolViolation):
                    pass

    def stats(self) -> dict:
        """Service + server counters of the server we talk to."""
        return self.request({"verb": "stats"})

    def trace(
        self,
        trace_id: str | None = None,
        *,
        limit: int | None = None,
    ) -> dict:
        """Recent trace spans from the server (a shard router
        fans the verb out and merges every shard's spans in).

        ``trace_id`` filters to one trace — typically
        :attr:`last_trace_id` after a ``trace=True`` query.
        """
        body: dict = {"verb": "trace"}
        if trace_id is not None:
            body["trace_id"] = str(trace_id)
        if limit is not None:
            body["limit"] = int(limit)
        return self.request(body)

    def _start_trace(self, body: dict):
        """Open a root span for ``body`` (mutated in place) and record
        its id in :attr:`last_trace_id`."""
        span = default_tracer().start_span(
            "client.request", verb=body.get("verb", "query")
        )
        body["trace"] = protocol.trace_field(span.context())
        self.last_trace_id = span.trace_id
        return span

    def ping(self) -> bool:
        """Round-trip liveness probe."""
        return bool(self.request({"verb": "ping"}).get("pong"))

    def swap_index(self, path: str) -> dict:
        """Hot-swap the serving index from an ``.fppv`` path (or a
        partition root, when talking to a shard router)."""
        return self.request({"verb": "swap_index", "path": str(path)})

    def fetch_hubs(self, hubs: Sequence[int]) -> dict:
        """Shard-internal: the stored prime-PPV records of ``hubs`` —
        ``{"<hub>": {"entries", "borders", "payload": base64}}`` (see
        :mod:`repro.sharding.shard`).  Plain servers refuse with
        ``invalid``."""
        return self.request(
            {"verb": "fetch_hubs", "hubs": [int(hub) for hub in hubs]}
        )

    def fetch_cluster(self, cluster: int) -> dict:
        """Shard-internal: one graph cluster's stored segment,
        ``{"segment": base64}``."""
        return self.request({"verb": "fetch_cluster", "cluster": int(cluster)})

    def shard_info(self) -> dict:
        """Shard-internal: the serving shard's partition coordinates."""
        return self.request({"verb": "shard_info"})

    def shutdown_server(self) -> None:
        """Ask the server to shut down gracefully."""
        self.request({"verb": "shutdown"})

    @staticmethod
    def _query_body(
        verb, nodes, weights, eta, target_error, time_limit, top_k,
        budget, top, family=None, params=None,
    ) -> dict:
        body: dict = {"verb": verb}
        if family is not None:
            body["family"] = str(family)
        if params:
            # Family parameters travel as top-level request fields (the
            # family's PARAM_NAMES), e.g. {"family": "hitting",
            # "target": 7}.
            body.update(params)
        if isinstance(nodes, (list, tuple)):
            body["nodes"] = [int(n) for n in nodes]
        else:
            body["node"] = int(nodes)
        if weights is not None:
            body["weights"] = [float(w) for w in weights]
        if eta is not None:
            body["eta"] = int(eta)
        if target_error is not None:
            body["target_error"] = float(target_error)
        if time_limit is not None:
            body["time_limit"] = float(time_limit)
        if top_k is not None:
            body["top_k"] = int(top_k)
        if budget is not None:
            body["budget"] = int(budget)
        if top is not None:
            body["top"] = int(top)
        return body
