"""Version 1 of the FastPPV wire protocol (JSONL).

One request per line, one JSON object per request; responses are JSONL
too, correlated by the client-chosen ``id`` (any JSON value).  Both of
``repro serve``'s transports — stdin/stdout and ``--tcp`` — speak this
protocol through one server, so a request file replays on either.

Requests
--------
``{"v": 1, "id": 7, "verb": "query", "node": 42, "eta": 2}``

* ``v`` — protocol version; optional, assumed :data:`PROTOCOL_VERSION`.
  A different version is refused with an ``unsupported_version`` error.
* ``verb`` — optional, default ``"query"``.  Known verbs:

  - ``query`` — serve one :class:`~repro.serving.QuerySpec`: ``node``
    (or ``nodes`` + optional ``weights``), an optional ``family``
    naming the query family, plus the family's own fields.  Without
    ``family`` the request means what it always has: ``top_k`` +
    ``budget`` selects certified top-k, anything else is plain PPV.
    Per-family fields:

    ========================  ==========================================
    family                    request fields
    ========================  ==========================================
    ``ppv`` (default)         ``eta`` / ``target_error`` / ``time_limit``
    ``top_k``                 ``top_k`` (required), ``budget``
    ``hitting``               ``target`` (required), ``beta``,
                              ``max_levels``, ``epsilon``, ``delta``
    ``reachability``          ``max_length``, ``alpha``
    registered extensions     the family's ``PARAM_NAMES`` fields
    ========================  ==========================================

    ``top`` bounds the ranked scores returned (score-ranked families).
    An unknown family, or one the serving backend cannot answer, is
    refused with the structured ``unsupported_family`` error.
  - ``stream`` — like ``query`` (single node, streamable families —
    ``ppv``/``top_k`` — only) but the response is a sequence of
    per-iteration frames followed by a ``done`` record.
  - ``stats`` — service + server counters, process identity
    (``uptime_seconds``/``version``/``pid``), the full metrics-registry
    snapshot the counters are rendered from (``metrics``, aggregated
    across shards by a router) and, when one is configured, the
    slow-query log (``slow_queries``).
  - ``trace`` — recent trace spans from the span ring (see the
    ``trace`` request field below).  Optional fields: ``trace_id``
    filters to one trace, ``limit`` caps the span count.  A shard
    router fans the verb out and returns its own spans plus every
    shard's.  Payload: ``{"schema": TRACE_SCHEMA_VERSION, "spans":
    [...], "count": n}``.
  - ``ping`` — liveness/round-trip probe.
  - ``swap_index`` — hot-swap the served index from ``path``: in-flight
    queries drain, held admissions resume on the new index, nothing
    accepted is dropped.  On a shard router the swap rolls across every
    shard before admissions resume.
  - ``shutdown`` — graceful server shutdown: stop accepting, drain
    in-flight requests, close connections.
  - ``fetch_hubs`` — shard-internal: the stored prime-PPV records of
    ``hubs`` owned by this shard (:mod:`repro.sharding`).
  - ``fetch_cluster`` — shard-internal: one graph ``cluster``'s stored
    segment.
  - ``shard_info`` — shard-internal: the shard's partition coordinates
    (shard id, owned hubs/clusters, index parameters, global labels).

  The two data verbs carry each record **as it lies in the shard's
  store** — little-endian bytes, base64 text inside the ordinary JSON
  reply — and the router decodes it with the decoder a local read uses:

    =================  ==========================================
    verb               ``result``
    =================  ==========================================
    ``fetch_hubs``     ``{"<hub>": {"entries": n, "borders": m,
                       "payload": "<base64>"}}`` — ``payload`` is
                       ``nodes i64[n] | scores f64[n] | border_hubs
                       i64[m] | border_masses f64[m]``
                       (:func:`repro.storage.ppv_store.decode_records`)
    ``fetch_cluster``  ``{"segment": "<base64>"}`` — the cluster's
                       whole format-2 segment, header included
                       (:func:`repro.storage.residency.decode_segment`)
    =================  ==========================================

  The shard verifies a segment against its manifest (length, CRC-32,
  header) on every read; the router verifies key presence, base64 and
  the header- / count-implied byte length, and refuses anything else as
  ``shard_unavailable``.

* ``trace`` — optional distributed-tracing context on ``query`` /
  ``stream`` (and the shard-internal fetch verbs):
  ``{"id": "<trace id>", "span": "<parent span id>", "schema": 1}``
  (schema = :data:`TRACE_SCHEMA_VERSION`; ``span`` optional).  The
  server continues the trace — child spans for admission, coalescing,
  kernels and shard fetches all carry the same trace id — and the
  finished spans come back via the ``trace`` verb.  Tracing never
  changes what is served.

Responses
---------
``{"v": 1, "id": 7, "ok": true, "result": {...}}`` on success;
``{"v": 1, "id": 7, "ok": false, "error": {"code": "...", "message":
"..."}}`` on failure.  Streaming interleaves
``{"v": 1, "id": 7, "frame": {...}}`` records and terminates with
``{"v": 1, "id": 7, "ok": true, "done": true, "frames": n}``.
Responses to different ids may interleave in completion order; frames
of one stream are ordered.

Error codes (:data:`ERROR_CODES`): ``malformed`` (not JSON / not an
object), ``oversized`` (line longer than the server's limit),
``unsupported_version``, ``unknown_verb``, ``invalid`` (bad or missing
fields, out-of-range nodes, unsupported operation),
``unsupported_family`` (a ``family`` this server does not know, or one
its backend lacks the capability to answer — shard routers refuse
graph-resident families this way), ``unavailable`` (server shutting
down), ``shard_unavailable`` (a shard router lost a shard process
mid-query and could not reconnect), ``internal``.  Which exception
becomes which code is decided in one place, :func:`error_code`, for
every verb.
"""

from __future__ import annotations

import json

from repro.obs.trace import SpanContext
from repro.serving.families import (
    UnsupportedFamilyError,
    available_families,
    ranked_scores,
    resolve_family,
)
from repro.serving.spec import QuerySnapshot, QuerySpec, integer_field

PROTOCOL_VERSION = 1

TRACE_SCHEMA_VERSION = 1
"""Version of the span schema carried by the ``trace`` request field
and returned by the ``trace`` verb (span records are the dicts
:meth:`repro.obs.trace.Span.to_dict` builds)."""

DEFAULT_MAX_LINE_BYTES = 1 << 20
"""Default per-line payload bound (1 MiB) before ``oversized``."""

E_MALFORMED = "malformed"
E_OVERSIZED = "oversized"
E_UNSUPPORTED_VERSION = "unsupported_version"
E_UNKNOWN_VERB = "unknown_verb"
E_INVALID = "invalid"
E_UNSUPPORTED_FAMILY = "unsupported_family"
E_UNAVAILABLE = "unavailable"
E_SHARD_UNAVAILABLE = "shard_unavailable"
E_INTERNAL = "internal"

ERROR_CODES = (
    E_MALFORMED,
    E_OVERSIZED,
    E_UNSUPPORTED_VERSION,
    E_UNKNOWN_VERB,
    E_INVALID,
    E_UNSUPPORTED_FAMILY,
    E_UNAVAILABLE,
    E_SHARD_UNAVAILABLE,
    E_INTERNAL,
)

VERBS = (
    "query",
    "stream",
    "stats",
    "trace",
    "ping",
    "swap_index",
    "shutdown",
    "fetch_hubs",
    "fetch_cluster",
    "shard_info",
)


class ShardUnavailableError(RuntimeError):
    """A shard process died (or dropped its connection) mid-operation.

    Raised by the :mod:`repro.sharding` remote stores after a failed
    reconnect attempt; the TCP front-end maps it to the structured
    :data:`E_SHARD_UNAVAILABLE` error so clients get a prompt, typed
    failure instead of a hang.  Defined here — the bottom of the server
    stack — so both :mod:`repro.server.server` and :mod:`repro.sharding`
    can import it without a cycle.
    """

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(f"shard {shard}: {message}")
        self.shard = shard


class ProtocolError(ValueError):
    """A structured request failure, carried as ``(code, message)``.

    Subclasses ``ValueError`` so a caller without error codes — the
    CLI, which decodes ``query``'s flags through this module — reports
    it at its ordinary ``ValueError`` boundary.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


_ERROR_CODE_BY_TYPE = (
    (ShardUnavailableError, E_SHARD_UNAVAILABLE),
    (UnsupportedFamilyError, E_UNSUPPORTED_FAMILY),
    (
        (FileNotFoundError, NotImplementedError, ValueError, TypeError),
        E_INVALID,
    ),
)


def error_code(error: BaseException) -> str:
    """The wire code of a failure raised while serving any verb.

    First match wins, so subclasses come before their bases
    (:class:`ProtocolError` and ``UnsupportedFamilyError`` are
    ``ValueError`` s).  Anything unlisted is ``internal``.
    """
    if isinstance(error, ProtocolError):
        return error.code
    for types, code in _ERROR_CODE_BY_TYPE:
        if isinstance(error, types):
            return code
    return E_INTERNAL


def encode(obj: dict) -> bytes:
    """One wire line: compact JSON plus the record separator."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def parse_request(line: bytes | str) -> dict:
    """Decode one request line into its object.

    Raises
    ------
    ProtocolError
        ``malformed`` when the line is not a JSON object.  Version and
        verb validation are separate (:func:`check_version`,
        :func:`request_verb`) so transports can extract the request
        ``id`` first and echo it in the error reply.
    """
    try:
        request = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(E_MALFORMED, f"not valid JSON: {error}") from None
    if not isinstance(request, dict):
        raise ProtocolError(E_MALFORMED, "request must be a JSON object")
    return request


def check_version(request: dict) -> None:
    """Refuse versions other than :data:`PROTOCOL_VERSION`.

    Raises
    ------
    ProtocolError
        ``unsupported_version``.
    """
    version = request.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            E_UNSUPPORTED_VERSION,
            f"this server speaks protocol version {PROTOCOL_VERSION}, "
            f"not {version!r}",
        )


def request_verb(request: dict) -> str:
    """The request's verb (default ``"query"``), validated.

    Raises
    ------
    ProtocolError
        ``unknown_verb`` for anything outside :data:`VERBS`.
    """
    verb = request.get("verb", "query")
    if verb not in VERBS:
        raise ProtocolError(
            E_UNKNOWN_VERB,
            f"unknown verb {verb!r}; this server speaks {list(VERBS)}",
        )
    return verb


def family_from_request(request: dict):
    """Resolve the request's query family from its ``family`` field.

    Family-less requests keep their original meaning: ``top_k`` present
    selects ``top_k``, anything else is plain ``ppv``.

    Raises
    ------
    ProtocolError
        ``unsupported_family`` for a family this process has not
        registered.
    """
    name = request.get("family")
    if name is None:
        name = "top_k" if request.get("top_k") is not None else "ppv"
    try:
        return resolve_family(str(name))
    except KeyError:
        raise ProtocolError(
            E_UNSUPPORTED_FAMILY,
            f"unknown query family {name!r}; this server knows "
            f"{list(available_families())}",
        ) from None


def spec_from_request(request: dict) -> QuerySpec:
    """Translate a ``query``/``stream`` request into a :class:`QuerySpec`.

    The request's family (see :func:`family_from_request`) owns the
    field decoding, so registered extension families are reachable over
    the wire with no protocol change.

    Raises
    ------
    ProtocolError
        ``unsupported_family`` for an unknown family; ``invalid`` when
        node/stop/parameter fields are missing or unusable.
    """
    family = family_from_request(request)
    try:
        spec = family.decode_request(request)
    except ProtocolError:
        raise
    except (TypeError, ValueError) as error:
        raise ProtocolError(E_INVALID, str(error)) from None
    trace = trace_from_request(request)
    if trace is not None:
        spec = spec.with_trace(trace)
    return spec


def trace_field(context) -> dict:
    """The wire form of a trace context (``SpanContext`` or ``Span``)
    for a request's ``trace`` field."""
    field = {"id": context.trace_id, "schema": TRACE_SCHEMA_VERSION}
    if context.span_id is not None:
        field["span"] = context.span_id
    return field


def trace_from_request(request: dict) -> "SpanContext | None":
    """The request's trace context, or ``None`` when untraced.

    Raises
    ------
    ProtocolError
        ``invalid`` when the ``trace`` field is present but malformed
        or speaks a different span schema.
    """
    raw = request.get("trace")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ProtocolError(E_INVALID, '"trace" must be a JSON object')
    schema = raw.get("schema", TRACE_SCHEMA_VERSION)
    if schema != TRACE_SCHEMA_VERSION:
        raise ProtocolError(
            E_INVALID,
            f"this server speaks trace schema {TRACE_SCHEMA_VERSION}, "
            f"not {schema!r}",
        )
    trace_id = raw.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        raise ProtocolError(E_INVALID, 'trace needs a string "id"')
    span_id = raw.get("span")
    if span_id is not None and not isinstance(span_id, str):
        raise ProtocolError(E_INVALID, 'trace "span" must be a string')
    return SpanContext(trace_id, span_id)


def top_from_request(request: dict, default: int) -> int:
    """The ranked-scores bound of a request (its ``top`` field).

    Raises
    ------
    ProtocolError
        ``invalid`` when the field is not usable as an integer, or is
        negative (``top_k_nodes(scores, -2)`` would rank every node but
        two: a reply the size of the graph for a 30-byte request).
    """
    try:
        top = integer_field("top", request.get("top", default))
    except TypeError as error:
        raise ProtocolError(E_INVALID, str(error)) from None
    if top < 0:
        raise ProtocolError(E_INVALID, f'"top" must not be negative, got {top}')
    return top


def render_result(spec: QuerySpec, result, top: int) -> dict:
    """The response payload for any family's result shape.

    Dispatches to the spec's family codec; ``ppv``/``top_k`` payloads
    are unchanged from the pre-family protocol (no ``family`` key), new
    families tag their payloads with one.
    """
    return resolve_family(spec.family).encode_result(spec, result, top)


def render_snapshot(snapshot: QuerySnapshot, top: int) -> dict:
    """One streamed frame's payload."""
    frame = {
        "iteration": int(snapshot.iteration),
        "l1_error": float(snapshot.l1_error),
        "frontier_size": int(snapshot.frontier_size),
        "top": ranked_scores(snapshot.scores, snapshot.top_k(top)),
    }
    if snapshot.certified is not None:
        frame["certified"] = bool(snapshot.certified)
    return frame


def ok_response(request_id, result=None, **extra) -> dict:
    """A success record (``result`` omitted when ``None``)."""
    response: dict = {"v": PROTOCOL_VERSION, "id": request_id, "ok": True}
    if result is not None:
        response["result"] = result
    response.update(extra)
    return response


def frame_response(request_id, frame: dict) -> dict:
    """One mid-stream frame record."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "frame": frame}


def error_response(request_id, code: str, message: str) -> dict:
    """A failure record carrying a structured error."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
