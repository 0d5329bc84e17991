"""Golden wire transcripts: the byte-level contract of the TCP front-end.

One :class:`~repro.server.PPVServer` (memory backend, seeded graph,
cache on, an explicit ``Observability()``) is driven over one raw
connection through every verb and every deterministically reachable
error code, and each reply is compared **byte for byte** to a literal.
Only the ``stats`` reply is masked before comparison — ``pid``,
``uptime_seconds`` (and the uptime gauge) and histogram bucket
counts/totals, which depend on the process and the clock.

The literals were recorded before the front-end was rewritten around a
verb table and one counter store, so this file pins that the rewrite
left the wire unchanged; the only additions since are the three
``repro_server_{connections,frames,swaps}_total`` series at the end of
``metrics``, and the last digit of seven served floats, re-recorded
when the memory backend began serving the scalar loop's bits instead of
a reassociated matrix product's (each moved by at most one ulp), and
``remaining_mass`` / ``upper_bound`` of the ``hitting`` reply,
re-recorded when the family's pushes moved onto ``prime_push_many`` and
the dropped mass became a conservation remainder (each moved by 2e-16;
``value`` and ``history`` kept their bits).
``unavailable``, ``shard_unavailable`` and ``internal``
need a race or a dying process and are covered in ``test_server.py`` /
``test_sharding.py`` instead.

A third, short transcript on a connection of its own pins the range
refusals at the protocol boundary (negative ``top`` / ``eta``) and at
admission (a ``hitting`` push deeper than the served bound), so the
first one's literals and counters stay as recorded.

The three shard-internal data verbs are *refused* by that memory
server; their success replies are pinned by a second transcript against
a shard process's engine over a tiny hand-built shard directory, whose
stored records are spelled out next to the base64 the wire carries.
"""

from __future__ import annotations

import base64
import json
import socket
import struct

import numpy as np
import pytest

from repro import from_edges
from repro.core.index import PPVIndex
from repro.core.prime import PrimePPV
from repro.obs import Observability
from repro.server import PPVServer, ServerConfig, protocol
from repro.serving import PPVService
from repro.sharding import ShardEngine, partition_index, shard_dir_name
from repro.storage import ClusterAssignment, save_index

MAX_LINE_BYTES = 256

PPV_7 = (
    b'{"nodes":[7],"iterations":2,"l1_error":0.07073900127735877,'
    b'"top":[[7,0.20112166241906326],[9,0.08580810369919589],'
    b"[10,0.07723669932411598]]}"
)


def _ok(request_id: int, result: bytes) -> bytes:
    return b'{"v":1,"id":%d,"ok":true,"result":%s}\n' % (request_id, result)


def _error(request_id, code: bytes, message: bytes) -> bytes:
    return (
        b'{"v":1,"id":%s,"ok":false,"error":{"code":"%s","message":"%s"}}\n'
        % (json.dumps(request_id).encode(), code, message)
    )


# (request line, expected reply lines) in the order they are sent.
TRANSCRIPT = [
    (b'{"id":1,"verb":"ping"}', [_ok(1, b'{"pong":true}')]),
    (b'{"id":2,"node":7,"eta":2,"top":3}', [_ok(2, PPV_7)]),
    # The repeat is a popularity-cache hit: same bytes.
    (b'{"id":3,"node":7,"eta":2,"top":3}', [_ok(3, PPV_7)]),
    (
        b'{"id":4,"nodes":[3,9],"weights":[2,1],"top":3}',
        [
            _ok(
                4,
                b'{"nodes":[3,9],"iterations":2,'
                b'"l1_error":0.0793141173099365,'
                b'"top":[[3,0.15228367253834],[9,0.08773256595748888],'
                b"[7,0.053751729857711775]]}",
            )
        ],
    ),
    (
        b'{"id":5,"node":7,"top_k":3,"budget":4}',
        [
            _ok(
                5,
                b'{"nodes":[7],"iterations":4,'
                b'"l1_error":0.03192908669465744,"certified":false,'
                b'"top":[[7,0.20126645031476856],[9,0.08630887057283353],'
                b"[10,0.0775209568387256]]}",
            )
        ],
    ),
    (
        b'{"id":6,"node":7,"family":"hitting","target":3,"max_levels":2}',
        [
            _ok(
                6,
                b'{"family":"hitting","nodes":[7],"target":3,'
                b'"value":0.2756171883512654,'
                b'"remaining_mass":0.060347875255851745,'
                b'"upper_bound":0.33596506360711714,"iterations":2,'
                b'"history":[0.27354165110907025,0.2752185920697923,'
                b"0.2756171883512654]}",
            )
        ],
    ),
    (
        b'{"id":7,"node":7,"family":"reachability","max_length":3,"top":3}',
        [
            _ok(
                7,
                b'{"family":"reachability","nodes":[7],"max_length":3,'
                b'"alpha":0.15,"truncation_bound":0.5220062499999999,'
                b'"top":[[7,0.1751181640625],[9,0.05664884765625],'
                b"[10,0.05102689453125]]}",
            )
        ],
    ),
    (
        b'{"id":8,"verb":"stream","node":11,"eta":2,"top":2}',
        [
            b'{"v":1,"id":8,"frame":{"iteration":0,'
            b'"l1_error":0.22406481560998792,"frontier_size":37,'
            b'"top":[[11,0.20762039041273406],[10,0.05992106855071845]]}}\n',
            b'{"v":1,"id":8,"frame":{"iteration":1,'
            b'"l1_error":0.1268730606366295,"frontier_size":40,'
            b'"top":[[11,0.20863183729891654],[10,0.06129171162142282]]}}\n',
            b'{"v":1,"id":8,"frame":{"iteration":2,'
            b'"l1_error":0.0759364490340152,"frontier_size":40,'
            b'"top":[[11,0.20895065177439115],[10,0.06162450843703032]]}}\n',
            b'{"v":1,"id":8,"ok":true,"done":true,"frames":3}\n',
        ],
    ),
    (
        b"not json",
        [
            _error(
                None,
                b"malformed",
                b"not valid JSON: Expecting value: line 1 column 1 (char 0)",
            )
        ],
    ),
    (
        b"[1,2]",
        [_error(None, b"malformed", b"request must be a JSON object")],
    ),
    (
        b'{"id":11,"pad":"' + b"x" * 300 + b'"}',
        [_error(None, b"oversized", b"request line exceeds 256 bytes")],
    ),
    (
        b'{"v":2,"id":12,"verb":"ping"}',
        [
            _error(
                12,
                b"unsupported_version",
                b"this server speaks protocol version 1, not 2",
            )
        ],
    ),
    (
        b'{"id":13,"verb":"dance"}',
        [
            _error(
                13,
                b"unknown_verb",
                b"unknown verb 'dance'; this server speaks ['query', "
                b"'stream', 'stats', 'trace', 'ping', 'swap_index', "
                b"'shutdown', 'fetch_hubs', 'fetch_cluster', 'shard_info']",
            )
        ],
    ),
    (
        b'{"id":14,"verb":"query"}',
        [_error(14, b"invalid", rb"request needs \"node\" or \"nodes\"")],
    ),
    (
        b'{"id":15,"node":4000}',
        [_error(15, b"invalid", b"query node 4000 out of range")],
    ),
    (
        b'{"id":16,"node":7,"top":"x"}',
        [_error(16, b"invalid", rb"\"top\" must be an integer, not 'x'")],
    ),
    (
        b'{"id":17,"verb":"stream","nodes":[3,9]}',
        [
            _error(
                17,
                b"invalid",
                b"streaming is limited to single-node specs; decompose "
                b"multi-node sets client-side via the Linearity Theorem",
            )
        ],
    ),
    (
        b'{"id":18,"node":7,"family":"nope"}',
        [
            _error(
                18,
                b"unsupported_family",
                b"unknown query family 'nope'; this server knows "
                b"['hitting', 'ppv', 'reachability', 'top_k']",
            )
        ],
    ),
    (
        b'{"id":19,"verb":"fetch_hubs","hubs":[1]}',
        [
            _error(
                19,
                b"invalid",
                b"the 'memory' backend does not serve 'fetch_hubs'; "
                b"only shard processes do",
            )
        ],
    ),
    (
        b'{"id":20,"verb":"fetch_cluster","cluster":0}',
        [
            _error(
                20,
                b"invalid",
                b"the 'memory' backend does not serve 'fetch_cluster'; "
                b"only shard processes do",
            )
        ],
    ),
    (
        b'{"id":21,"verb":"shard_info"}',
        [
            _error(
                21,
                b"invalid",
                b"the 'memory' backend does not serve 'shard_info'; "
                b"only shard processes do",
            )
        ],
    ),
    (
        b'{"id":22,"verb":"trace","trace_id":"none"}',
        [_ok(22, b'{"schema":1,"spans":[],"count":0}')],
    ),
    (
        b'{"id":23,"verb":"trace","limit":0}',
        [_error(23, b"invalid", rb"\"limit\" must be a positive integer")],
    ),
    (
        b'{"id":24,"verb":"swap_index"}',
        [_error(24, b"invalid", rb"swap_index needs a \"path\"")],
    ),
    (
        b'{"id":25,"verb":"swap_index","path":"missing.fppv"}',
        [_error(25, b"invalid", b"no index at 'missing.fppv'")],
    ),
    (
        b'{"id":26,"verb":"swap_index","path":"golden.fppv"}',
        [_ok(26, b'{"swapped":true,"path":"golden.fppv"}')],
    ),
    # The swap dropped the cache; the recomputed answer is the same.
    (b'{"id":27,"node":7,"eta":2,"top":3}', [_ok(27, PPV_7)]),
]

_LATENCY_BOUNDS = b"[0.001,0.003,0.01,0.03,0.1,0.3,1.0,3.0]"


def _masked_latency(count: int) -> bytes:
    return (
        b'{"bounds":%s,"counts":[0,0,0,0,0,0,0,0,0],"count":%d,'
        b'"total_seconds":0}' % (_LATENCY_BOUNDS, count)
    )


def _metric(name, kind, help_text, samples, labelnames=b"") -> bytes:
    return b'"%s":{"type":"%s","help":"%s","labelnames":[%s],"samples":[%s]}' % (
        name, kind, help_text, labelnames, samples,
    )


def _value(value: int, label: bytes = b"") -> bytes:
    return b'{"labels":[%s],"value":%d}' % (label, value)


def _hist(histogram: bytes, label: bytes = b"") -> bytes:
    return b'{"labels":[%s],"histogram":%s}' % (label, histogram)


EXPECTED_METRICS = [
    _metric(
        b"repro_batch_size", b"histogram",
        b"Jobs coalesced into one scheduler drain.",
        _hist(
            b'{"bounds":[1,2,4,8,16,32,64,128],'
            b'"counts":[0,0,0,0,0,0,0,0,0],"count":8,"total_seconds":0}'
        ),
    ),
    _metric(
        b"repro_coalesce_delay_seconds", b"histogram",
        b"Seconds each drain held its batch open for stragglers.",
        _hist(
            b'{"bounds":[0.0001,0.0003,0.001,0.003,0.01,0.03,0.1],'
            b'"counts":[0,0,0,0,0,0,0,0],"count":8,"total_seconds":0}'
        ),
    ),
    _metric(
        b"repro_queue_depth", b"gauge",
        b"Jobs admitted but not yet popped into a drain.", _value(0),
    ),
    _metric(
        b"repro_in_flight", b"gauge",
        b"Jobs inside a drain that has not finished executing.", _value(0),
    ),
    _metric(
        b"repro_batches_served_total", b"counter",
        b"Scheduler drains executed.", _value(8),
    ),
    _metric(
        b"repro_largest_batch", b"gauge", b"Largest drain so far.", _value(1)
    ),
    _metric(
        b"repro_queries_submitted_total", b"counter",
        b"Queries admitted, by family.",
        b",".join(
            [
                _value(1, b'"hitting"'),
                _value(5, b'"ppv"'),
                _value(1, b'"reachability"'),
                _value(1, b'"top_k"'),
            ]
        ),
        b'"family"',
    ),
    _metric(
        b"repro_request_latency_seconds", b"histogram",
        b"Submit-to-resolve latency over every resolved handle.",
        _hist(_masked_latency(8)),
    ),
    _metric(
        b"repro_family_latency_seconds", b"histogram",
        b"Submit-to-resolve latency, by family.",
        b",".join(
            [
                _hist(_masked_latency(1), b'"hitting"'),
                _hist(_masked_latency(5), b'"ppv"'),
                _hist(_masked_latency(1), b'"reachability"'),
                _hist(_masked_latency(1), b'"top_k"'),
            ]
        ),
        b'"family"',
    ),
    _metric(
        b"repro_cache_hits_total", b"counter", b"Result-cache hits.",
        _value(1),
    ),
    _metric(
        b"repro_cache_misses_total", b"counter", b"Result-cache misses.",
        _value(7),
    ),
    _metric(
        b"repro_cache_evictions_total", b"counter",
        b"Result-cache evictions.", _value(0),
    ),
    _metric(
        b"repro_cache_entries", b"gauge", b"Results currently cached.",
        _value(1),
    ),
    _metric(
        b"repro_server_requests_total", b"counter",
        b"Request lines parsed by the TCP front-end.", _value(27),
    ),
    _metric(
        b"repro_server_responses_total", b"counter",
        b"Responses written by the TCP front-end.", _value(11),
    ),
    _metric(
        b"repro_server_errors_total", b"counter",
        b"Structured errors returned, by code.",
        b",".join(
            [
                _value(10, b'"invalid"'),
                _value(2, b'"malformed"'),
                _value(1, b'"oversized"'),
                _value(1, b'"unknown_verb"'),
                _value(1, b'"unsupported_family"'),
                _value(1, b'"unsupported_version"'),
            ]
        ),
        b'"code"',
    ),
    _metric(
        b"repro_server_connections_open", b"gauge",
        b"Client connections currently open.", _value(1),
    ),
    _metric(
        b"repro_server_uptime_seconds", b"gauge",
        b"Seconds since this server object was created.", _value(0),
    ),
    # The three below were added when the registry became the
    # front-end's counter store; everything above predates it.
    _metric(
        b"repro_server_connections_total", b"counter",
        b"Client connections accepted.", _value(1),
    ),
    _metric(
        b"repro_server_frames_total", b"counter",
        b"Mid-stream frames written by the stream verb.", _value(3),
    ),
    _metric(
        b"repro_server_swaps_total", b"counter",
        b"Index swaps completed through the swap_index verb.", _value(1),
    ),
]

EXPECTED_STATS = _ok(
    28,
    b'{"server":{"connections_total":1,"connections_open":1,'
    b'"requests_total":27,"responses_total":11,"frames_total":3,'
    b'"errors_total":16,"errors_by_code":{"malformed":2,"oversized":1,'
    b'"unsupported_version":1,"unknown_verb":1,"invalid":10,'
    b'"unsupported_family":1},"swaps_total":1},'
    b'"service":{"submitted":8,"batches":8,"largest_batch":1,'
    b'"cache_hits":1,"cache_misses":7,"cache_entries":1,"queue_depth":0,'
    b'"in_flight":0,"latency":' + _masked_latency(8) + b',"families":{'
    b'"ppv":{"submitted":5,"latency":' + _masked_latency(5) + b"},"
    b'"top_k":{"submitted":1,"latency":' + _masked_latency(1) + b"},"
    b'"hitting":{"submitted":1,"latency":' + _masked_latency(1) + b"},"
    b'"reachability":{"submitted":1,"latency":' + _masked_latency(1)
    + b"}}},"
    b'"worker":{"index":0,"pid":0},"backend":"memory",'
    b'"families":["hitting","ppv","reachability","top_k"],'
    b'"uptime_seconds":0,"version":"1.1.0","pid":0,'
    b'"metrics":{' + b",".join(EXPECTED_METRICS) + b"}}",
)


def _mask_histogram(histogram: dict) -> None:
    histogram["counts"] = [0] * len(histogram["counts"])
    histogram["total_seconds"] = 0


def _mask_stats(line: bytes) -> bytes:
    """Zero what depends on the process and the clock, nothing else."""
    message = json.loads(line)
    result = message["result"]
    result["pid"] = result["worker"]["pid"] = 0
    result["uptime_seconds"] = 0
    _mask_histogram(result["service"]["latency"])
    for family in result["service"]["families"].values():
        _mask_histogram(family["latency"])
    metrics = result["metrics"]
    metrics["repro_server_uptime_seconds"]["samples"][0]["value"] = 0
    for metric in metrics.values():
        for sample in metric["samples"]:
            if "histogram" in sample:
                _mask_histogram(sample["histogram"])
    return protocol.encode(message)


@pytest.fixture()
def wire(small_social, small_social_index, tmp_path, monkeypatch):
    """(service, raw socket, line reader) against one fresh server; the
    working directory holds ``golden.fppv`` so swap replies carry a
    relative, run-independent path."""
    monkeypatch.chdir(tmp_path)
    save_index(small_social_index, "golden.fppv")
    with PPVService.open(
        small_social_index,
        graph=small_social,
        delta=1e-4,
        obs=Observability(),
    ) as service:
        server = PPVServer(service, ServerConfig(max_line_bytes=MAX_LINE_BYTES))
        with server.background() as address:
            with socket.create_connection(address, timeout=30) as sock:
                with sock.makefile("rb") as reader:
                    yield service, sock, reader


def test_every_verb_and_error_code_byte_for_byte(wire):
    service, sock, reader = wire
    for request, expected in TRANSCRIPT:
        sock.sendall(request + b"\n")
        replies = [reader.readline() for _ in expected]
        assert replies == expected, request

    # Let the last drain's bookkeeping land before reading the counters.
    service.flush()
    sock.sendall(b'{"id":28,"verb":"stats"}\n')
    assert _mask_stats(reader.readline()) == EXPECTED_STATS

    sock.sendall(b'{"id":29,"verb":"shutdown"}\n')
    assert reader.readline() == b'{"v":1,"id":29,"ok":true}\n'
    assert reader.readline() == b""  # drained and closed, nothing extra


# Range refusals at the protocol boundary, on a connection of their own
# so the transcript (and the counters) above stay as recorded.  A
# negative "top" used to be served as ``top_k_nodes(scores, -2)`` — every
# node but two: 398 ranked pairs here for a 30-byte request — and a
# negative "eta" as ``StopAfterIterations(-1)``.
RANGE_TRANSCRIPT = [
    (
        b'{"id":1,"node":3,"top":-2}',
        [_error(1, b"invalid", rb"\"top\" must not be negative, got -2")],
    ),
    (
        b'{"id":2,"node":3,"eta":-1}',
        [_error(2, b"invalid", rb"\"eta\" must not be negative, got -1")],
    ),
    (
        b'{"id":3,"verb":"stream","node":3,"top":-1}',
        [_error(3, b"invalid", rb"\"top\" must not be negative, got -1")],
    ),
    # Zero is a value, not a refusal: no ranked scores, same header.
    (
        b'{"id":4,"node":7,"eta":0,"top":0}',
        [
            _ok(
                4,
                b'{"nodes":[7],"iterations":0,'
                b'"l1_error":0.2169760855128059,"top":[]}',
            )
        ],
    ),
    # Refused at admission, before any push: beta = 0.95 at the default
    # epsilon is a 409-round push from each of up to num_hubs + 1 sources.
    (
        b'{"id":5,"node":3,"family":"hitting","target":7,"beta":0.95}',
        [
            _error(
                5,
                b"invalid",
                b"beta=0.95 with epsilon=1e-09 needs a 409-round push; at "
                b"most 256 are served",
            )
        ],
    ),
]


def test_negative_top_and_eta_are_refused_byte_for_byte(wire):
    _service, sock, reader = wire
    for request, expected in RANGE_TRANSCRIPT:
        sock.sendall(request + b"\n")
        replies = [reader.readline() for _ in expected]
        assert replies == expected, request


# --------------------------------------------------------------------- #
# The shard data verbs, served

# Stored records of the hand-built shard below, as they lie on disk
# (little-endian) — and so as ``fetch_hubs`` / ``fetch_cluster`` ship them.
HUB_1_RECORD = struct.pack(
    "<3q3dqd", 0, 1, 2, 0.5, 0.25, 0.125, 2, 0.375
)  # nodes | scores | border_hubs | border_masses
HUB_2_RECORD = struct.pack("<qd", 2, 0.15)  # one entry, no border
CLUSTER_0_SEGMENT = struct.pack(
    "<2Q2q3q3d3i", 2, 3, 0, 1, 0, 2, 3, 0.5, 0.5, 1.0, 1, 2, 0
)  # members, edges | nodes | offsets | probs | targets
CLUSTER_1_SEGMENT = struct.pack("<2Qq2q", 1, 0, 2, 0, 0)  # node 2: no edge

SHARD_TRANSCRIPT = [
    (
        b'{"id":1,"verb":"shard_info"}',
        _ok(
            1,
            b'{"shard":0,"num_shards":1,"num_nodes":3,"num_clusters":2,'
            b'"alpha":0.15,"epsilon":1e-08,"clip":0.0,"cluster_shards":[0,0],'
            b'"clusters":[0,1],"hubs":[1,2],"labels":[0,0,1]}',
        ),
    ),
    (
        b'{"id":2,"verb":"fetch_hubs","hubs":[2,1]}',
        _ok(
            2,
            b'{"1":{"entries":3,"borders":1,"payload":"AAAAAAAAAAABAAAAAAAAAAI'
            b"AAAAAAAAAAAAAAAAA4D8AAAAAAADQPwAAAAAAAMA/AgAAAAAAAAAAAAAAAADYPw"
            b'=="},"2":{"entries":1,"borders":0,'
            b'"payload":"AgAAAAAAAAAzMzMzMzPDPw=="}}',
        ),
    ),
    (
        b'{"id":3,"verb":"fetch_cluster","cluster":0}',
        _ok(
            3,
            b'{"segment":"AgAAAAAAAAADAAAAAAAAAAAAAAAAAAAAAQAAAAAAAAAAAAAAAAAA'
            b"AAIAAAAAAAAAAwAAAAAAAAAAAAAAAADgPwAAAAAAAOA/AAAAAAAA8D8BAAAAAgAA"
            b'AAAAAAA="}',
        ),
    ),
    (
        b'{"id":4,"verb":"fetch_cluster","cluster":1}',
        _ok(
            4,
            b'{"segment":"AQAAAAAAAAAAAAAAAAAAAAIAAAAAAAAAAAAAAAAAAAAAAAAAAAAA'
            b'AA=="}',
        ),
    ),
]


def ints(*values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def reals(*values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def test_shard_data_verbs_byte_for_byte(tmp_path):
    graph = from_edges([(0, 1), (0, 2), (1, 0)], num_nodes=3)
    # Hub entries with dyadic values, not computed ones: the reply bytes
    # depend on nothing but the store formats and the wire.
    index = PPVIndex(
        alpha=0.15, epsilon=1e-8, clip=0.0,
        hub_mask=np.array([False, True, True]),
        entries={
            1: PrimePPV(1, ints(0, 1, 2), reals(0.5, 0.25, 0.125),
                        ints(2), reals(0.375)),
            2: PrimePPV(2, ints(2), reals(0.15), ints(), reals()),
        },
    )
    assignment = ClusterAssignment(
        anchors=np.array([0, 2]), labels=np.array([0, 0, 1])
    )
    partition_index(graph, index, 1, tmp_path, assignment=assignment)
    engine = ShardEngine(tmp_path / shard_dir_name(0))
    with PPVService(engine, cache_size=0) as service:
        with PPVServer(service).background() as address:
            with socket.create_connection(address, timeout=30) as sock:
                with sock.makefile("rb") as reader:
                    replies = []
                    for request, expected in SHARD_TRANSCRIPT:
                        sock.sendall(request + b"\n")
                        replies.append(reader.readline())
                        assert replies[-1] == expected, request
    # The base64 in those literals is the stored record, verbatim.
    hubs = json.loads(replies[1])["result"]
    assert base64.b64decode(hubs["1"]["payload"]) == HUB_1_RECORD
    assert base64.b64decode(hubs["2"]["payload"]) == HUB_2_RECORD
    for reply, segment in ((replies[2], CLUSTER_0_SEGMENT),
                           (replies[3], CLUSTER_1_SEGMENT)):
        assert base64.b64decode(json.loads(reply)["result"]["segment"]) == segment
