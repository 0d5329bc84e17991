"""One wire: ``repro serve`` without ``--tcp`` is a connection into the
same :class:`~repro.server.PPVServer` the TCP path runs.

The golden TCP transcript of ``test_wire_golden.py`` is replayed through
:meth:`PPVServer.serve_connection` — a pair of pipes standing in for
stdin / stdout — on the same seeded graph, and must produce the same
reply **bytes**.  The rest drives the CLI itself: pipelined requests to
end of input, the verbs the old stdio loop refused, and the error paths
that used to be flat ``{"id", "error": "text"}`` records.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import threading
from collections import Counter
from contextlib import contextmanager

import pytest
from test_wire_golden import MAX_LINE_BYTES, RANGE_TRANSCRIPT, TRANSCRIPT

from repro.cli import main
from repro.obs import Observability
from repro.server import PPVServer, ServerConfig, protocol
from repro.serving import PPVService
from repro.storage import save_index


@contextmanager
def piped(server: PPVServer):
    """``(requests, replies)``: the write end of the pipe ``server``
    reads as its one connection, and the read end of the one it answers
    on.  The server must have returned within 30 s of the block's end,
    which closes ``requests`` if the block has not."""
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    failures: list[BaseException] = []

    def run() -> None:
        try:
            with open(request_r, "rb", buffering=0) as source:
                with open(reply_w, "wb", buffering=0) as sink:
                    asyncio.run(server.serve_connection(source, sink))
        except BaseException as error:
            failures.append(error)

    thread = threading.Thread(target=run, name="stdio-server", daemon=True)
    thread.start()
    with open(request_w, "wb", buffering=0) as requests:
        with open(reply_r, "rb") as replies:
            yield requests, replies
            requests.close()
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "serve_connection did not return"
    assert failures == []


@pytest.fixture()
def golden_server(small_social, small_social_index, tmp_path, monkeypatch):
    """The server of ``test_wire_golden.py::wire``, without a listener."""
    monkeypatch.chdir(tmp_path)
    save_index(small_social_index, "golden.fppv")
    with PPVService.open(
        small_social_index,
        graph=small_social,
        delta=1e-4,
        obs=Observability(),
    ) as service:
        yield PPVServer(service, ServerConfig(max_line_bytes=MAX_LINE_BYTES))


def test_golden_tcp_transcript_byte_for_byte(golden_server):
    # One request at a time, as the TCP test sends them: a memory batch
    # of several queries may differ from a batch of one in the last bit.
    with piped(golden_server) as (requests, replies):
        for request, expected in TRANSCRIPT + RANGE_TRANSCRIPT:
            requests.write(request + b"\n")
            assert [replies.readline() for _ in expected] == expected, request
        requests.write(b'{"id":29,"verb":"shutdown"}\n')
        assert replies.readline() == b'{"v":1,"id":29,"ok":true}\n'
        assert replies.readline() == b""  # drained and closed
    counters = golden_server._stats({})["server"]
    assert counters["connections_total"] == 1
    assert counters["connections_open"] == 0


def test_pipelined_control_lines_as_a_multiset(golden_server):
    # Everything but the queries (whose bits depend on how they
    # coalesce), written in one burst; replies come in completion order.
    lines = [
        (request, expected)
        for request, expected in TRANSCRIPT + RANGE_TRANSCRIPT
        if b'"ok":true,"result":{"nodes"' not in expected[0]
        and b"swap_index" not in request
    ]
    burst = b"".join(request + b"\n" for request, _expected in lines)
    with piped(golden_server) as (requests, replies):
        requests.write(burst)
        requests.close()  # end of input: answer what is outstanding
        got = replies.readlines()
    assert Counter(got) == Counter(
        reply for _request, expected in lines for reply in expected
    )
    stream = [line for line in got if b'"id":8,' in line]
    assert stream == dict(TRANSCRIPT)[
        b'{"id":8,"verb":"stream","node":11,"eta":2,"top":2}'
    ]


# --------------------------------------------------------------------- #
# Through the CLI


@pytest.fixture()
def deployment(tmp_path):
    graph, index = tmp_path / "graph.txt", tmp_path / "graph.fppv"
    assert main(["generate", "social", "--nodes", "300", "--seed", "1",
                 "--out", str(graph)]) == 0
    assert main(["index", str(graph), "--hubs", "25", "--out", str(index)]) == 0
    return [str(graph), str(index)]


def serve(deployment, tmp_path, capsys, lines, *flags):
    """Exit status, reply records and stderr of ``repro serve
    --requests`` over ``lines``."""
    requests = tmp_path / "requests.jsonl"
    requests.write_bytes(b"".join(line + b"\n" for line in lines))
    capsys.readouterr()
    code = main(["serve", *deployment, "--requests", str(requests), *flags])
    captured = capsys.readouterr()
    return code, [json.loads(l) for l in captured.out.splitlines()], captured.err


def test_n_pipelined_queries_then_eof(deployment, tmp_path, capsys):
    lines = [b'{"id":%d,"node":%d}' % (i, i) for i in range(100)]
    code, replies, err = serve(
        deployment, tmp_path, capsys, lines, "--max-inflight", "7"
    )
    assert code == 0
    assert sorted(reply["id"] for reply in replies) == list(range(100))
    assert all(reply["ok"] for reply in replies)
    assert "served 100 requests" in err
    # --max-inflight bounds this transport too: no drain could coalesce
    # more than the 7 requests admitted at once.
    assert 1 <= int(re.search(r"largest (\d+)", err).group(1)) <= 7


def test_stream_yields_frames_then_done(deployment, tmp_path, capsys):
    code, replies, _err = serve(
        deployment, tmp_path, capsys,
        [b'{"id":"s","verb":"stream","node":5,"eta":3,"top":2}'],
    )
    assert code == 0
    *frames, done = replies
    assert len(frames) >= 2
    assert [f["frame"]["iteration"] for f in frames] == list(range(len(frames)))
    errors = [frame["frame"]["l1_error"] for frame in frames]
    assert errors == sorted(errors, reverse=True)  # Eq. 6 bound shrinks
    assert done == {
        "v": 1, "id": "s", "ok": True, "done": True, "frames": len(frames),
    }


def test_shutdown_acknowledges_and_exits(deployment, tmp_path, capsys):
    code, replies, err = serve(
        deployment, tmp_path, capsys,
        [b'{"id":1,"node":3}', b'{"id":2,"verb":"shutdown"}'],
    )
    assert code == 0
    by_id = {reply["id"]: reply for reply in replies}
    assert by_id[2] == {"v": 1, "id": 2, "ok": True}
    assert by_id[1]["ok"]  # accepted before the shutdown, so answered
    assert "served 1 requests" in err


def test_oversized_line_is_answered_and_the_next_served(
    deployment, tmp_path, capsys
):
    code, replies, _err = serve(
        deployment, tmp_path, capsys,
        [b'{"id":1,"pad":"' + b"x" * (1 << 20) + b'"}', b'{"id":2,"node":3}'],
    )
    assert code == 0
    by_id = {reply["id"]: reply for reply in replies}
    assert by_id[None]["error"]["code"] == "oversized"
    assert by_id[2]["result"]["nodes"] == [3]


def test_malformed_line_has_a_null_id(deployment, tmp_path, capsys):
    code, replies, _err = serve(
        deployment, tmp_path, capsys, [b"not json", b'{"id":1,"verb":"ping"}']
    )
    assert code == 0
    assert replies[0]["id"] is None
    assert replies[0]["error"]["code"] == "malformed"
    assert replies[1]["result"] == {"pong": True}


def test_every_verb_is_answered(deployment, tmp_path, capsys):
    # The three shard verbs are *answered* too: a refusal with a code,
    # as over TCP, not "only available over --tcp".
    lines = [
        b'{"id":"query","node":3}',
        b'{"id":"stream","verb":"stream","node":3,"eta":0}',
        b'{"id":"stats","verb":"stats"}',
        b'{"id":"trace","verb":"trace"}',
        b'{"id":"ping","verb":"ping"}',
        b'{"id":"swap_index","verb":"swap_index","path":"%s"}'
        % deployment[1].encode(),
        b'{"id":"fetch_hubs","verb":"fetch_hubs","hubs":[1]}',
        b'{"id":"fetch_cluster","verb":"fetch_cluster","cluster":0}',
        b'{"id":"shard_info","verb":"shard_info"}',
        b'{"id":"shutdown","verb":"shutdown"}',
    ]
    code, replies, _err = serve(deployment, tmp_path, capsys, lines)
    assert code == 0
    final = {r["id"]: r for r in replies if "frame" not in r}
    assert set(final) == set(protocol.VERBS)
    for verb, reply in final.items():
        if verb in ("fetch_hubs", "fetch_cluster", "shard_info"):
            assert reply["error"]["code"] == "invalid"
            assert "only shard processes do" in reply["error"]["message"]
        else:
            assert reply["ok"] is True, reply
    assert final["stats"]["result"]["server"]["connections_open"] == 1
