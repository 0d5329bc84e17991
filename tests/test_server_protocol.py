"""Unit behaviour of the wire protocol (:mod:`repro.server.protocol`):
request parsing/validation, spec translation, and rendering."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.query import (
    StopAfterIterations,
    StopAfterTime,
    StopAtL1Error,
)
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.serving.families import resolve_family
from repro.serving.spec import DEFAULT_TOPK_BUDGET, QuerySpec


class TestParseRequest:
    def test_round_trip(self):
        request = protocol.parse_request(b'{"id": 1, "node": 7}')
        assert request == {"id": 1, "node": 7}

    @pytest.mark.parametrize(
        "line",
        [b"{broken", b"", b"null", b"42", b'"text"', b"[1, 2]", b"true"],
    )
    def test_malformed_lines(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_request(line)
        assert excinfo.value.code == protocol.E_MALFORMED

    def test_invalid_utf8_is_malformed(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_request(b'\xff\xfe{"id": 1}')
        assert excinfo.value.code == protocol.E_MALFORMED

    def test_version_check_accepts_current_and_default(self):
        protocol.check_version({"v": protocol.PROTOCOL_VERSION})
        protocol.check_version({})  # version omitted: assumed current

    @pytest.mark.parametrize("version", [0, 2, "1", None])
    def test_version_check_refuses_others(self, version):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.check_version({"v": version})
        assert excinfo.value.code == protocol.E_UNSUPPORTED_VERSION

    def test_protocol_error_is_a_value_error(self):
        # `repro query` decodes its flags through the protocol; the
        # subclassing lets cli.main's ValueError boundary report them.
        assert issubclass(ProtocolError, ValueError)


class TestRequestVerb:
    def test_defaults_to_query(self):
        assert protocol.request_verb({}) == "query"

    @pytest.mark.parametrize("verb", list(protocol.VERBS))
    def test_known_verbs(self, verb):
        assert protocol.request_verb({"verb": verb}) == verb

    @pytest.mark.parametrize("verb", ["frobnicate", "", 7, None])
    def test_unknown_verbs(self, verb):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.request_verb({"verb": verb})
        assert excinfo.value.code == protocol.E_UNKNOWN_VERB


class TestOneVerbList:
    """The verb list is written in five places; adding a verb to one and
    not the others fails here."""

    # What each verb's PPVClient method is called with (default: nothing).
    ARGS = {"query": (7,), "stream": (7,), "swap_index": ("new.fppv",),
            "fetch_hubs": ([1],), "fetch_cluster": (0,)}

    def test_server_table_docstring_and_readme(self):
        import re
        from pathlib import Path
        from types import SimpleNamespace

        from repro.obs import Observability
        from repro.server import PPVServer

        server = PPVServer(SimpleNamespace(obs=Observability()))
        assert sorted(server._verbs) == sorted(protocol.VERBS)
        bulleted = re.findall(r"^  - ``(\w+)`` — ", protocol.__doc__, re.M)
        assert tuple(bulleted) == protocol.VERBS
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        listed = re.findall(r"^- `(\w+)` — ", readme, re.M)
        assert tuple(listed) == protocol.VERBS

    @pytest.mark.parametrize("verb", list(protocol.VERBS))
    def test_client_method_sends_exactly_that_verb(self, verb):
        from repro.server import PPVClient

        sent = []

        class Recorder(PPVClient):
            def __init__(self):  # no socket: record instead of sending
                self._next_id = 0

            def send_raw(self, payload):
                sent.append(json.loads(payload))

            def read_message(self):
                return {"id": sent[-1]["id"], "ok": True, "result": {}}

        name = {"shutdown": "shutdown_server"}.get(verb, verb)
        outcome = getattr(Recorder(), name)(*self.ARGS.get(verb, ()))
        if verb == "stream":
            assert list(outcome) == []
        assert [body["verb"] for body in sent] == [verb]


class TestSpecFromRequest:
    def test_single_node_defaults(self):
        spec = protocol.spec_from_request({"node": 7})
        assert spec.nodes == (7,)
        assert spec.resolved_stop() == StopAfterIterations(2)

    def test_eta_and_error_and_time_conditions(self):
        spec = protocol.spec_from_request(
            {"node": 3, "eta": 5, "target_error": 0.01, "time_limit": 0.5}
        )
        conditions = spec.stop.conditions
        assert StopAfterIterations(5) in conditions
        assert StopAtL1Error(0.01) in conditions
        assert StopAfterTime(0.5) in conditions

    def test_weighted_node_set(self):
        spec = protocol.spec_from_request(
            {"nodes": [3, 9], "weights": [2, 1]}
        )
        assert spec.nodes == (3, 9)
        np.testing.assert_allclose(spec.weight_array(), [2 / 3, 1 / 3])

    def test_top_k_with_default_budget(self):
        spec = protocol.spec_from_request({"node": 1, "top_k": 10})
        assert spec.top_k == 10
        assert spec.top_k_budget == DEFAULT_TOPK_BUDGET

    def test_top_k_budget(self):
        spec = protocol.spec_from_request(
            {"node": 1, "top_k": 10, "budget": 4}
        )
        assert spec.top_k_budget == 4

    @pytest.mark.parametrize(
        "request_body",
        [
            {},  # no node at all
            {"node": "seven"},
            {"nodes": []},
            {"node": 1, "eta": "fast"},
            {"node": 1, "top_k": 0},
            {"node": 1, "top_k": 5, "budget": -1},
            {"nodes": [1, 2], "weights": [1, -2]},
            # Integers only: no bool, string, or float stands in for one.
            {"node": True},
            {"node": "7"},
            {"nodes": [5.5, 6]},
            {"node": 5.9},
            {"node": 5.0},
            {"node": 1, "eta": 2.5},
            {"node": 1, "top": True},
        ],
    )
    def test_invalid_requests(self, request_body):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.spec_from_request(request_body)
            protocol.top_from_request(request_body, 10)
        assert excinfo.value.code == protocol.E_INVALID

    @pytest.mark.parametrize(
        "request_body,field,value",
        [
            ({"node": True}, "node", True),
            ({"node": "7"}, "node", "7"),
            ({"node": 5.0}, "node", 5.0),
            ({"nodes": [6, 5.5]}, "nodes", 5.5),
            ({"node": 1, "eta": 2.5}, "eta", 2.5),
            ({"node": 1, "top_k": True}, "top_k", True),
            ({"node": 1, "top_k": 3, "budget": "4"}, "budget", "4"),
            ({"node": 1, "top": 3.0}, "top", 3.0),
            ({"node": 1, "family": "hitting", "target": True}, "target", True),
            (
                {"node": 1, "family": "hitting", "target": 2,
                 "max_levels": 4.5},
                "max_levels",
                4.5,
            ),
            (
                {"node": 1, "family": "reachability", "max_length": "3"},
                "max_length",
                "3",
            ),
        ],
    )
    def test_integer_fields_name_the_field(self, request_body, field, value):
        # Each is refused where it is decoded: at parse time, or (the
        # hitting / reachability parameters) when the family validates
        # the spec; a TypeError there is "invalid" on the wire too.
        with pytest.raises((ProtocolError, TypeError)) as excinfo:
            spec = protocol.spec_from_request(request_body)
            protocol.top_from_request(request_body, 10)
            resolve_family(spec.family).validate(spec, None)
        assert protocol.error_code(excinfo.value) == protocol.E_INVALID
        assert str(excinfo.value) == (
            f'"{field}" must be an integer, not {value!r}'
        )

    @pytest.mark.parametrize(
        "line,field",
        [
            (b'{"nodes":[5,6],"weights":[NaN,1]}', "weights"),
            (b'{"nodes":[5,6],"weights":[1,Infinity]}', "weights"),
            # Each weight is finite, their sum is not.
            (b'{"nodes":[5,6],"weights":[1e308,1e308]}', "weights"),
            (b'{"nodes":[5,6],"weights":["1","2"]}', "weights"),
            (b'{"nodes":[5,6],"weights":[true,1]}', "weights"),
            (b'{"nodes":[5,6],"top_k":3,"weights":[NaN,1]}', "weights"),
            (b'{"node":5,"target_error":"0.2"}', "target_error"),
            (b'{"node":5,"target_error":true}', "target_error"),
            (b'{"node":5,"target_error":NaN}', "target_error"),
            (b'{"node":5,"time_limit":Infinity}', "time_limit"),
            (b'{"node":5,"time_limit":"1"}', "time_limit"),
            (b'{"node":5,"family":"hitting","target":6,"delta":"nan"}',
             "delta"),
            (b'{"node":5,"family":"hitting","target":6,"delta":NaN}',
             "delta"),
            (b'{"node":5,"family":"hitting","target":6,"epsilon":Infinity}',
             "epsilon"),
            (b'{"node":5,"family":"hitting","target":6,"beta":true}', "beta"),
            (b'{"node":5,"family":"reachability","alpha":"0.5"}', "alpha"),
            (b'{"node":5,"family":"reachability","alpha":NaN}', "alpha"),
        ],
    )
    def test_real_fields_refuse_non_numbers(self, line, field):
        # Only a finite int (not a bool) or float is a real number on
        # the wire: strings, booleans, NaN and infinities are refused as
        # "invalid" naming the field, at parse time or (the hitting /
        # reachability parameters) when the family validates the spec.
        request = protocol.parse_request(line)
        with pytest.raises((ProtocolError, TypeError, ValueError)) as excinfo:
            spec = protocol.spec_from_request(request)
            resolve_family(spec.family).validate(spec, None)
        assert protocol.error_code(excinfo.value) == protocol.E_INVALID
        assert field in str(excinfo.value)

    def test_numpy_integers_are_integers(self):
        spec = QuerySpec(np.int64(3))
        assert spec.nodes == (3,) and type(spec.nodes[0]) is int
        assert QuerySpec(np.array([4, 5])).nodes == (4, 5)


class TestRendering:
    def test_encode_is_one_line(self):
        payload = protocol.encode({"id": 1, "ok": True})
        assert payload.endswith(b"\n")
        assert payload.count(b"\n") == 1
        assert json.loads(payload) == {"id": 1, "ok": True}

    def test_error_response_shape(self):
        response = protocol.error_response(9, protocol.E_INVALID, "nope")
        assert response == {
            "v": protocol.PROTOCOL_VERSION,
            "id": 9,
            "ok": False,
            "error": {"code": protocol.E_INVALID, "message": "nope"},
        }

    def test_ok_response_omits_null_result(self):
        assert "result" not in protocol.ok_response(1)
        assert protocol.ok_response(1, {"x": 2})["result"] == {"x": 2}

    def test_render_result_memory_plain(self, small_social,
                                        small_social_index):
        from repro.serving import PPVService, QuerySpec as Spec

        with PPVService.open(
            small_social_index, graph=small_social
        ) as service:
            spec = Spec(7)
            result = service.query(spec)
        payload = protocol.render_result(spec, result, top=5)
        assert payload["nodes"] == [7]
        assert payload["iterations"] == result.iterations
        assert payload["l1_error"] == result.l1_error
        assert len(payload["top"]) == 5
        node, score = payload["top"][0]
        assert score == float(result.scores[node])
        # JSON round-trip preserves the float bit pattern.
        assert json.loads(json.dumps(payload)) == payload

    def test_render_snapshot_carries_certificate(self):
        from repro.serving.spec import QuerySnapshot

        snapshot = QuerySnapshot(
            iteration=1,
            l1_error=0.25,
            frontier_size=3,
            scores=np.array([0.5, 0.25, 0.0, 0.125]),
            certified=False,
        )
        frame = protocol.render_snapshot(snapshot, top=2)
        assert frame["iteration"] == 1
        assert frame["certified"] is False
        assert frame["top"] == [[0, 0.5], [1, 0.25]]

    def test_render_snapshot_plain_has_no_certificate(self):
        from repro.serving.spec import QuerySnapshot

        snapshot = QuerySnapshot(
            iteration=0,
            l1_error=0.5,
            frontier_size=1,
            scores=np.array([1.0, 0.0]),
        )
        assert "certified" not in protocol.render_snapshot(snapshot, top=1)
