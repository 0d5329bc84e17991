"""Tests for the command-line interface (driven through ``main(argv)``)."""

import re

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    code = main(
        ["generate", "social", "--nodes", "300", "--seed", "1", "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture()
def index_file(graph_file, tmp_path):
    path = tmp_path / "graph.fppv"
    code = main(
        ["index", str(graph_file), "--hubs", "25", "--out", str(path)]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_edge_list(self, graph_file, capsys):
        assert graph_file.exists()
        content = graph_file.read_text()
        assert content.startswith("#")
        assert len(content.splitlines()) > 100

    def test_bibliographic_kind(self, tmp_path, capsys):
        path = tmp_path / "bib.txt"
        code = main(
            ["generate", "bibliographic", "--nodes", "300", "--out", str(path)]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_erdos_renyi_kind(self, tmp_path):
        path = tmp_path / "er.txt"
        assert main(["generate", "erdos-renyi", "--nodes", "100", "--out", str(path)]) == 0

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nonsense", "--out", str(tmp_path / "x.txt")])


class TestInfo:
    def test_prints_stats(self, graph_file, capsys):
        assert main(["info", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out
        assert "edges" in out
        assert "reciprocity" in out
        assert "effective diameter" in out


class TestIndex:
    def test_builds_and_reports(self, graph_file, tmp_path, capsys):
        path = tmp_path / "idx.fppv"
        code = main(["index", str(graph_file), "--hubs", "20", "--out", str(path)])
        assert code == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "indexed 20 hubs" in out

    def test_policy_flag(self, graph_file, tmp_path):
        path = tmp_path / "idx.fppv"
        code = main(
            [
                "index", str(graph_file), "--hubs", "10",
                "--policy", "pagerank", "--out", str(path),
            ]
        )
        assert code == 0


class TestQuery:
    def test_query_prints_ranking(self, graph_file, index_file, capsys):
        code = main(
            ["query", str(graph_file), str(index_file), "7", "--top", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query 7" in out
        assert "L1 error" in out
        # 5 ranked lines with scores.
        ranked = [line for line in out.splitlines() if ". node" in line]
        assert len(ranked) == 5
        # The query node itself tops its own PPV.
        assert "node        7" in ranked[0]
        # The I/O columns and summary belong to the disk backend alone.
        assert "faults" not in out and "physical I/O" not in out

    def test_accuracy_target_flag(self, graph_file, index_file, capsys):
        code = main(
            [
                "query", str(graph_file), str(index_file), "7",
                "--target-error", "0.9",
            ]
        )
        assert code == 0

    def test_mismatched_index_fails(self, index_file, tmp_path, capsys):
        other = tmp_path / "other.txt"
        main(["generate", "social", "--nodes", "100", "--out", str(other)])
        code = main(["query", str(other), str(index_file), "3"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTopKQuery:
    def test_single_query_certifies(self, graph_file, index_file, capsys):
        code = main(
            ["query", str(graph_file), str(index_file), "7", "--top-k", "5",
             "--delta", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-5" in out
        ranked = [line for line in out.splitlines() if ". node" in line]
        assert len(ranked) == 5

    def test_batched_top_k(self, graph_file, index_file, capsys):
        code = main(
            ["query", str(graph_file), str(index_file), "7", "9", "11",
             "--top-k", "4", "--delta", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("top-4") == 3

    def test_eta_becomes_certificate_budget(self, graph_file, index_file,
                                            capsys):
        # eta=0 forbids incremental iterations: the result is whatever
        # iteration 0 gives, reported as certified or not.
        code = main(
            ["query", str(graph_file), str(index_file), "7",
             "--top-k", "5", "--eta", "0", "--delta", "0"]
        )
        assert code == 0
        assert "0 iterations" in capsys.readouterr().out

    def test_incompatible_with_time_limit(self, graph_file, index_file,
                                          capsys):
        code = main(
            ["query", str(graph_file), str(index_file), "7",
             "--top-k", "5", "--time-limit", "1.0"]
        )
        assert code == 2
        assert "top-k" in capsys.readouterr().err

    def test_clipped_index_hint(self, graph_file, index_file, capsys):
        # The default index clips stored entries, flooring the reachable
        # error: when nothing certifies the CLI must say why.
        code = main(
            ["query", str(graph_file), str(index_file), "7",
             "--top-k", "3", "--delta", "0", "--eta", "0"]
        )
        assert code == 0
        captured = capsys.readouterr()
        if "UNCERTIFIED" in captured.out:
            assert "--clip 0" in captured.err


class TestDiskQuery:
    """``query --backend disk`` — what ``disk-query`` was, plus every
    stop rule and family ``query`` has."""

    def test_single_query(self, graph_file, index_file, tmp_path, capsys):
        code = main(
            ["query", str(graph_file), str(index_file), "7",
             "--backend", "disk", "--clusters", "4",
             "--workdir", str(tmp_path / "c1")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query 7" in out
        assert "faults" in out
        assert "physical I/O for 1 queries" in out
        # --workdir names the segment directory, and it is kept.
        assert (tmp_path / "c1" / "manifest.json").exists()

    def test_batched_queries_report_physical_io(self, graph_file, index_file,
                                                tmp_path, capsys):
        code = main(
            ["query", str(graph_file), str(index_file), "7", "9", "11",
             "--backend", "disk", "--clusters", "4",
             "--workdir", str(tmp_path / "c2")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("hub reads") >= 3
        assert "physical I/O for 3 queries" in out

    def test_memory_budget_is_one_pool_in_bytes(self, graph_file, index_file,
                                                capsys):
        io = {}
        for budget in (0, 10**8):
            code = main(
                ["query", str(graph_file), str(index_file), "7", "9", "11",
                 "--backend", "disk", "--clusters", "4",
                 "--memory-budget", str(budget)]
            )
            assert code == 0
            line = capsys.readouterr().out.splitlines()[-1]
            assert line.endswith(f" of {budget} bytes)"), line
            faults, reads = re.search(
                r": (\d+) cluster faults, (\d+) hub reads", line
            ).groups()
            io[budget] = (int(faults), int(reads))
        assert io[10**8][0] < io[0][0] and io[10**8][1] <= io[0][1]
        code = main(
            ["query", str(graph_file), str(index_file), "7",
             "--backend", "disk", "--memory-budget", "-1"]
        )
        assert code == 2
        assert "byte count" in capsys.readouterr().err

    def test_mismatched_index_fails(self, index_file, tmp_path, capsys):
        other = tmp_path / "other.txt"
        main(["generate", "social", "--nodes", "100", "--out", str(other)])
        code = main(
            ["query", str(other), str(index_file), "3",
             "--backend", "disk", "--workdir", str(tmp_path / "c3")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
        # Refused before any clustering: no segment was written.
        assert not (tmp_path / "c3").exists()

    def test_certified_top_k_prints_io_columns(self, graph_file, index_file,
                                               capsys):
        code = main(
            ["query", str(graph_file), str(index_file), "7", "9",
             "--backend", "disk", "--top-k", "4", "--delta", "0"]
        )
        assert code == 0
        headers = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("query ")
        ]
        assert len(headers) == 2
        assert all(
            "top-4" in line and "faults" in line and "hub reads" in line
            for line in headers
        )

    def test_accuracy_target_prints_io_columns(self, graph_file, index_file,
                                               capsys):
        code = main(
            ["query", str(graph_file), str(index_file), "7",
             "--backend", "disk", "--target-error", "0.9", "--eta", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The accuracy stop fires long before the iteration budget.
        assert "query 7: 0 iterations" in out
        assert "faults" in out and "hub reads" in out

    def test_memory_only_family_is_refused(self, graph_file, index_file,
                                           capsys):
        code = main(
            ["query", str(graph_file), str(index_file), "7",
             "--backend", "disk", "--family", "hitting", "--target", "3"]
        )
        assert code == 2
        assert "does not support query family" in capsys.readouterr().err

    def test_disk_query_is_gone(self, graph_file, index_file):
        # Deleted, not aliased: argparse refuses the name.
        with pytest.raises(SystemExit) as refused:
            main(["disk-query", str(graph_file), str(index_file), "7"])
        assert refused.value.code == 2


class TestServe:
    def _responses(self, capsys):
        """Reply records keyed by request id (they arrive in completion
        order), and stderr."""
        import json

        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert all(record["v"] == 1 for record in records)
        return {record["id"]: record for record in records}, captured.err

    def test_jsonl_loop_in_request_order(self, graph_file, index_file,
                                         tmp_path, capsys):
        """The name is historical: replies now come in completion order
        and are matched by ``id``."""
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"id": 1, "node": 7}\n'
            '{"id": 2, "nodes": [3, 9], "weights": [2, 1]}\n'
            "\n"
            '{"id": 3, "node": 12, "top_k": 4}\n'
            '{"id": 4, "node": 7, "target_error": 0.5}\n'
        )
        code = main(
            ["serve", str(graph_file), str(index_file),
             "--requests", str(requests), "--top", "3"]
        )
        assert code == 0
        responses, err = self._responses(capsys)
        assert sorted(responses) == [1, 2, 3, 4]  # the blank line is skipped
        results = {i: responses[i]["result"] for i in responses}
        assert results[1]["nodes"] == [7]
        assert len(results[1]["top"]) == 3
        assert results[2]["nodes"] == [3, 9]
        assert results[3]["certified"] in (True, False)
        assert len(results[3]["top"]) == 4
        assert results[4]["l1_error"] <= 0.5
        # The summary goes to stderr, keeping stdout pure JSONL.
        assert "served 4 requests" in err

    def test_bad_requests_answered_in_place(self, graph_file, index_file,
                                            tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"id": "bad-node", "node": 999999}\n'
            '{"id": "no-node"}\n'
            "not json at all\n"
            '{"id": "ok", "node": 3}\n'
        )
        code = main(
            ["serve", str(graph_file), str(index_file),
             "--requests", str(requests)]
        )
        assert code == 0
        responses, _err = self._responses(capsys)
        assert responses["bad-node"]["error"]["code"] == "invalid"
        assert "out of range" in responses["bad-node"]["error"]["message"]
        assert "node" in responses["no-node"]["error"]["message"]
        assert responses[None]["error"]["code"] == "malformed"
        assert responses["ok"]["result"]["iterations"] == 2

    def test_disk_backend_reports_io(self, graph_file, index_file,
                                     tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"id": 1, "node": 7}\n{"id": 2, "node": 9}\n')
        code = main(
            ["serve", str(graph_file), str(index_file),
             "--requests", str(requests), "--backend", "disk",
             "--clusters", "4", "--workdir", str(tmp_path / "clusters")]
        )
        assert code == 0
        responses, _err = self._responses(capsys)
        assert sorted(responses) == [1, 2]
        assert all("cluster_faults" in r["result"] and "hub_reads" in r["result"]
                   for r in responses.values())

    def test_mismatched_index_fails(self, index_file, tmp_path, capsys):
        other = tmp_path / "other.txt"
        main(["generate", "social", "--nodes", "100", "--out", str(other)])
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"id": 1, "node": 1}\n')
        code = main(
            ["serve", str(other), str(index_file),
             "--requests", str(requests)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_stdio_refuses_tcp_only_verbs(self, graph_file, index_file,
                                          tmp_path, capsys):
        """The name is historical: stdio used to refuse every verb but
        ``query`` as "only available over --tcp".  It is now a
        connection into the same server, so ``stats`` is answered."""
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"id": 1, "verb": "stats"}\n{"id": 2, "node": 3}\n'
        )
        code = main(
            ["serve", str(graph_file), str(index_file),
             "--requests", str(requests)]
        )
        assert code == 0
        responses, _err = self._responses(capsys)
        assert responses[1]["ok"] is True
        assert responses[1]["result"]["backend"] == "memory"
        assert responses[2]["result"]["iterations"] == 2

    def test_explicit_stdio_flag_and_auto_delay(self, graph_file,
                                                index_file, tmp_path,
                                                capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"id": 1, "node": 7}\n')
        code = main(
            ["serve", str(graph_file), str(index_file), "--stdio",
             "--requests", str(requests), "--max-delay", "auto",
             "--cache-size", "0"]
        )
        assert code == 0
        responses, _err = self._responses(capsys)
        assert responses[1]["result"]["iterations"] == 2

    def test_workers_require_tcp(self, graph_file, index_file, capsys):
        # Refused on stdio as on --tcp (TestOneProcess): a server is
        # one process whatever its transport.
        code = main(
            ["serve", str(graph_file), str(index_file), "--workers", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --workers 2: a server is one process")
        assert err.count("\n") == 1

    def test_bad_tcp_address_rejected(self, graph_file, index_file,
                                      capsys):
        code = main(
            ["serve", str(graph_file), str(index_file), "--tcp", "7474"]
        )
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_bad_max_inflight_rejected(self, graph_file, index_file,
                                       capsys):
        code = main(
            ["serve", str(graph_file), str(index_file),
             "--tcp", "127.0.0.1:0", "--max-inflight", "0"]
        )
        assert code == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_bad_max_delay_rejected(self, graph_file, index_file):
        with pytest.raises(SystemExit):
            main(
                ["serve", str(graph_file), str(index_file),
                 "--max-delay", "sometimes"]
            )

    def test_stdio_and_tcp_are_mutually_exclusive(self, graph_file,
                                                  index_file):
        with pytest.raises(SystemExit):
            main(
                ["serve", str(graph_file), str(index_file), "--stdio",
                 "--tcp", "127.0.0.1:0"]
            )


class TestStatsAndTrace:
    """``stats`` and ``trace`` share one connect-and-report frame."""

    @pytest.mark.parametrize("command", ["stats", "trace"])
    def test_unreachable_server_is_exit_1(self, command, capsys):
        import socket

        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main([command, f"127.0.0.1:{port}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot reach 127.0.0.1:{port}: ")
        assert captured.out == ""

    def test_reports_from_a_live_server(self, small_social,
                                        small_social_index, capsys):
        from repro.server import PPVClient, PPVServer
        from repro.serving import PPVService

        with PPVService.open(small_social_index, graph=small_social) as service:
            with PPVServer(service).background() as (host, port):
                with PPVClient(host, port) as client:
                    client.query(7, trace=True)
                    trace_id = client.last_trace_id
                assert main(["stats", f"{host}:{port}"]) == 0
                stats = capsys.readouterr().out
                assert main(["trace", f"{host}:{port}", trace_id]) == 0
                trace = capsys.readouterr().out
        assert "server: " in stats and "repro_server_requests_total" in stats
        assert trace.startswith(f"trace {trace_id}:") and "server.query" in trace


class TestAutotune:
    def test_recommends(self, graph_file, capsys):
        code = main(["autotune", str(graph_file), "--queries", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended number of hubs" in out
        assert "<== best" in out


class TestShardedServe:
    def test_explicit_clusters_and_banner(self, graph_file, index_file,
                                          tmp_path, capsys, monkeypatch):
        # `--clusters 8` used to double as "not given" and was silently
        # replaced by max(8, 2 * shards) = 10.
        import json

        from repro.sharding import ShardRouter

        def serve_forever(router, announce=None):
            announce(("127.0.0.1", 7474))
            router.stop()
            return 0

        monkeypatch.setattr(ShardRouter, "serve_forever", serve_forever)
        root = tmp_path / "parts"
        argv = ["serve", str(graph_file), str(index_file),
                "--tcp", "127.0.0.1:0", "--shards", "5"]
        assert main(argv + ["--clusters", "8", "--workdir", str(root)]) == 0
        assert capsys.readouterr().err == (
            "shard router on 127.0.0.1:7474 (5 shards)\n"
        )
        assert json.loads((root / "shard_map.json").read_text())[
            "num_clusters"
        ] == 8

    def test_needs_tcp(self, graph_file, index_file, capsys):
        code = main(
            ["serve", str(graph_file), str(index_file), "--shards", "2"]
        )
        assert code == 2
        assert "needs --tcp" in capsys.readouterr().err


class TestErrorBoundary:
    """A bad path or value is ``error: ...`` and exit 2 — decided once,
    in ``main`` — never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["query", "missing.txt", "INDEX", "3"], "missing.txt"),
            (["query", "GRAPH", "missing.fppv", "3"], "missing.fppv"),
            (["query", "GRAPH", "INDEX", "4000"], "out of range"),
            (["query", "GRAPH", "INDEX", "4000", "--backend", "disk"],
             "out of range"),
            (["query", "GRAPH", "INDEX", "3", "--backend", "disk",
              "--clusters", "0"], "at least one cluster"),
            (["query", "OTHER", "INDEX", "3"], "index covers 300 nodes"),
            (["serve", "OTHER", "INDEX", "--backend", "disk"],
             "index covers 300 nodes"),
            (["shard-index", "OTHER", "INDEX", "--shards", "2",
              "--out", "parts"], "index covers 300 nodes"),
            (["query", "GRAPH", "INDEX", "3", "--top", "-2"], '"top"'),
            (["query", "GRAPH", "INDEX", "3", "--eta", "-1"], '"eta"'),
            (["serve", "GRAPH", "INDEX", "--top", "-2"], '"top"'),
            (["serve", "--shard-map", "missing", "--tcp", "127.0.0.1:0"],
             "shard_map.json"),
            (["stats", "7474"], "HOST:PORT"),
            (["query", "GRAPH", "INDEX", "5", "--backend", "disk",
              "--fault-budget", "-2"], "fault_budget must be at least one"),
            (["serve", "GRAPH", "INDEX", "--backend", "disk",
              "--fault-budget", "0", "--tcp", "127.0.0.1:0"],
             "fault_budget must be at least one"),
        ],
    )
    def test_exit_2_with_message(self, argv, message, graph_file,
                                 index_file, tmp_path, capsys, monkeypatch):
        other = tmp_path / "other.txt"
        if "OTHER" in argv:
            main(["generate", "social", "--nodes", "100", "--out", str(other)])
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        names = {"GRAPH": graph_file, "INDEX": index_file, "OTHER": other}
        code = main([str(names.get(arg, arg)) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    # A cut payload is read eagerly only by the memory backend (the disk
    # backend reads a record when a query needs it).
    @pytest.mark.parametrize(
        "keep, message, backend",
        [(30, "the header is 48 bytes", "memory"),
         (30, "the header is 48 bytes", "disk"),
         (60, "the directory of 25 hubs", "memory"),
         (60, "the directory of 25 hubs", "disk"),
         (-8, "payload bytes", "memory")],
        ids=["header", "header-disk", "directory", "directory-disk",
             "payload"],
    )
    def test_a_truncated_index_is_exit_2(self, keep, message, backend,
                                         graph_file, index_file, tmp_path,
                                         capsys):
        cut = tmp_path / "truncated.fppv"
        cut.write_bytes(index_file.read_bytes()[:keep])
        capsys.readouterr()
        code = main(["query", str(graph_file), str(cut), "5",
                     "--backend", backend])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_a_damaged_directory_is_exit_2(self, backend, graph_file,
                                           index_file, tmp_path, capsys):
        # Directory entry 1 (header 48 bytes, entries 32, hub id first)
        # rewritten to name entry 0's hub.
        data = bytearray(index_file.read_bytes())
        data[80:88] = data[48:56]
        bad = tmp_path / "bad.fppv"
        bad.write_bytes(bytes(data))
        hub = int.from_bytes(data[48:56], "little")
        capsys.readouterr()
        code = main(["query", str(graph_file), str(bad), "5",
                     "--backend", backend])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: {bad}: damaged FastPPV index: the directory names "
            f"hub {hub} twice\n"
        )
        assert captured.out == ""

    def test_no_traceback_from_the_real_process(self, index_file, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "query",
             str(tmp_path / "missing.txt"), str(index_file), "3"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr


    def test_without_a_compiler_query_and_serve_refuse_generate_and_index_run(
        self, tmp_path
    ):
        import subprocess
        import sys

        from test_native_kernels import _environment

        (tmp_path / "bin").mkdir()  # a PATH with no gcc / cc on it
        (tmp_path / "cache").mkdir()  # an empty XDG_CACHE_HOME
        env = _environment(tmp_path, PATH=str(tmp_path / "bin"))
        assert "CC" not in env

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv], env=env,
                cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )

        # The offline build's numpy rounds need no compiler.
        assert cli("generate", "social", "--nodes", "200", "--out",
                   "g.txt").returncode == 0
        assert cli("index", "g.txt", "--hubs", "20", "--out",
                   "g.fppv").returncode == 0
        for argv in (
            ["query", "g.txt", "g.fppv", "3"],
            ["query", "g.txt", "g.fppv", "3", "--backend", "disk"],
            ["serve", "g.txt", "g.fppv", "--tcp", "127.0.0.1:0"],
        ):
            done = cli(*argv)
            assert done.returncode == 2, argv
            assert done.stderr.startswith(
                "error: compiled kernels unavailable: no C compiler on PATH"
            )
            assert done.stderr.count("\n") == 1  # one line, no traceback
            assert done.stdout == ""  # refused before serving
        assert not list((tmp_path / "cache").iterdir())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_prog_name(self):
        # Matches the console-script entry point in pyproject.toml.
        assert build_parser().prog == "repro"


SURFACE = {
    "generate": ["--nodes", "--out", "--seed"],
    "info": ["--undirected"],
    "index": ["--alpha", "--clip", "--epsilon", "--hubs", "--out",
              "--policy", "--undirected", "--workers"],
    "query": ["--alpha", "--backend", "--beta", "--clusters", "--delta",
              "--eta", "--family", "--fault-budget", "--max-length",
              "--max-levels", "--memory-budget", "--seed", "--target",
              "--target-error", "--time-limit", "--top", "--top-k",
              "--undirected", "--workdir"],
    "shard-index": ["--clusters", "--out", "--seed", "--shards",
                    "--undirected"],
    "serve": ["--backend", "--cache-size", "--clusters", "--delta",
              "--fault-budget", "--max-batch", "--max-delay",
              "--max-inflight", "--memory-budget", "--requests", "--seed",
              "--shard-map", "--shards", "--slow-query", "--stdio", "--tcp",
              "--top", "--trace-log", "--undirected", "--workdir",
              "--workers"],
    "stats": ["--json", "--prometheus", "--watch"],
    "trace": ["--json", "--limit"],
    "autotune": ["--queries", "--space-budget-mb", "--undirected"],
    "validate": ["--sample", "--undirected"],
}
"""Every subcommand's flags.  Changing the CLI surface means editing
this literal, so it shows up in review as what it is."""

LEDGER_SERVE_FLAGS = ["--tcp", "127.0.0.1:0", "--max-delay", "auto",
                      "--cache-size", "0", "--delta", "0.0001",
                      "--top", "10"]
"""FROZEN: what ``benchmarks/ledger/servers.py::launch_cli`` appends to
``serve GRAPH INDEX --workers 1`` and to ``serve --shard-map ROOT``.
These flags, and the defaults the ledger leaves unset, are the
benchmark's launch contract."""


class TestSurface:
    def test_subcommands_and_flags(self):
        import argparse

        parser = build_parser()
        (commands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        surface = {
            name: sorted(
                option
                for action in sub._actions
                for option in action.option_strings
                if option.startswith("--") and option != "--help"
            )
            for name, sub in commands.choices.items()
        }
        assert surface == SURFACE

    @pytest.mark.parametrize(
        "target",
        [["graph.txt", "index.fppv", "--workers", "1"],
         ["--shard-map", "parts"]],
    )
    def test_ledger_launch_line_and_defaults(self, target):
        args = build_parser().parse_args(
            ["serve"] + target + LEDGER_SERVE_FLAGS
        )
        assert (args.tcp, args.max_delay) == ("127.0.0.1:0", "auto")
        assert (args.cache_size, args.delta, args.top) == (0, 1e-4, 10)
        # Left unset by the ledger, so part of what it measures.
        assert (args.backend, args.workers) == ("memory", 1)
        assert (args.max_batch, args.max_inflight) == (64, 256)
        assert (args.slow_query, args.trace_log) == (None, None)


class TestValidate:
    def test_clean_index_passes(self, graph_file, index_file, capsys):
        code = main(["validate", str(graph_file), str(index_file)])
        assert code == 0
        assert "index OK" in capsys.readouterr().out

    def test_stale_index_fails(self, index_file, tmp_path, capsys):
        # Validate against a *different* graph than the index was built on.
        other = tmp_path / "other.txt"
        main(["generate", "social", "--nodes", "300", "--seed", "9",
              "--out", str(other)])
        code = main(["validate", str(other), str(index_file), "--sample", "25"])
        assert code == 1
        assert "PROBLEM" in capsys.readouterr().err
