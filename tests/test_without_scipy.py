"""Serving, sharding and the index build run on numpy alone.

scipy backs only exact PPV ground truth (``repro.core.exact``, and the
path-length schedule through the same operator); it is imported when one
of those runs.  A child process with ``sys.modules["scipy"] = None`` —
every ``import scipy`` raises ``ImportError`` there — imports the
package, its CLI, server and sharding modules, builds, saves and loads
an index, serves every family on memory and the PPV families on disk,
and drives the CLI's ``generate`` / ``index`` / ``shard-index`` /
``query`` / ``serve``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy raises ImportError

import repro, repro.cli, repro.server, repro.sharding
from repro import build_index, select_hubs, social_graph
from repro.serving import PPVService, QuerySpec
from repro.storage import DiskGraphStore, cluster_graph, load_index, save_index

graph = social_graph(num_nodes=300, edges_per_node=3, seed=5)
index = build_index(graph, select_hubs(graph, num_hubs=30))
save_index(index, "i.fppv")
loaded = load_index("i.fppv")
store = DiskGraphStore(graph, cluster_graph(graph, 4, seed=1), "c")
specs = {
    "ppv": QuerySpec(5),
    "top_k": QuerySpec(5, top_k=4),
    "hitting": QuerySpec(5, family="hitting", params={"target": 9}),
    "reachability": QuerySpec(5, family="reachability",
                              params={"max_length": 3}),
}
served = {}
for backend, service in (
    ("memory", PPVService.open(loaded, graph=graph)),
    ("disk", PPVService.open("i.fppv", graph_store=store)),
):
    with service:
        served[backend] = [
            family for family in service.families()
            if service.query(specs[family]) is not None
        ]

with open("q.jsonl", "w") as requests:
    requests.write('{"id": 1, "node": 5}\\n{"id": 2, "node": 7, "top_k": 3}\\n')
codes = []
for argv in (
    ["generate", "social", "--nodes", "300", "--out", "g.txt"],
    ["index", "g.txt", "--hubs", "30", "--out", "g.fppv"],
    ["shard-index", "g.txt", "g.fppv", "--shards", "2", "--out", "parts"],
    ["query", "g.txt", "g.fppv", "5", "7"],
    ["query", "g.txt", "g.fppv", "5", "7", "--backend", "disk"],
    ["serve", "g.txt", "g.fppv", "--requests", "q.jsonl"],
):
    codes.append(repro.cli.main(argv))
served["cli"] = codes
served["scipy"] = sorted(name for name in sys.modules if name.startswith("scipy"))
print(json.dumps(served))  # the last line of stdout
"""


def test_serving_sharding_and_the_index_build_never_import_scipy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    served = json.loads(done.stdout.splitlines()[-1])
    assert sorted(served["memory"]) == ["hitting", "ppv", "reachability", "top_k"]
    assert sorted(served["disk"]) == ["ppv", "top_k"]
    assert served["cli"] == [0] * 6
    assert served["scipy"] == ["scipy"]  # only the blocking entry


def test_exact_ppv_still_imports_scipy_when_it_runs(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; import repro; assert 'scipy' not in sys.modules; "
         "repro.exact_ppv(repro.social_graph(num_nodes=50, seed=1), 3); "
         "assert 'scipy.sparse' in sys.modules"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
