"""Shared benchmark plumbing.

Every bench both *prints* its paper-shaped table (visible with ``-s`` or
in the pytest summary on failure) and *saves* it under
``benchmarks/results/`` (gitignored scratch output).
Benches with machine-readable trajectories additionally write a
``BENCH_<name>.json`` next to the text table (:func:`emit_json`) — the
CI workflow uploads both as artifacts, so run-over-run numbers can be
diffed without parsing tables.

``BENCH_SCALE`` (env var ``REPRO_BENCH_SCALE``, default 0.4) scales the
evaluation graphs; 1.0 reproduces the sizes quoted in
:mod:`repro.experiments.datasets` at the cost of a few extra minutes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.report import Table

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))
BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "20"))
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def emit(name: str, *tables: Table) -> None:
    """Print tables and persist them to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rendered = "\n\n".join(table.render() for table in tables)
    print("\n" + rendered)
    (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")


def emit_json(name: str, payload: dict) -> Path:
    """Merge ``payload`` into ``benchmarks/results/BENCH_<name>.json``.

    Merge (rather than overwrite) semantics let the several test
    functions of one bench module contribute sections to a single
    machine-readable record; ``bench_scale`` is stamped automatically so
    a record is never read at the wrong scale.  Returns the path.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    record: dict = {}
    if path.exists():
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            record = {}
    if record.get("bench_scale") != BENCH_SCALE:
        record = {}  # stale scale: restart the record
    record["bench_scale"] = BENCH_SCALE
    record.update(payload)
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
