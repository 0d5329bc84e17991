"""The performance ledger's one command.

Three ways to call it (from the repo root)::

    python3 benchmarks/ledger/run.py --seed 7
        all four workloads: an untraced pass (end-to-end metrics, output
        checks) then a traced pass (per-layer metrics) each; prints every
        metric by name and unit and writes results/ledger_seed7.json

    python3 benchmarks/ledger/run.py --workload W --seed 7 --seconds 15 --trace 0|1
        one pass over one workload — the form BENCHMARK.json's driver
        uses; the last stdout line is the result object

    python3 benchmarks/ledger/run.py --compare A.json B.json
        per workload and end-to-end metric: both values, the relative
        gap, pass/fail against the metric's bound

``--seed`` drives only the request streams.  Everything is written under
``benchmarks/ledger/`` (``work/`` while running, ``results/`` after).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
RESULTS_DIR = LEDGER_DIR / "results"
SETUP_REPEATS = 3
"""Full set-ups (dataset, server, warm-up) per untraced run; ``setup_s``
is their median."""

END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("qps", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("cpu_s_per_kq", "s", "lower", 0.25),
    ("rss_mb", "MB", "lower", 0.10),
    ("l1_err", "l1", "lower", 1e-9),
)
"""(name, unit, better, bound): bound is the share of the parent's
median by which the metric may worsen before it counts as a regression."""

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dataset as data  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import servers  # noqa: E402
import workloads as wl  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from spans import Recorder  # noqa: E402


# --------------------------------------------------------------------- #
# Stamp


def stamp(seed: int, seconds: float) -> dict:
    """Where, on what and with what a record was measured."""
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "dataset": data.DATASET,
        "serving": data.SERVING,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "generator": {"connections": loadgen.CONNECTIONS,
                      "window": loadgen.WINDOW},
    }


# --------------------------------------------------------------------- #
# Passes


def _launcher(workload: wl.Workload, spans_path: Path | None):
    def launch(built, log_path):
        if spans_path is None:
            return servers.launch_cli(
                built, workload.backend, workload.cache_size, data.SERVING,
                log_path,
            )
        return servers.launch_traced(
            built, workload.backend, workload.cache_size, data.SERVING,
            log_path, spans_path,
        )

    return launch


def _measure(workload, stream, seed, workdir, setups, spans_path=None,
             recorder=None, replay=None) -> wl.Measurement:
    if workload.over_tcp:
        return wl.measure_tcp(
            workload, stream, seed, workdir, _launcher(workload, spans_path),
            setups, replay,
        )
    return wl.measure_bursts(workload, stream, seed, workdir, setups, recorder)


def _outcome(measurement: wl.Measurement, checked: int, mismatched: int) -> dict:
    per_op = measurement.workload.per_op
    attempted = sum(p.attempted for _, p in measurement.timed) * per_op
    failed = sum(p.failed for _, p in measurement.timed) * per_op + mismatched
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "phases": {
            name: {"attempted": phase.attempted, "answered": phase.answered,
                   "failed": phase.failed}
            for name, phase in measurement.phases.items()
        },
        "replies_checked": checked,
        "replies_mismatched": mismatched,
    }


def untraced_pass(workload: wl.Workload, seed: int, seconds: float,
                  workdir: Path, host_speed) -> dict:
    """End-to-end metrics, tracing off, outputs checked."""
    stream = wl.make_stream(workload, seed, seconds)
    measurement = _measure(workload, stream, seed, workdir, SETUP_REPEATS)
    wl.check_generator(measurement)
    with data.open_reference(measurement.dataset, workload.reference) as reference:
        checked, mismatched = wl.check_replies(measurement, reference)
        l1_err = data.l1_error(measurement.dataset, reference)
    values = wl.end_to_end(measurement, l1_err, host_speed)
    sampling = values.pop("_sampling")
    metrics = {}
    for name, unit, better, bound in END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit, "better": better,
                         "bound": bound}
    metrics["tail_ms"]["percentile"] = sampling["tail_percentile"]
    metrics["tail_ms"]["segments"] = sampling["tail_segments"]
    for name in ("p50_ms", "tail_ms"):
        metrics[name]["samples"] = sampling["latency_samples"]
    metrics["qps"]["samples"] = sampling["qps_queries"]
    metrics["setup_s"]["samples"] = sampling["setup_repeats"]
    metrics["l1_err"]["samples"] = data.L1_SAMPLE
    return {"metrics": metrics, "host_speed": sampling["host_speed"],
            "raw": sampling["raw"],
            **_outcome(measurement, checked, mismatched)}


def traced_pass(workload: wl.Workload, seed: int, seconds: float,
                workdir: Path, host_speed) -> dict:
    """Per-layer metrics: an untraced baseline over the same closed-loop
    stream (for ``driver.trace_overhead``; an open-loop phase is replayed
    as extra warm-up so the cache starts the closed loop equally full),
    then the whole stream with the wrappers installed; spans go to
    ``results/trace_<workload>.json``."""
    stream = wl.make_stream(workload, seed, seconds, open_loop=True)
    baseline = _measure(
        workload,
        wl.Stream(warm=stream.warm + stream.open, open=[],
                  offsets=np.empty(0), closed=stream.closed),
        seed, workdir / "untraced", 1,
    )
    base_phase = baseline.phases["closed"]
    untraced_qps = baseline.closed_qps * host_speed(
        base_phase.started, base_phase.finished
    )

    recorder = Recorder()
    spans_path = workdir / "server_spans.json"
    measurement = _measure(
        workload, stream, seed, workdir / "traced", 1, spans_path=spans_path,
        recorder=recorder, replay=layers.replay_live,
    )
    wl.check_generator(measurement)
    if workload.over_tcp:
        measurement.spans = json.loads(spans_path.read_text())["spans"]
        for name, phase in measurement.phases.items():
            for position in range(phase.attempted):
                recorder.add(
                    "client.request", phase.sent[position],
                    phase.done[position], op=f"{name}:{position}",
                    ok=bool(phase.ok[position]),
                )
        recorder.extend(measurement.spans)
    else:
        measurement.spans = recorder.spans

    with data.open_reference(measurement.dataset, workload.reference) as reference:
        checked, mismatched = wl.check_replies(measurement, reference)
        served = layers.served_pairs(measurement, reference)
    replays = measurement.replays
    if workload.over_tcp:
        replays["protocol"] = layers.replay_protocol(stream.closed, served)
    if workload.cache_size:
        replays["cache"] = layers.replay_cache(workload.cache_size, served)
    if workload.backend == "memory":
        replays["push_ms_per_query"] = layers.replay_push(
            measurement.dataset, stream.closed
        )
    values = layers.per_layer(
        measurement, untraced_qps, host_speed(*measurement.window)
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    recorder.dump(
        RESULTS_DIR / f"trace_{workload.name}.json",
        workload=workload.name, stamp=stamp(seed, seconds),
        window=list(measurement.window),
    )
    metrics = {
        name: {"value": values[name], "unit": unit, "better": better}
        for name, unit, better in layers.PER_LAYER
    }
    return {"metrics": metrics, "untraced_qps": untraced_qps,
            **_outcome(measurement, checked, mismatched)}


# --------------------------------------------------------------------- #
# Output


def print_metrics(title: str, record: dict) -> None:
    print(f"\n== {title}: {record['attempted']} attempted, "
          f"{record['failed']} failed, "
          f"{record['replies_checked']} replies checked, "
          f"{'correct' if record['correct'] else 'INCORRECT'}")
    for phase, counts in record["phases"].items():
        print(f"   phase {phase}: {counts['attempted']} attempted / "
              f"{counts['answered']} answered / {counts['failed']} failed")
    for name, metric in record["metrics"].items():
        notes = [
            f"{key}={metric[key]}"
            for key in ("bound", "percentile", "segments", "samples")
            if key in metric
        ]
        print(f"   {name:38s} {metric['value']:>16.6g} {metric['unit']:6s}"
              f" {' '.join(notes)}")


def result_line(record: dict) -> str:
    """The driver's result object: exactly four keys."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in record["metrics"].items()
        },
    })


def record_name(workload: str, seed: int, trace: int) -> str:
    return f"run_{workload}_seed{seed}_trace{trace}.json"


def write_record(name: str, record: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------------- #
# Compare


def compare(path_a: str, path_b: str) -> int:
    """Print the repeatability report of two ledger records; exit code 1
    when any end-to-end metric of B is worse than A beyond its bound."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for key in ("dataset", "serving", "nproc", "seconds"):
        if a["stamp"][key] != b["stamp"][key]:
            print(f"warning: stamps differ on {key}: "
                  f"{a['stamp'][key]!r} vs {b['stamp'][key]!r}")
    worse = 0
    print(f"{'workload':20s} {'metric':14s} {'A':>12s} {'B':>12s} "
          f"{'gap':>8s} {'bound':>8s}  verdict")
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            print(f"{workload:20s} missing from B")
            worse += 1
            continue
        for name, metric in entry_a["end_to_end"]["metrics"].items():
            va = metric["value"]
            vb = entry_b["end_to_end"]["metrics"][name]["value"]
            gap = (vb - va) / va
            if metric["better"] == "higher":
                gap = -gap
            ok = gap <= metric["bound"]
            worse += not ok
            print(f"{workload:20s} {name:14s} {va:12.5g} {vb:12.5g} "
                  f"{gap:+8.2%} {metric['bound']:8.2g}  "
                  f"{'pass' if ok else 'WORSE'}")
    return 1 if worse else 0


# --------------------------------------------------------------------- #
# Entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=wl.NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: nothing to measure: {ROOT / 'src' / 'repro'} is "
              "missing (run from a full checkout)", file=sys.stderr)
        return 2

    if args.workload:
        return run_one(wl.WORKLOADS[args.workload], args)
    return run_ledger(args)


def run_one(workload: wl.Workload, args) -> int:
    """One pass over one workload; the last stdout line is the result."""
    workdir = LEDGER_DIR / "work" / f"run{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    began = time.perf_counter()
    calibrator = Calibrator(workdir / "calibration.log")
    try:
        run_pass = traced_pass if args.trace else untraced_pass
        record = run_pass(
            workload, args.seed, args.seconds, workdir, calibrator.factor
        )
    finally:
        calibrator.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    record["stamp"] = stamp(args.seed, args.seconds)
    write_record(record_name(workload.name, args.seed, args.trace), record)
    print(json.dumps(record["stamp"]))
    print_metrics(f"{workload.name} (trace {args.trace})", record)
    print(f"   wall {time.perf_counter() - began:.1f} s")
    print(result_line(record))
    return 0


def run_ledger(args) -> int:
    """All four workloads, untraced then traced.  Every pass is a child
    ``run.py --workload ...`` — the exact form the driver runs, and a
    fresh process, so one pass's memory never shows in the next one's
    ``rss_mb``."""
    began = time.perf_counter()
    ledger = {"stamp": stamp(args.seed, args.seconds), "workloads": {}}
    for workload in wl.WORKLOADS.values():
        entry = ledger["workloads"][workload.name] = {"why": workload.why}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload.name, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            # Everything but the stamp and the driver's result line.
            print("\n".join(child.stdout.splitlines()[1:-1]))
            if child.returncode != 0:
                print(f"{workload.name} (trace {trace}) exited with "
                      f"{child.returncode}; no record written")
                return child.returncode
            path = RESULTS_DIR / record_name(workload.name, args.seed, trace)
            entry[section] = json.loads(path.read_text())
            del entry[section]["stamp"]
    path = write_record(f"ledger_seed{args.seed}.json", ledger)
    print(f"\nstamp: {json.dumps(ledger['stamp'])}")
    print(f"record: {path.relative_to(ROOT)}  "
          f"(wall {time.perf_counter() - began:.0f} s)")
    correct = all(
        entry[section]["correct"]
        for entry in ledger["workloads"].values()
        for section in ("end_to_end", "per_layer")
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
