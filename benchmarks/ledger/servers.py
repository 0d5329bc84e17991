"""Start, find and stop the serving processes of the TCP workloads.

Untraced runs use the real CLI (``python -m repro.cli serve ...``);
traced runs use :mod:`serve_traced`.  Both announce ``... on HOST:PORT``
on stderr, which goes to a log file under the work directory (a pipe
nobody drains would stall a chatty server).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from loadgen import proc_cpu_seconds, proc_peak_rss_mb

LEDGER_DIR = Path(__file__).resolve().parent
SRC_DIR = LEDGER_DIR.parents[1] / "src"
START_TIMEOUT = 60.0
STOP_TIMEOUT = 40.0

_BANNER = re.compile(r" on ([0-9.]+):(\d+)(?: shards (\S+))?")


class Server:
    """One launched serving process group (router + forked shard workers
    count as one), addressed and accounted through ``/proc``."""

    def __init__(self, command: list[str], log_path: Path) -> None:
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        with open(log_path, "wb") as log:
            # Own session: stop() can sweep the whole group, so a shard
            # worker can never outlive a crashed router.
            self.process = subprocess.Popen(
                command, stdout=log, stderr=log, env=env,
                start_new_session=True,
            )
        self.address: tuple | None = None
        self.shard_addresses: list[tuple] = []
        try:
            self._await_banner()
        except BaseException:
            self.stop()
            raise

    def _await_banner(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            match = _BANNER.search(text)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                for shard in (match.group(3) or "").split(","):
                    if shard:
                        host, port = shard.rsplit(":", 1)
                        self.shard_addresses.append((host, int(port)))
                return
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before "
                    f"listening:\n{text[-2000:]}"
                )
            time.sleep(0.01)
        raise TimeoutError(f"no banner in {self.log_path} after {START_TIMEOUT} s")

    def stats(self) -> dict:
        from repro.server import PPVClient

        with PPVClient(*self.address) as client:
            return client.stats()

    def pids(self) -> dict:
        """``{"router": pid, "shards": [pid, ...]}`` (no shards unless the
        server is a shard router)."""
        shards = self.stats().get("shards", {}).get("per_shard", ())
        return {
            "router": self.process.pid,
            "shards": [entry["worker"]["pid"] for entry in shards],
        }

    def stop(self) -> None:
        """SIGTERM, wait for a graceful exit, then sweep the group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()


def cpu_seconds(pids: dict) -> dict:
    return {
        "router": proc_cpu_seconds(pids["router"]),
        "shards": sum(proc_cpu_seconds(pid) for pid in pids["shards"]),
    }


def peak_rss_mb(pids: dict) -> float:
    return sum(
        proc_peak_rss_mb(pid) for pid in [pids["router"], *pids["shards"]]
    )


def _serving_flags(cache_size: int, serving: dict) -> list[str]:
    return ["--cache-size", str(cache_size), "--delta", repr(serving["delta"]),
            "--top", str(serving["top"])]


def launch_cli(dataset, backend: str, cache_size: int, serving: dict,
               log_path: Path) -> Server:
    """The untraced server: ``repro serve`` exactly as a user starts it."""
    command = [sys.executable, "-m", "repro.cli", "serve"]
    if backend == "sharded":
        command += ["--shard-map", str(dataset.shard_root)]
    else:
        command += [str(dataset.graph_path), str(dataset.index_path),
                    "--workers", "1"]
    command += ["--tcp", "127.0.0.1:0", "--max-delay", "auto"]
    return Server(command + _serving_flags(cache_size, serving), log_path)


def launch_traced(dataset, backend: str, cache_size: int, serving: dict,
                  log_path: Path, spans_path: Path) -> Server:
    """The traced twin: same stack and parameters, wrapped engine."""
    command = [sys.executable, str(LEDGER_DIR / "serve_traced.py"),
               "--backend", backend, "--spans-out", str(spans_path)]
    if backend == "sharded":
        command += ["--shard-map", str(dataset.shard_root)]
    else:
        command += ["--graph", str(dataset.graph_path),
                    "--index", str(dataset.index_path)]
    return Server(command + _serving_flags(cache_size, serving), log_path)
