"""Host-speed calibration: a fixed unit of work, sampled through the run.

The target host is a 2-vCPU virtual machine on shared hardware.  The
same process, serving the same requests, was measured between 360 and
510 queries/s over four minutes there — and its CPU time per query moved
with it, so the cause is how fast the host executes, not scheduling.
Drift that slow outlasts any run the time cap allows, so no in-run
statistic removes it.  Instead a side process executes a fixed unit of
work (Python bytecode + numpy scatter-adds, the mix the serving stack is
made of) about twenty times a second at a 5 % duty cycle and logs the CPU
time each unit took.  A timed window's *host-speed factor* is the median
unit time inside the window over :data:`NOMINAL_UNIT_SECONDS`; the ledger
divides times (and multiplies rates) measured in that window by it, i.e.
reports them at nominal host speed.  Raw values and factors are kept in
every run's record.

Measured effect (40 back-to-back 4 s windows, one server): queries/s
coefficient of variation 10.0 % raw, 5.2 % normalised.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

NOMINAL_UNIT_SECONDS = 0.0021
"""Unit time on the quiet reference host; only fixes the scale."""

DUTY_CYCLE = 0.05


def make_unit():
    rng = np.random.default_rng(0)
    index = rng.integers(0, 4000, 20000)
    values = rng.random(20000)
    scores = np.zeros(4000)

    def unit() -> float:
        for _ in range(10):
            np.add.at(scores, index, values)
        total = 0
        for i in range(30000):
            total += i * i % 7
        return float(np.sqrt(values * 1.0001 + 1.0).sum()) + total

    return unit


def sample_forever(path: str) -> None:
    """Log ``<perf_counter> <unit cpu seconds>`` lines until SIGTERM."""
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    unit = make_unit()
    unit()
    with open(path, "w", encoding="ascii") as log:
        while not stop:
            before = time.process_time()
            unit()
            used = time.process_time() - before
            log.write(f"{time.perf_counter()!r} {used!r}\n")
            log.flush()
            time.sleep(used * (1.0 - DUTY_CYCLE) / DUTY_CYCLE)


class Calibrator:
    """The side process, and host-speed factors of windows of its log."""

    def __init__(self, log_path: Path) -> None:
        self.log_path = log_path
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(log_path)]
        )

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def factor(self, start: float, end: float) -> float:
        """Median unit time in ``[start, end]`` over the nominal one."""
        samples = np.loadtxt(self.log_path, ndmin=2)
        inside = samples[(samples[:, 0] >= start) & (samples[:, 0] <= end), 1]
        if inside.size < 5:
            raise RuntimeError(
                f"only {inside.size} calibration samples in a "
                f"{end - start:.2f} s window"
            )
        return float(np.median(inside) / NOMINAL_UNIT_SECONDS)


if __name__ == "__main__":
    sample_forever(sys.argv[1])
