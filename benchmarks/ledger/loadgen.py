"""Seeded request streams and the ledger's own TCP load generator.

One process, ``CONNECTIONS`` sockets (= ``nproc`` of the target host),
``WINDOW`` requests outstanding per socket, written directly over
``protocol.encode`` + a socket so every request carries its own due /
sent / done timestamps (``PPVClient.query_many`` hides them, and needs a
thread per connection).

* :func:`closed_loop` — each connection sends its next request only when
  a reply frees a slot: callers that wait.  Latency = done - sent.
* :func:`open_loop` — requests go out on a fixed schedule whatever the
  server does: independent users.  Latency = done - *due*, so the wait a
  stall imposes on later arrivals is counted, and how late the generator
  itself ran is reported (:attr:`Phase.late_ms`).

The streams are pure functions of ``--seed``; the program under test only
ever sees the generated requests.
"""

from __future__ import annotations

import json
import os
import select
import socket
import time
from dataclasses import dataclass, field

import numpy as np

CONNECTIONS = 2
WINDOW = 8
PHASE_TIMEOUT = 150.0
"""Hard wall-clock bound on one phase; outstanding requests fail."""

_TICKS = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------- #
# Streams


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def unique_nodes(seed: int, count: int, num_nodes: int) -> list[int]:
    """``count`` nodes as back-to-back seeded permutations: no node
    repeats within any ``num_nodes`` consecutive requests."""
    rng = _rng(seed, 1)
    passes = -(-count // num_nodes)
    nodes = np.concatenate([rng.permutation(num_nodes) for _ in range(passes)])
    return nodes[:count].tolist()


def zipf_ranks(seed: int, count: int, support: int, s: float = 1.1) -> np.ndarray:
    """``count`` popularity ranks in ``[0, support)`` with P(r) ∝ (r+1)^-s.

    Stratified: every seed gets the *same multiset* of ranks — rank r
    appears ``count * P(r)`` times, rounded by largest remainder — in a
    seeded order.  The cache therefore sees the same popularity
    histogram on every seed and only the arrival order varies, which
    takes the sampling noise of the hot items' counts out of the hit
    ratio (and so out of the latency metrics)."""
    weights = np.arange(1, support + 1, dtype=np.float64) ** -s
    expected = count * weights / weights.sum()
    counts = np.floor(expected).astype(np.int64)
    short = count - int(counts.sum())
    counts[np.argsort(counts - expected, kind="stable")[:short]] += 1
    ranks = np.repeat(np.arange(support), counts)
    return _rng(seed, 2).permutation(ranks)


def family_mask(seed: int, count: int, share: float) -> np.ndarray:
    """True where a request of the mixed stream is the minority family:
    exactly ``round(count * share)`` positions, in a seeded order."""
    mask = np.zeros(count, dtype=bool)
    mask[:round(count * share)] = True
    return _rng(seed, 3).permutation(mask)


def poisson_offsets(seed: int, count: int, rate: float) -> np.ndarray:
    """Arrival times (seconds from phase start) of a Poisson process."""
    return np.cumsum(_rng(seed, 4).exponential(1.0 / rate, size=count))


def sample_positions(seed: int, count: int, sample: int) -> list[int]:
    """Which stream positions the correctness check keeps replies for."""
    picks = _rng(seed, 5).choice(count, size=min(sample, count), replace=False)
    return sorted(picks.tolist())


def ppv_body(node: int, serving: dict) -> dict:
    return {"verb": "query", "node": int(node), "eta": serving["eta"],
            "top": serving["top"]}


def top_k_body(node: int, serving: dict) -> dict:
    return {"verb": "query", "node": int(node), "top_k": serving["top_k"],
            "top": serving["top"]}


# --------------------------------------------------------------------- #
# Statistics


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


TAIL_SEGMENTS = 5
"""A latency sample of at least 1000 is cut into this many consecutive
segments and the tail is the *median of the per-segment percentiles*: one
stalled batch (sixteen replies at once, in a 2x8 closed loop) then moves
one segment, not the metric."""


def tail_segments(samples: int) -> int:
    return TAIL_SEGMENTS if samples >= 1000 else 1


def tail_percentile(samples: int) -> int:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it
    in each of the sample's segments."""
    per_segment = samples // tail_segments(samples)
    for q in (99, 95, 90, 75):
        if per_segment * (100 - q) >= 1000:
            return q
    return 50


def segment_percentile(values, q: float, segments: int) -> float:
    """Median over consecutive segments of each segment's ``q``-th
    percentile (the plain percentile when ``segments`` is 1)."""
    parts = np.array_split(np.asarray(values, dtype=np.float64), segments)
    return float(np.median([np.percentile(part, q) for part in parts]))


# --------------------------------------------------------------------- #
# /proc sampling of the serving processes


def proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of ``pid`` so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


# --------------------------------------------------------------------- #
# The generator


@dataclass
class Phase:
    """Everything one timed phase observed, per request position."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    iterations: np.ndarray
    started: float = 0.0
    finished: float = 0.0
    cpu_seconds: float = 0.0
    request_bytes: int = 0
    reply_bytes: int = 0
    backlog: np.ndarray | None = None
    kept: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return int(self.ok.size)

    @property
    def answered(self) -> int:
        return int(self.ok.sum())

    @property
    def failed(self) -> int:
        return self.attempted - self.answered

    @property
    def seconds(self) -> float:
        return self.finished - self.started

    def latencies_ms(self, from_due: bool) -> np.ndarray:
        """Latencies of the answered requests (failures have none)."""
        origin = self.due if from_due else self.sent
        return (self.done[self.ok] - origin[self.ok]) * 1e3

    @property
    def late_ms(self) -> float:
        """Mean lateness of the generator's own sends against schedule."""
        return float(np.mean(self.sent - self.due) * 1e3)

    @property
    def cpu_share(self) -> float:
        return self.cpu_seconds / self.seconds

    def backlog_growth(self) -> float:
        """Mean outstanding requests over the last quarter of arrivals
        minus the mean over the second quarter; a backlog that is still
        growing when arrivals stop shows up as a large positive value."""
        quarter = self.backlog.size // 4
        return float(
            self.backlog[-quarter:].mean()
            - self.backlog[quarter:2 * quarter].mean()
        )


class _Wire:
    """The generator's sockets plus reply bookkeeping for one phase."""

    def __init__(self, address, bodies: list[dict], keep) -> None:
        from repro.server import protocol

        self.sockets = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(address, timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sockets.append(sock)
        self.buffers = [b""] * CONNECTIONS
        self.outstanding = [0] * CONNECTIONS
        count = len(bodies)
        self.lines = [
            protocol.encode({"v": protocol.PROTOCOL_VERSION, "id": position,
                             **body})
            for position, body in enumerate(bodies)
        ]
        self.keep = set(keep)
        self.phase = Phase(
            due=np.zeros(count), sent=np.zeros(count), done=np.zeros(count),
            ok=np.zeros(count, dtype=bool),
            iterations=np.zeros(count, dtype=np.int64),
        )
        self.answered = 0

    def close(self) -> None:
        for sock in self.sockets:
            sock.close()

    def send(self, position: int, connection: int, due: float) -> None:
        phase = self.phase
        line = self.lines[position]
        phase.due[position] = due
        phase.sent[position] = time.perf_counter()
        self.sockets[connection].sendall(line)
        phase.request_bytes += len(line)
        self.outstanding[connection] += 1

    def receive(self, timeout: float) -> list[int]:
        """Wait up to ``timeout`` for replies; returns the connections
        that had a slot freed, once per reply."""
        readable, _, _ = select.select(self.sockets, [], [], max(0.0, timeout))
        freed: list[int] = []
        for sock in readable:
            connection = self.sockets.index(sock)
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.phase.reply_bytes += len(chunk)
            data = self.buffers[connection] + chunk
            *lines, self.buffers[connection] = data.split(b"\n")
            for line in lines:
                self._reply(line)
                self.outstanding[connection] -= 1
                freed.append(connection)
        return freed

    def _reply(self, line: bytes) -> None:
        phase = self.phase
        message = json.loads(line)
        position = message["id"]
        phase.done[position] = time.perf_counter()
        self.answered += 1
        if message.get("ok") is True:
            phase.ok[position] = True
            phase.iterations[position] = message["result"].get("iterations", 0)
        else:
            phase.errors.append(message.get("error"))
        if position in self.keep:
            phase.kept[position] = message


def _finish(wire: _Wire, cpu_before: float) -> Phase:
    phase = wire.phase
    phase.finished = time.perf_counter()
    phase.cpu_seconds = time.process_time() - cpu_before
    wire.close()
    return phase


def closed_loop(address, bodies: list[dict], keep=()) -> Phase:
    """``CONNECTIONS`` × ``WINDOW`` closed loop over ``bodies`` in order."""
    wire = _Wire(address, bodies, keep)
    count = len(bodies)
    cpu_before = time.process_time()
    started = wire.phase.started = time.perf_counter()
    next_position = 0
    for connection in range(CONNECTIONS):
        for _ in range(WINDOW):
            if next_position < count:
                wire.send(next_position, connection, time.perf_counter())
                next_position += 1
    try:
        while wire.answered < count:
            remaining = PHASE_TIMEOUT - (time.perf_counter() - started)
            if remaining <= 0:
                break
            for connection in wire.receive(remaining):
                if next_position < count:
                    wire.send(next_position, connection, time.perf_counter())
                    next_position += 1
    except (ConnectionError, OSError) as error:
        wire.phase.errors.append(repr(error))
    return _finish(wire, cpu_before)


def open_loop(address, bodies: list[dict], offsets, keep=()) -> Phase:
    """Send ``bodies[i]`` at ``offsets[i]`` seconds after the start,
    round-robin over the connections, whatever has come back."""
    wire = _Wire(address, bodies, keep)
    count = len(bodies)
    backlog = wire.phase.backlog = np.zeros(count)
    cpu_before = time.process_time()
    started = wire.phase.started = time.perf_counter()
    next_position = 0
    try:
        while wire.answered < count:
            now = time.perf_counter()
            while next_position < count and started + offsets[next_position] <= now:
                wire.send(next_position, next_position % CONNECTIONS,
                          started + offsets[next_position])
                next_position += 1
                backlog[next_position - 1] = next_position - wire.answered
                now = time.perf_counter()
            if now - started > PHASE_TIMEOUT:
                break
            if next_position < count:
                wait = started + offsets[next_position] - now
            else:
                wait = PHASE_TIMEOUT - (now - started)
            wire.receive(wait)
    except (ConnectionError, OSError) as error:
        wire.phase.errors.append(repr(error))
    return _finish(wire, cpu_before)
