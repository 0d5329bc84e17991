"""Compiled kernels for the two prime pushes and the splice round.

``kernels.c`` holds the disk engine's batch push, drained in cluster
waves (:class:`repro.storage.disk_engine._ClusterWaves`), with the
structure check of every cluster segment it reads
(:meth:`repro.storage.residency.ClusterResidency.check_segment`), the
level-synchronous :func:`repro.core.prime.prime_push_many` and one
incremental round of a batch (:func:`repro.core.splice.splice_rounds_exact`
calls ``repro_splice_round`` once per round).  They are the only
spelling ``src/`` serves with: each is pinned bit for bit against a
reference in ``tests/oracles.py`` (the per-edge drain under the Python
wave loop, ``scalar_splice_rounds``) or, for the level-synchronous
push, against its numpy rounds (``tests/test_native_kernels.py``).

Every array reaches C as a raw address (``c_void_p``, or ``bytes`` for
a stored segment), never through a numpy argtype, whose per-call check
costs microseconds per array.  The caller that builds or
receives an array checks its dtype and contiguity once, where it does
so: :func:`~repro.core.prime.prime_push_many` for the push, and the
structs' owners (``_ClusterWaves``, the splice round's batch state) for
the arrays they allocate.

A C compiler and a writable cache directory are requirements at the
first query.  A Python / numpy fallback used to serve when either was
missing; it served the disk backend at about a quarter of the compiled
``qps``, took 3.5-3.7 s for a cold ``hitting`` request against
0.65-0.80 s compiled, doubled the CI tier-1 matrix (257 s) and ran
nowhere else, so it is gone.

Threads
-------
The rows of a level-synchronous push share nothing: each is the lone
push of its source, its aggregation rule chosen from its own totals, so
a row's bytes are the same in any batch, order or thread count and a
one-CPU host serves the pinned digests of a many-CPU one.  Threads take
rows off one atomic counter; they are created and joined inside the one
C call (a small explicit stack each; nothing outlives the call, so a
forked server never inherits a thread).  :func:`push_threads` picks
the count: the CPUs in this process's affinity mask, capped at the
batch's rows (every process, a forked shard server too, uses its own
mask).  A thread the system refuses leaves the rows to fewer threads.
An allocation failure in any thread stops every thread taking rows and
surfaces as ``MemoryError``.

Build story
-----------
:func:`load` builds the library lazily, on first use, with the C compiler
already on the machine (``$CC``, else ``gcc``, else ``cc``) and
:data:`FLAGS` — once per machine per (source, flags, compiler) hash —
into :func:`cache_dir` (``$XDG_CACHE_HOME/repro-fastppv``, else
``~/.cache/repro-fastppv``), never into the source tree, so a read-only
tree builds fine.  The build writes to a temporary name and
``os.replace``\\ s it, so processes racing the first build each load a
whole library; the file name carries the hash of its own bytes, so a
truncated or foreign file is deleted and rebuilt, never loaded.  No
compiler, an unusable cache directory or a failed build raise
:class:`Unavailable` (a :class:`RuntimeError`) naming the cause and the
fix; the first failure is kept, so a process never retries the build.
The engines load the kernels when they are constructed, so a process
that cannot build them refuses before it serves.  A forking parent
calls :func:`load` before ``fork`` (``ServerPool`` does), so the child
inherits the mapped library and never builds.  ``python -m repro.native``
prints what a process would load and the threads a batch push would use.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("kernels.c")

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")
"""Everything the compiler is told.  ``-pthread`` because the batched
push's rows run on threads.  ``-ffp-contract=off`` because gcc
contracts ``a * b + c`` into a fused multiply-add by default where the
target has one (aarch64; x86-64 with ``-march=native``), which rounds
once instead of twice; no ``-ffast-math`` (licenses reassociation) and no
``-march=native`` (licenses FMA and makes the cache host-specific)."""

_FIX = "set $CC to a C compiler and $XDG_CACHE_HOME to a writable directory"


class Unavailable(RuntimeError):
    """Why this process cannot load the compiled kernels."""


class PushRun(ctypes.Structure):
    """``push_run`` of ``kernels.c``: one query's cluster-draining push.
    The pointers borrow numpy arrays the owning run object keeps alive."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in ("num_nodes", "num_clusters", "fault_budget")]
        + [(name, ctypes.c_double) for name in ("alpha", "epsilon")]
        + [
            (name, ctypes.c_void_p)
            for name in (
                "labels", "hubs", "scores", "mass", "next", "row", "slot",
                "queued", "head", "tail", "order", "border_hubs", "border_mass",
            )
        ]
        + [
            (name, ctypes.c_int64)
            for name in (
                "order_count", "border_count", "drains", "truncated", "edges",
                "pending", "pending_head", "pending_tail",
            )
        ]
    )


class PushWaves(ctypes.Structure):
    """``push_waves`` of ``kernels.c``: one batch's pushes, drained in
    cluster waves.  ``runs`` points at ``rows`` :class:`PushRun` s, the
    other pointers at numpy arrays; the owning waves object keeps all of
    them alive."""

    _fields_ = [
        ("rows", ctypes.c_int64),
        ("runs", ctypes.c_void_p),
        ("sources", ctypes.c_void_p),
        ("demand", ctypes.c_void_p),
        ("held", ctypes.c_void_p),
        ("wave", ctypes.c_int64),
    ]


class SpliceRound(ctypes.Structure):
    """``splice_round`` of ``kernels.c``: one batch's incremental rounds
    (see :func:`repro.core.splice.splice_rounds_exact`).  The pointers
    borrow the splice block's arrays and the batch's; the owning round
    state keeps all of them alive."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in ("num_nodes", "queries")]
        + [(name, ctypes.c_double) for name in ("alpha", "delta")]
        + [
            (name, ctypes.c_void_p)
            for name in (
                "row_lookup", "checked", "score_indptr", "score_indices",
                "score_data", "border_indptr", "border_indices", "border_data",
                "estimates", "rows", "starts", "counts", "next_starts",
                "next_counts", "hubs", "masses", "next_hubs", "next_masses",
                "iterations", "hubs_expanded", "work_units", "errors", "slot",
                "absent",
            )
        ]
        + [(name, ctypes.c_int64) for name in ("runnable", "capacity", "refused")]
    )


def _declare(lib: ctypes.CDLL) -> None:
    waves, address = ctypes.POINTER(PushWaves), ctypes.c_void_p
    for size in (lib.repro_run_size, lib.repro_waves_size, lib.repro_round_size):
        size.restype = ctypes.c_int64
        size.argtypes = ()
    lib.repro_waves_start.restype = None
    lib.repro_waves_start.argtypes = (waves,)
    # A cluster segment is passed as the ``bytes`` a ``ResidentCluster``
    # holds (length checked against its header): ctypes hands C the
    # object's own buffer, no copy and no numpy view.
    lib.repro_wave.restype = ctypes.c_int64
    lib.repro_wave.argtypes = (waves, ctypes.c_char_p)
    lib.repro_check_segment.restype = ctypes.c_int64
    lib.repro_check_segment.argtypes = (
        ctypes.c_int64, address, ctypes.c_int64, ctypes.c_char_p,
    )
    lib.repro_prime_push_many.restype = ctypes.c_int64
    lib.repro_prime_push_many.argtypes = (
        ctypes.c_int64, address, address, address, ctypes.c_int64, address,
        address, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
        ctypes.c_int64, address, address, address, ctypes.c_int64,
    )
    lib.repro_splice_round.restype = ctypes.c_int64
    lib.repro_splice_round.argtypes = (ctypes.POINTER(SpliceRound),)
    sizes = (lib.repro_run_size(), lib.repro_waves_size(), lib.repro_round_size())
    if sizes != tuple(map(ctypes.sizeof, (PushRun, PushWaves, SpliceRound))):
        raise Unavailable(
            "kernels.c and repro.native disagree on push_run / push_waves"
            " / splice_round"
        )


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro-fastppv``,
    else ``~/.cache/repro-fastppv``."""
    base = os.environ.get("XDG_CACHE_HOME")
    try:
        return (Path(base) if base else Path.home() / ".cache") / "repro-fastppv"
    except RuntimeError as error:  # no home directory to resolve
        raise Unavailable(str(error)) from None


def compiler() -> str:
    """The C compiler a build would run."""
    for name in (os.environ.get("CC"), "gcc", "cc"):
        path = shutil.which(name) if name else None
        if path:
            return path
    raise Unavailable("no C compiler on PATH (looked for $CC, gcc, cc)")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _build_tag(cc: str) -> str:
    """Hash of what determines the library: source, flags, compiler."""
    stat = os.stat(cc)
    identity = f"{os.path.realpath(cc)}:{stat.st_size}:{stat.st_mtime_ns}"
    return _digest(SOURCE.read_bytes() + " ".join(FLAGS).encode() + identity.encode())


def _build(cc: str, directory: Path, tag: str) -> Path:
    try:
        directory.mkdir(parents=True, exist_ok=True)
        handle, scratch = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
        os.close(handle)
    except OSError as error:
        raise Unavailable(f"cache directory {directory} is unusable ({error})") from None
    try:
        done = subprocess.run(
            [cc, *FLAGS, "-o", scratch, str(SOURCE)],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            message = " ".join(done.stderr.split())  # one line
            raise Unavailable(f"{cc} failed: {message[-400:]}")
        path = directory / f"kernels-{tag}-{_digest(Path(scratch).read_bytes())}.so"
        os.replace(scratch, path)
        return path
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _library() -> tuple[ctypes.CDLL, Path]:
    cc = compiler()
    directory, tag = cache_dir(), _build_tag(cc)
    for path in sorted(directory.glob(f"kernels-{tag}-*.so")):
        try:
            whole = _digest(path.read_bytes()) == path.stem.rsplit("-", 1)[1]
            if whole:
                return ctypes.CDLL(str(path)), path
            path.unlink()  # truncated or foreign bytes: rebuilt below
        except OSError:
            continue
    path = _build(cc, directory, tag)
    try:
        return ctypes.CDLL(str(path)), path
    except OSError as error:
        raise Unavailable(f"{path} does not load ({error})") from None


def push_threads(rows: int) -> int:
    """Threads a batched push of ``rows`` sources runs on: the CPUs this
    process may run on (its affinity mask), at least one and at most one
    per row."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity masks here
        cpus = os.cpu_count() or 1
    return max(1, min(rows, cpus))


_lock = threading.Lock()
_loaded: "list[ctypes.CDLL | str]" = []  # the library or why not; empty until load()
path: "Path | None" = None
"""The loaded library's file, once :func:`load` has loaded one."""


def load() -> ctypes.CDLL:
    """The compiled kernels (functions carry argtypes), built and loaded
    on first call.  Raises :class:`Unavailable` naming the cause and the
    fix when they cannot be; every later call raises it again without
    retrying the build."""
    global path
    if not _loaded:
        with _lock:
            if not _loaded:
                try:
                    lib, built = _library()
                    _declare(lib)
                    _loaded.append(lib)
                    path = built
                except (Unavailable, OSError) as error:
                    _loaded.append(f"compiled kernels unavailable: {error}; {_FIX}")
    if isinstance(_loaded[0], str):
        raise Unavailable(_loaded[0])
    return _loaded[0]
