"""Compiled kernels for the two prime pushes and the splice round, and
the one switch.

``kernels.c`` holds operation-for-operation ports of the cluster drain
(:class:`repro.storage.disk_engine._PrimePushRun`), of the
level-synchronous :func:`repro.core.prime.prime_push_many` and of the two
products of a splice round (:class:`repro.core.splice.SpliceBlock`).  The
Python / numpy code they take off the hot path stays — as the fallback when no
compiler is present, and as the oracle the ports are pinned against bit
for bit (``tests/test_native_kernels.py``).

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
compiler, an unwritable cache directory or a failed build mean **one**
``RuntimeWarning`` and the fallback — same bits, the Python speed.  A
pre-forking parent calls :func:`load` before ``fork`` (``ServerPool``
does), so workers inherit the mapped library and never build.

One switch, read once: ``REPRO_NATIVE=0`` in the environment at import
forces the fallback for the whole process.  ``python -m repro.native``
prints what a process would use.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

SOURCE = Path(__file__).with_name("kernels.c")

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
"""Everything the compiler is told.  ``-ffp-contract=off`` because gcc
contracts ``a * b + c`` into a fused multiply-add by default where the
target has one (aarch64; x86-64 with ``-march=native``), which rounds
once instead of twice; no ``-ffast-math`` (licenses reassociation) and no
``-march=native`` (licenses FMA and makes the cache host-specific)."""

DISABLED = os.environ.get("REPRO_NATIVE", "") == "0"
"""The one switch, read once at import."""


class Unavailable(Exception):
    """Why this process runs the fallback."""


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
                "order_count", "border_count", "drains", "truncated",
                "pending", "pending_head", "pending_tail",
            )
        ]
    )


def _array(dtype, ndim=1):
    return ndpointer(dtype=dtype, ndim=ndim, flags="C_CONTIGUOUS")


def _declare(lib: ctypes.CDLL) -> None:
    run = ctypes.POINTER(PushRun)
    lib.repro_run_size.restype = ctypes.c_int64
    lib.repro_run_size.argtypes = ()
    lib.repro_run_start.restype = None
    lib.repro_run_start.argtypes = (run, ctypes.c_int64)
    lib.repro_next_cluster.restype = ctypes.c_int64
    lib.repro_next_cluster.argtypes = (run,)
    # The four arrays of a resident cluster are validated, typed and
    # held by ``ResidentCluster``; the drain passes their addresses.
    lib.repro_drain.restype = ctypes.c_int64
    lib.repro_drain.argtypes = (run, ctypes.c_int64) + (ctypes.c_void_p,) * 4
    lib.repro_prime_push_many.restype = ctypes.c_int64
    lib.repro_prime_push_many.argtypes = (
        ctypes.c_int64, _array(np.int64), _array(np.int32), _array(np.float64),
        ctypes.c_int64, _array(np.int64), _array(np.uint8),
        ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
        _array(np.float64, 2), _array(np.float64, 2), _array(np.int64),
    )
    i64, f64 = _array(np.int64), _array(np.float64)
    lib.repro_splice_scores.restype = ctypes.c_int64
    lib.repro_splice_scores.argtypes = (
        ctypes.c_int64, ctypes.c_int64, i64, f64, i64, i64, i64, f64, f64,
    )
    lib.repro_splice_borders.restype = ctypes.c_int64
    lib.repro_splice_borders.argtypes = (
        ctypes.c_int64, ctypes.c_int64, i64, i64, f64, i64, i64, f64,
        i64, i64, f64, i64,
    )
    if lib.repro_run_size() != ctypes.sizeof(PushRun):
        raise Unavailable("kernels.c and repro.native disagree on push_run")


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
            raise Unavailable(f"{cc} failed: {done.stderr.strip()[-400:]}")
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


_lock = threading.Lock()
_loaded: "list[ctypes.CDLL | None]" = []  # empty until the first load()
path: "Path | None" = None
"""The loaded library's file, once :func:`load` has loaded one."""
reason = "REPRO_NATIVE=0" if DISABLED else ""
"""Why :func:`load` returned ``None`` (empty while it has not)."""


def load() -> "ctypes.CDLL | None":
    """The compiled kernels (functions carry argtypes), built and loaded
    on first call; ``None`` when this process runs the Python / numpy
    fallback — ``REPRO_NATIVE=0``, or, after one ``RuntimeWarning``, no
    way to build."""
    global path, reason
    if _loaded:
        return _loaded[0]
    with _lock:
        if not _loaded:
            lib = None
            if not DISABLED:
                try:
                    lib, path = _library()
                    _declare(lib)
                except (Unavailable, OSError) as error:
                    lib, path, reason = None, None, str(error)
                    warnings.warn(
                        f"repro.native: {reason}; serving with the Python / "
                        "numpy kernels (same results, slower)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            _loaded.append(lib)
    return _loaded[0]
