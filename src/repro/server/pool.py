"""Pre-fork multi-worker serving: N processes, one shared listen socket.

Python's GIL caps one process's query throughput no matter how many
connections the asyncio front-end multiplexes.  The pool escapes it the
classic pre-fork way: the parent binds the listening socket, forks ``N``
workers, and every worker accepts from the *same* socket — the kernel
load-balances connections, no proxy hop, no port juggling.

Each worker builds its **own** :class:`~repro.serving.PPVService` from a
``service_factory`` callable *after* the fork, so per-worker state with
process affinity (the scheduler drain thread, open file handles such as
a :class:`~repro.storage.ppv_store.DiskPPVStore`'s) is never shared
across processes, while the big read-only inputs the factory closes
over (graph, index) are inherited copy-on-write — every worker opens
the index read-only without paying for a copy.

:class:`ServerPool` is the inspectable lifecycle object (start, look up
worker pids, SIGKILL one deterministically, stop, read exit codes) that
the fault-injection suites drive; :func:`run_pool` wraps it with the
signal plumbing a foreground CLI run needs.

Requires a platform with the ``fork`` start method (Linux, most BSDs);
:class:`ServerPool` says so loudly otherwise.  Hot ``swap_index``
requests apply to the worker that received them — with shared-nothing
workers a cluster-wide swap is a client-side fan-out (one swap per
connection until ``stats`` shows every pid swapped) or a rolling
restart.
"""

from __future__ import annotations

import multiprocessing
import signal
import socket

from repro import native
from repro.server.server import PPVServer, ServerConfig


def _raise_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt


def _worker_main(
    worker_index: int, sock, service_factory, config, fault_plan=None
) -> None:
    """Entry point of one forked worker: build, serve, clean up."""
    import asyncio

    # The parent's handlers must not fire twice; the server installs its
    # own graceful SIGTERM/SIGINT handling inside the event loop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sock = _worker_socket(worker_index, sock)
    service = service_factory()
    server = PPVServer(
        service, config, worker_index=worker_index, fault_plan=fault_plan
    )
    try:
        asyncio.run(server.serve(sock=sock))
    finally:
        service.close()


def _worker_socket(worker_index: int, inherited: socket.socket):
    """The listen socket one worker should accept from.

    Worker 0 keeps the inherited (parent-bound) socket so the port is
    never without a listener; the others bind their own ``SO_REUSEPORT``
    siblings to the same address, which makes the *kernel* hash incoming
    connections evenly across workers — a shared accept queue lets one
    event loop grab a whole burst of connections while its siblings
    idle.  Falls back to the shared queue where ``SO_REUSEPORT`` is
    unavailable.
    """
    if worker_index == 0:
        return inherited
    try:
        own = socket.create_server(
            inherited.getsockname()[:2], family=socket.AF_INET,
            backlog=128, reuse_port=True,
        )
    except (OSError, ValueError):  # pragma: no cover - platform-dependent
        # ValueError: this platform's socket module has no SO_REUSEPORT
        # (create_server refuses before even trying to bind).
        return inherited
    own.setblocking(False)
    inherited.close()
    return own


def open_listen_socket(host: str, port: int, backlog: int = 128) -> socket.socket:
    """Bind the pool's primary listening socket (port 0 picks a free
    port).  Bound with ``SO_REUSEPORT`` where available so worker
    processes can join the kernel's load-balancing group with their own
    sockets (:func:`_worker_socket`)."""
    try:
        sock = socket.create_server(
            (host, port), family=socket.AF_INET, backlog=backlog,
            reuse_port=True,
        )
    except (OSError, ValueError):  # pragma: no cover - platform-dependent
        sock = socket.create_server(
            (host, port), family=socket.AF_INET, backlog=backlog,
        )
    sock.setblocking(False)
    return sock


class ServerPool:
    """A pre-fork worker pool with an inspectable lifecycle.

    Use as a context manager (or :meth:`start` / :meth:`stop`)::

        with ServerPool(factory, workers=2) as pool:
            host, port = pool.address
            ...
            pool.kill_worker(1)          # fault injection: SIGKILL

    Parameters
    ----------
    service_factory:
        Zero-argument callable building one worker's ``PPVService``.
        Called inside each worker after the fork; whatever it closes
        over is inherited copy-on-write.
    workers:
        Number of processes (>= 1; 1 still forks, for a uniform
        lifecycle).
    config:
        Transport tunables; ``config.host``/``config.port`` name the
        shared socket.
    fault_plan:
        Tests only: a :class:`repro.faults.FaultPlan` inherited by every
        worker across the fork and installed on its
        :class:`~repro.server.server.PPVServer` — a ``kill`` rule on the
        ``server.request`` site SIGKILLs the worker that hit it.
    """

    def __init__(
        self,
        service_factory,
        workers: int,
        config: ServerConfig | None = None,
        fault_plan=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform-dependent
            raise RuntimeError(
                "multi-worker serving needs the 'fork' start method; "
                "run with --workers 1 on this platform"
            ) from None
        self.service_factory = service_factory
        self.num_workers = workers
        self.config = config or ServerConfig()
        self.fault_plan = fault_plan
        self.children: list = []
        self.address: tuple | None = None
        self._sock: socket.socket | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle

    def start(self, announce=None) -> tuple:
        """Bind the shared socket, fork the workers, return the address.

        ``announce`` (if given) receives the bound ``(host, port)``
        before the first worker starts.
        """
        if self._sock is not None:
            raise RuntimeError("pool already started")
        # Build / map the compiled kernels before the fork and before
        # binding: workers inherit the library and never build, and a
        # machine that cannot build them refuses here (Unavailable).
        native.load()
        self._sock = open_listen_socket(self.config.host, self.config.port)
        try:
            self.address = self._sock.getsockname()[:2]
            if announce is not None:
                announce(self.address)
            for index in range(self.num_workers):
                child = self._context.Process(
                    target=_worker_main,
                    args=(
                        index,
                        self._sock,
                        self.service_factory,
                        self.config,
                        self.fault_plan,
                    ),
                    name=f"ppv-worker-{index}",
                    daemon=False,
                )
                child.start()
                self.children.append(child)
        except BaseException:
            self.stop()
            raise
        return self.address

    def __enter__(self) -> "ServerPool":
        if self._sock is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def join(self) -> None:
        """Block until every worker exits on its own."""
        for child in self.children:
            child.join()

    def stop(self) -> int:
        """Tear the pool down and return the worst worker exit code.

        Graceful first (workers drain in-flight work on SIGTERM), then
        force whatever ignored it; finally the shared socket closes.
        Idempotent.
        """
        try:
            for child in self.children:
                if child.is_alive():
                    child.terminate()
            for child in self.children:
                child.join(timeout=30)
            for child in self.children:
                if child.is_alive():  # pragma: no cover - last resort
                    child.kill()
                    child.join()
        finally:
            if self._sock is not None:
                self._sock.close()
                self._sock = None
        return self.worst_exit_code()

    # ------------------------------------------------------------------ #
    # Inspection / fault injection

    @property
    def pids(self) -> list:
        """Worker pids, by worker index."""
        return [child.pid for child in self.children]

    def alive_workers(self) -> list[int]:
        """Indices of workers currently running."""
        return [
            index
            for index, child in enumerate(self.children)
            if child.is_alive()
        ]

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker — no drain, no cleanup (fault injection).

        The port keeps serving as long as any sibling lives; the killed
        worker's in-flight connections die with it, which is exactly the
        failure the lifecycle suites assert clients survive.
        """
        child = self.children[index]
        if child.is_alive():
            child.kill()
        child.join(timeout=30)

    def exitcodes(self) -> list:
        """Per-worker exit codes (``None`` while still running;
        negative = killed by that signal, the multiprocessing
        convention)."""
        return [child.exitcode for child in self.children]

    def worst_exit_code(self) -> int:
        """The pool's aggregate exit code, shell convention.

        A worker torn down by our own SIGTERM is a clean exit; any
        other signal death maps to ``128 + signum`` so a crashed worker
        can never masquerade as success.
        """
        worst = 0
        for child in self.children:
            code = child.exitcode or 0
            if code == -signal.SIGTERM or code == 0:
                continue
            worst = max(worst, 128 - code if code < 0 else code)
        return worst


def run_pool(
    service_factory,
    workers: int,
    config: ServerConfig | None = None,
    announce=None,
    fault_plan=None,
) -> int:
    """Serve with ``workers`` pre-forked processes until interrupted.

    The foreground CLI entry point over :class:`ServerPool`: it adds the
    signal forwarding a terminal run needs (a SIGTERM/SIGINT to the pool
    parent must reach the workers — the parent's default action would
    orphan them mid-serve) and blocks until the workers exit.

    Returns the worst worker exit code (0 when all exited cleanly).
    """
    pool = ServerPool(
        service_factory, workers, config=config, fault_plan=fault_plan
    )
    pool.start(announce)
    restore = []
    try:
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                restore.append(
                    (signum, signal.signal(signum, _raise_interrupt))
                )
        except ValueError:  # not the main thread (embedded use)
            pass
        try:
            pool.join()
        except KeyboardInterrupt:
            pass
    finally:
        for signum, handler in restore:
            signal.signal(signum, handler)
        worst = pool.stop()
    return worst
