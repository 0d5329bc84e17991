"""Fork one serving process: the shard launcher and the fault suites' server.

:class:`ServerPool` binds a listen socket in the parent, so that port 0
resolves to a real port before anything forks, then forks **one**
:class:`~repro.server.server.PPVServer` process that accepts from it.
The process stays inspectable: its pid, a deterministic SIGKILL for the
fault-injection suites, and an exit code under the shell convention.

The server builds its :class:`~repro.serving.PPVService` from a
``service_factory`` callable *after* the fork, so state with process
affinity (the scheduler drain thread, open file handles such as a
:class:`~repro.storage.ppv_store.DiskPPVStore`'s) is never shared
across processes, while the big read-only inputs the factory closes
over (graph, index) are inherited copy-on-write.

A server is one process: the compiled push already spreads a batch's
rows over every CPU the process may use (:mod:`repro.native`), and one
process keeps one index at a time — a ``swap_index`` reaches every
connection it serves.

Requires a platform with the ``fork`` start method (Linux, most BSDs);
:class:`ServerPool` says so loudly otherwise.
"""

from __future__ import annotations

import multiprocessing
import signal
import socket

from repro import native
from repro.server.server import PPVServer, ServerConfig


def _serve(sock, service_factory, config, fault_plan) -> None:
    """Entry point of the forked server: build, serve, clean up."""
    import asyncio

    # A terminal's Ctrl-C reaches the whole process group.  Until the
    # server's event loop installs its graceful SIGTERM/SIGINT handling,
    # it must not interrupt the build half way; the parent stops us.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = service_factory()
    try:
        asyncio.run(
            PPVServer(service, config, fault_plan=fault_plan).serve(sock=sock)
        )
    finally:
        service.close()


class ServerPool:
    """One forked server process with an inspectable lifecycle.

    ::

        pool = ServerPool(factory)
        host, port = pool.start()
        ...
        pool.kill()          # fault injection: SIGKILL
        pool.stop()          # 137 after a kill, else 0

    Parameters
    ----------
    service_factory:
        Zero-argument callable building the server's ``PPVService``.
        Called in the child after the fork; whatever it closes over is
        inherited copy-on-write.
    workers:
        Only ``1`` is accepted: a server is one process.  The keyword
        stays because the benchmark ledger's traced launcher spells it
        out; it goes at the ledger's next re-anchor.
    config:
        Transport tunables; ``config.host``/``config.port`` name the
        listen socket.
    fault_plan:
        Tests only: a :class:`repro.faults.FaultPlan` inherited across
        the fork and installed on the child's
        :class:`~repro.server.server.PPVServer` — a ``kill`` rule on the
        ``server.request`` site SIGKILLs the server that hit it.
    """

    def __init__(
        self,
        service_factory,
        workers: int = 1,
        config: ServerConfig | None = None,
        fault_plan=None,
    ) -> None:
        if workers != 1:
            raise ValueError(
                f"a server is one process: workers must be 1, got {workers}"
            )
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform-dependent
            raise RuntimeError(
                "ServerPool needs the 'fork' start method"
            ) from None
        self.service_factory = service_factory
        self.config = config or ServerConfig()
        self.fault_plan = fault_plan
        self.process = None

    def start(self) -> tuple:
        """Bind the socket, fork the server, return the bound address."""
        if self.process is not None:
            raise RuntimeError("server already started")
        # Build / map the compiled kernels before the fork and before
        # binding: the child inherits the library and never builds, and
        # a machine that cannot build them refuses here (Unavailable).
        native.load()
        sock = socket.create_server(
            (self.config.host, self.config.port), family=socket.AF_INET,
        )
        try:
            address = sock.getsockname()[:2]
            process = self._context.Process(
                target=_serve,
                args=(sock, self.service_factory, self.config, self.fault_plan),
                name="ppv-server",
            )
            process.start()
            self.process = process
        finally:
            # The child accepts from its own copy.  Once it is gone a
            # connect is refused at once, instead of queueing on a
            # socket nobody accepts from.
            sock.close()
        return address

    def kill(self) -> None:
        """SIGKILL the server — no drain, no cleanup (fault injection).

        Its connections die with it and new ones are refused, which is
        exactly the failure the fault suites assert clients survive.
        """
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=30)

    def stop(self) -> int:
        """Stop the server and return its exit code, shell convention.

        Graceful first (the server drains in-flight work on SIGTERM),
        then SIGKILL if it ignored that.  A server torn down by our own
        SIGTERM exited cleanly (0); any other signal death maps to
        ``128 + signum`` (137 after :meth:`kill`), so a crash can never
        masquerade as success.  Idempotent; 0 if never started.
        """
        process = self.process
        if process is None:
            return 0
        if process.is_alive():
            process.terminate()
            process.join(timeout=30)
        if process.is_alive():  # pragma: no cover - last resort
            process.kill()
        process.join()
        code = process.exitcode
        if code == -signal.SIGTERM:
            return 0
        return 128 - code if code < 0 else code
