"""The ``repro-cc serve`` process the ledger measures against.

The server runs in its own process, so client and server do not share
one interpreter lock.  :class:`ServerProcess` picks a free port, starts
``python -m repro.cli serve --no-limits`` from the checkout's ``src/``,
waits for ``/v1/healthz``, samples the process's CPU time and resident
set from ``/proc/<pid>``, and terminates it on every exit path: the
owning run stops it in a ``finally`` (SIGINT and SIGTERM unwind to it),
and the child is also asked to receive SIGTERM if the benchmark process
dies without unwinding.
"""

from __future__ import annotations

import ctypes
import os
import signal
import socket
import subprocess
import sys
import time

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def die_with_parent() -> None:
    """Runs in a child (before exec, for the server): SIGTERM it when
    the parent dies."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):
        pass


class ServerProcess:
    """One ``repro.serve`` server in a child process."""

    #: ports tried before giving up (another process may grab a port
    #: between the probe and the server's bind)
    ATTEMPTS = 5
    START_TIMEOUT = 60.0

    def __init__(self, src_dir: str):
        self.src_dir = src_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir
        env.pop("REPRO_CACHE_DIR", None)  # no process-wide caches
        for _ in range(self.ATTEMPTS):
            self.port = _free_port()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--no-limits", "--host", "127.0.0.1",
                 "--port", str(self.port)],
                env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, preexec_fn=die_with_parent)
            try:
                healthy = self._wait_healthy()
            except BaseException:  # interrupted while waiting
                self.stop()
                raise
            if healthy:
                return self
            self.stop()
        raise RuntimeError("repro serve did not become healthy")

    def _wait_healthy(self) -> bool:
        from repro.serve import ServeClient
        deadline = time.monotonic() + self.START_TIMEOUT
        client = ServeClient("127.0.0.1", self.port, timeout=5.0,
                             keep_alive=False)
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False  # exited, most likely the port was taken
            try:
                if client.request("GET", "/v1/healthz").get("ok"):
                    return True
            except OSError:
                time.sleep(0.01)
        return False

    def stop(self) -> None:
        """Terminate the server and wait until it has exited."""
        proc, self.proc = self.proc, None
        if proc is None or proc.poll() is not None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    # -- /proc sampling -------------------------------------------------

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server process so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[0] is field 3 (state); utime/stime are fields 14/15
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def rss_mb(self) -> float:
        """Current resident set size of the server process, in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
        return 0.0
