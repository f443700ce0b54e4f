"""Start, time and stop ``repro serve`` daemons and ``repro worker`` processes.

Every process runs from the checkout root with ``PYTHONPATH=src``, exactly
as a user would start it; the traced variants go through
``perfbench/traced.py`` instead of ``python -m repro``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds a daemon (or worker) gets to come up before the run fails.
START_TIMEOUT = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _launcher(traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "traced.py")]
    return [sys.executable, "-m", "repro"]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Daemon:
    """One ``repro serve`` process (plus one ``repro worker`` when remote)."""

    def __init__(
        self, store: Path, executor: str, traced: bool, work: Path
    ) -> None:
        from repro.serve import ServeClient

        self.port = _free_port()
        self.worker = None
        self.worker_trace = work / f"worker-{self.port}.json"
        self._log = open(work / f"daemon-{self.port}.log", "wb")
        command = _launcher(traced) + [
            "serve",
            "--store",
            str(store),
            "--port",
            str(self.port),
        ]
        # A shell that starts the benchmark in the background ignores
        # SIGINT, and children inherit an ignored signal.  Restore Python's
        # handler, so that the daemon and worker inherit SIG_DFL and stop()
        # can drain them instead of waiting out its timeout.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        listen = None
        if executor == "remote":
            listen = f"127.0.0.1:{_free_port()}"
            command += ["--executor", "remote", "--listen", listen]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            if listen is not None:
                env = _env()
                if traced:
                    env["PERFBENCH_TRACE_FILE"] = str(self.worker_trace)
                self.worker = subprocess.Popen(
                    _launcher(traced)
                    + ["worker", "--connect", listen, "--jobs", "1"],
                    cwd=ROOT,
                    env=env,
                    stdout=self._log,
                    stderr=subprocess.STDOUT,
                )
            self.client = ServeClient(port=self.port, timeout=120.0)
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        healthy = False
        while time.monotonic() < deadline:
            for proc in (self.process, self.worker):
                if proc is not None and proc.poll() is not None:
                    self._log.flush()
                    tail = Path(self._log.name).read_text(errors="replace")[-2000:]
                    raise RuntimeError(
                        f"{proc.args[1:3]} exited with {proc.returncode} "
                        f"during start-up:\n{tail}"
                    )
            try:
                if not healthy:
                    self.client.health()
                    healthy = True
                if self.worker is None:
                    return
                if self.client.stats()["workers"]["count"] >= 1:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError(f"daemon not ready after {START_TIMEOUT}s")

    def peak_rss_mb(self) -> float:
        total = vm_hwm_mb(self.process.pid)
        if self.worker is not None:
            total += vm_hwm_mb(self.worker.pid)
        return total

    def trace_snapshot(self) -> list[dict]:
        """Running layer totals of the daemon (and worker), traced only."""
        snapshots = [self.client.stats()["perfbench_trace"]]
        if self.worker is not None:
            with open(self.worker_trace) as handle:
                snapshots.append(json.load(handle))
        return snapshots

    def stop(self) -> None:
        """Drain the daemon with SIGINT, then reap the worker; kill on timeout."""
        for proc in (self.process, self.worker):
            if proc is None or proc.poll() is not None:
                continue
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._log.close()
