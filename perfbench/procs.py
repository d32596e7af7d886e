"""Child processes of the benchmark: the service and the paper pipeline.

Every child is started from the checkout root with the checkout's
sources and the benchmark's artifact cache, and is always waited for.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, WORK, child_env, shm_segments, vm_hwm_mb

_READY_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """One service process announced through ``--ready-file``.

    ``argv`` is either ``repro serve`` itself or the benchmark's traced
    launcher; both write ``host port`` to the ready file once listening.
    """

    def __init__(self, argv: list[str], tag: str) -> None:
        slug = tag.replace(" ", "-")
        self.ready_file = WORK / f"ready-{slug}"
        self.log_path = WORK / f"server-{slug}.log"
        self.argv = [*argv, "--ready-file", str(self.ready_file)]
        self.proc: subprocess.Popen[bytes] | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.shm_before: set[str] = set()

    @classmethod
    def repro_serve(cls, tag: str) -> "ServerProcess":
        """``repro serve`` with its defaults, on a free port."""
        return cls([sys.executable, "-m", "repro", "serve", "--port", "0"], tag)

    def start(self) -> float:
        """Spawn and wait for the ready file; returns seconds to ready."""
        self.ready_file.unlink(missing_ok=True)
        self.shm_before = shm_segments()
        with self.log_path.open("wb") as log:
            t0 = time.monotonic()
            self.proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT,
            )
        while True:
            if self.ready_file.is_file():
                text = self.ready_file.read_text()
                if text.endswith("\n"):
                    ready = time.monotonic() - t0
                    host, port = text.split()
                    self.host, self.port = host, int(port)
                    return ready
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before ready; "
                    f"see {self.log_path}"
                )
            if time.monotonic() - t0 > _READY_TIMEOUT_S:
                raise RuntimeError(f"server not ready; see {self.log_path}")
            time.sleep(0.002)

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.pid)

    def signal(self, sig: signal.Signals) -> None:
        assert self.proc is not None
        self.proc.send_signal(sig)

    def stop(self) -> tuple[int, set[str]]:
        """SIGTERM, wait; returns the exit code and leaked shm segments."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        leaked = shm_segments() - self.shm_before
        self.ready_file.unlink(missing_ok=True)
        return code, leaked

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def run_child(argv: list[str], log_name: str, timeout_s: float) -> tuple[int, float]:
    """Run a helper to completion; returns its exit code and spawn time."""
    log_path = WORK / log_name
    with log_path.open("wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{argv[1]} timed out; see {log_path}") from None
    if code != 0:
        sys.stderr.write(Path(log_path).read_text()[-4000:])
    return code, t0
