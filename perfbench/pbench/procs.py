"""Starting, probing and stopping the processes under test.

Every process runs from the checkout's own ``src/`` through
:mod:`pbench.launch`, with its scratch files (port files, logs, trace
dumps, the cluster's run directory) under the work directory, and the
compiled-KB artifact cache switched off so no run leaves state for the
next one.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time

from pbench.launch import vm_hwm_kb

#: how often the port file is polled while a server starts
PORT_POLL_S = 0.002
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
CHILD_TIMEOUT_S = 170.0


class Workspace:
    """The checkout root and the benchmark's scratch directory."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.work = os.path.join(self.root, ".perfbench_work")
        self.tmp = os.path.join(self.work, "tmp")
        # nothing of an earlier run (stale port files, dumps) survives
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.tmp, exist_ok=True)
        self._serial = 0

    def path(self, name: str) -> str:
        self._serial += 1
        return os.path.join(self.work, f"{self._serial:03d}-{name}")

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([
            os.path.join(self.root, "src"),
            os.path.join(self.root, "perfbench"),
        ])
        env["REPRO_KB_CACHE_DIR"] = ""
        env["TMPDIR"] = self.tmp
        env["PYTHONHASHSEED"] = "0"
        return env

    def launch_cmd(self, mode: str, args: list[str],
                   trace_out: str | None = None) -> list[str]:
        cmd = [sys.executable, "-m", "pbench.launch"]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        return cmd + [mode, *args]


def cpu_steal_s() -> float:
    """CPU seconds the hypervisor took from this machine so far
    (``steal`` in ``/proc/stat``; 0 on bare metal) -- printed so a
    noisy neighbour shows up next to the figures it disturbed."""
    with open("/proc/stat", encoding="utf-8") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def alive(pid: int) -> bool:
    """True while *pid* runs; a zombie (an orphaned shard its new
    parent has not reaped yet) counts as ended."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


class Server:
    """One ``ppchecker serve`` (plain or ``--shards``) under test."""

    def __init__(self, ws: Workspace, serve_args: list[str],
                 trace_out: str | None = None) -> None:
        self.ws = ws
        self.port_file = ws.path("serve.port")
        self.log_path = ws.path("serve.log")
        self.trace_out = trace_out
        self.cmd = ws.launch_cmd(
            "serve", ["--port", "0", "--port-file", self.port_file,
                      *serve_args], trace_out)
        self.process: subprocess.Popen | None = None
        self.extra_pids: list[int] = []

    def start(self) -> int:
        """Spawn and wait until the port is published."""
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                self.cmd, env=self.ws.env(), cwd=self.ws.root,
                stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                with open(self.port_file, encoding="utf-8") as handle:
                    text = handle.read().strip()
                if text:
                    return int(text)
            except (OSError, ValueError):
                pass
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} "
                    f"before publishing its port; see {self.log_path}")
            if time.monotonic() > deadline:
                raise TimeoutError(f"no port in {self.port_file}")
            time.sleep(PORT_POLL_S)

    @property
    def pids(self) -> list[int]:
        assert self.process is not None
        return [self.process.pid, *self.extra_pids]

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_kb(pid) for pid in self.pids) / 1024.0

    def kill(self) -> None:
        """SIGKILL every process of the server and wait for each."""
        if self.process is None:
            return
        self.process.kill()
        self.process.wait(timeout=STOP_TIMEOUT_S)
        for pid in self.extra_pids:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
        self._await_extra_exit()
        self.process = None

    def _await_extra_exit(self) -> None:
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self.extra_pids:
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if alive(pid):
                os.kill(pid, signal.SIGKILL)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), wait, and make sure every
        process of the server -- shards included -- has ended."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=STOP_TIMEOUT_S)
        self._await_extra_exit()
        self.process = None


def spawn_child(ws: Workspace, mode: str, args: list[str],
                trace_out: str | None = None) -> subprocess.Popen:
    """Start one short-lived process under test."""
    return subprocess.Popen(
        ws.launch_cmd(mode, args, trace_out), env=ws.env(),
        cwd=ws.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish_child(process: subprocess.Popen, mode: str,
                 timeout: float = CHILD_TIMEOUT_S) -> None:
    """Wait for a child of :func:`spawn_child`; raise if it failed."""
    try:
        _out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    if process.returncode != 0:
        raise RuntimeError(
            f"{mode} child failed ({process.returncode}): "
            f"{err.decode('utf-8', 'replace')[-2000:]}")


def run_child(ws: Workspace, mode: str, args: list[str],
              trace_out: str | None = None) -> float:
    """Run one child to completion; the seconds from spawn until it
    printed its first line (or ended, when it prints nothing)."""
    started = time.monotonic()
    process = spawn_child(ws, mode, args, trace_out)
    first = process.stdout.readline()
    first_at = time.monotonic()
    finish_child(process, mode)
    return first_at - started if first else time.monotonic() - started
