"""Run context, child processes and result collection shared by the workloads."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import median

# A single CLI request takes seconds; this only stops a hung child.
CHILD_TIMEOUT_S = 60.0


@dataclass
class Context:
    root: Path  # checkout root; the library is imported from root/src
    work: Path  # scratch directory for generated inputs and CLI outputs
    seed: int
    seconds: float
    trace: bool

    def env(self, threads: str | None = None) -> dict:
        """Environment for a CLI child: src first on the path, FTS_THREADS
        set to ``threads`` or removed (automatic)."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop("FTS_THREADS", None)
        if threads is not None:
            env["FTS_THREADS"] = threads
        return env

    def fts(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "ftsmooth.cli", *args]


@dataclass
class Child:
    wall_s: float
    maxrss_mib: float
    returncode: int
    stderr: str


def run_child(args: list[str], env: dict, cwd: Path) -> Child:
    """Run one process to completion; wall time and its own peak RSS."""
    with open(cwd / "child.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, text)


def closed_loop(seconds: float, unit) -> int:
    """Call unit() back to back, one at a time, until the window is used.

    A unit is not started when it would mostly fall outside the window,
    so every run measures whole units. Returns the number of units run.
    """
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        unit()
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(walls) / 2 >= seconds:
            return len(walls)


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    gates: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str,
               samples: int | None = None, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit,
                              "samples": samples, "note": note}

    def check(self, name: str, error: float, tol: float, what: str) -> None:
        """Record one correctness check; repeated checks of a name keep
        the worst error, and any error above tol (or NaN) fails the gate."""
        g = self.gates.setdefault(
            name, {"ok": True, "checks": 0, "worst": 0.0, "tol": tol,
                   "what": what})
        g["checks"] += 1
        if not error <= tol:
            g["ok"] = False
        if not error <= g["worst"]:
            g["worst"] = error

    def require(self, name: str, ok: bool, what: str) -> None:
        self.check(name, 0.0 if ok else 1.0, 0.0, what)

    @property
    def correct(self) -> bool:
        """Every gate passed, and at least one op completed to be checked."""
        return (self.failed < self.attempted and bool(self.gates)
                and all(g["ok"] for g in self.gates.values()))
