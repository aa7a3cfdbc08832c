"""Shared plumbing: locations, child processes with their peak RSS, timing
statistics and the machine description stored with every result.

Imports nothing large, so run.py can start the Launcher first."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150


def require_program():
    """Fail before doing anything when the library sources are absent."""
    if not (SRC / "finsemi" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no finsemi sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


@dataclass
class PassResult:
    """One pass of a workload, measured or traced."""
    times: list     # seconds per timed step, in the same order every pass
    problems: list  # per checked operation, what its output got wrong
    rss_mb: float = 0.0                         # highest child peak RSS
    detail: dict = field(default_factory=dict)  # further per-pass figures


class ChildResult:
    __slots__ = ("returncode", "wall_s", "rss_mb", "stdout", "stderr")

    def __init__(self, returncode, wall_s, rss_mb, stdout, stderr):
        self.returncode = returncode
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


class Launcher:
    """Runs measured children through launch.py, a helper started before
    this process grows, so each child's peak RSS is its own (see launch.py).
    Create it before importing numpy or the library; close it at the end."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, tag):
        """Run argv to completion; output goes to files under WORK so a
        large JSON never blocks a pipe, and is read back afterwards."""
        out_path = WORK / f"{tag}.out"
        err_path = WORK / f"{tag}.err"
        req = {"argv": argv, "env": child_env(), "cwd": str(ROOT),
               "stdout": str(out_path), "stderr": str(err_path),
               "timeout": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        rep = json.loads(line)
        return ChildResult(rep["returncode"], rep["wall_s"],
                           rep["maxrss_kb"] / 1024.0,
                           out_path.read_text(encoding="utf-8", errors="replace"),
                           err_path.read_text(encoding="utf-8", errors="replace"))

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)


def cli_argv(*args):
    return [sys.executable, "-m", "finsemi.cli", *args]


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def startup_seconds(launcher, reps=5):
    """Median time for a fresh interpreter to import finsemi.cli."""
    times = []
    for k in range(reps):
        res = launcher.run([sys.executable, "-c", "import finsemi.cli"],
                           f"startup{k}")
        if res.returncode != 0:
            raise RuntimeError(f"importing finsemi.cli failed: {res.stderr}")
        times.append(res.wall_s)
    return median(times)


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cgroup_memory_limit():
    """The memory limit of this process's cgroup in bytes, or None if unset."""
    for path in ("/sys/fs/cgroup/memory.max",
                 "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        raw = _read(path)
        if raw is None:
            continue
        if raw == "max" or int(raw) >= 1 << 62:
            return None
        return int(raw)
    return None


def git_commit():
    """HEAD of the checkout, or None when ROOT is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def machine_info():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_memory_limit_bytes": cgroup_memory_limit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }
