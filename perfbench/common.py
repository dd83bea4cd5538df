"""Pieces shared by the end-to-end runner, the traced run and the self-test.

Everything here runs against the checkout that holds this directory: the
package is imported from ``<root>/src`` and scratch files go to
``<root>/.perfbench_out``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
PROBE = Path(__file__).resolve().parent / "probe.py"


@dataclass(frozen=True)
class Workload:
    """One benchmark input family: a random regular graph and a color config."""

    name: str
    n: int
    d: int
    epsilon: float
    ell_const: float
    why: str

    def scaled(self, scale: float) -> "Workload":
        # Reduced sizes keep the degree (and so every derived parameter) and
        # shrink the vertex count; n*d must stay even and n > d.
        n = max(self.d + 2, int(self.n * scale))
        n += (n * self.d) % 2
        return replace(self, n=n)

    def q_cap(self, delta: int) -> int:
        # ceil((1 + epsilon) * delta), with the engine's slack against
        # decimal round-up (0.2 * 100 == 20.000000000000004).
        return delta + math.ceil(self.epsilon * delta - 1e-9)


# All m = 200,000.  The "why" strings are copied into BENCHMARK.json.
# tight-eps02 is not listed there: on a 2-core shared host its timings could
# not be made steady within the run budget next to the other two, so it is
# kept for traced layer runs and the self-test only.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-d100", 4000, 100, 0.5, 2.0,
                 "paper's target regime (kappa 37 of q1 125): long alternating walks, "
                 "no restarts; stage 1 dominates color time"),
        Workload("tight-eps02", 4000, 100, 0.2, 0.02,
                 "small slack and path cap: 2.5x dense's palette per edge and ~100 "
                 "capped chains per run take the truncate-and-shift branch"),
        Workload("sparse-d4", 100000, 4, 0.5, 2.0,
                 "eps*D/6 < 1: all 4 attempts fail and greedy falls back over budget; "
                 "25x dense's vertices load per-vertex rows and label mapping"),
    )
}


def check_checkout() -> str | None:
    """Return a reason the checkout cannot be benchmarked, or None."""
    for rel in ("edgecolor/__init__.py", "edgecolor/cli.py", "edgecolor/engine.py"):
        if not (SRC / rel).is_file():
            return f"package source {SRC / rel} not found; run from a full checkout"
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    rc: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(args: list[str], work: Path, tag: str, timeout_s: float) -> ChildResult:
    """Run ``python -m edgecolor <args>`` (or ``python <args>`` when args[0] is
    ``-c`` or a script) to completion in ``work``; wall time and peak RSS are
    those of that one process, taken by launch.py.

    The command's output goes to files, not pipes, so the wait cannot
    deadlock.  On timeout the whole process group (launcher and command) is
    killed.
    """
    direct = args[0] == "-c" or args[0].endswith(".py")
    cmd = [sys.executable] + (args if direct else ["-m", "edgecolor"] + args)
    out_path = work / f"{tag}.out"
    err_path = work / f"{tag}.err"
    proc = subprocess.Popen(
        [sys.executable, str(LAUNCHER), str(out_path), str(err_path)] + cmd,
        stdout=subprocess.PIPE, env=child_env(), cwd=work, start_new_session=True,
    )
    killer = threading.Timer(max(timeout_s, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        report, _ = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:  # interrupted while waiting
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    try:
        measured = json.loads(report)
    except ValueError:
        measured = {"rc": proc.returncode or -1, "wall_s": 0.0, "maxrss_kb": 0}
    return ChildResult(
        rc=measured["rc"],
        wall_s=measured["wall_s"],
        peak_rss_mb=measured["maxrss_kb"] / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace") if out_path.exists() else "",
        stderr=err_path.read_text(encoding="utf-8", errors="replace") if err_path.exists() else "",
    )


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_stats(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs[key] = value
    return pairs


@dataclass
class Verdict:
    """Outcome of the benchmark's own check of one coloring."""

    problems: list[str]
    delta: int = 0
    colors: int = 0
    q_cap: int = 0

    @property
    def over_budget(self) -> bool:
        return self.colors > self.q_cap


def check_coloring(graph_path: Path, coloring_path: Path, stats_path: Path | None,
                   w: Workload) -> Verdict:
    """Check a coloring file against its edge list without the package's code.

    Proper: no (vertex, color) pair occurs twice.  Complete: the coloring
    lists every edge of the graph exactly once, each with a color >= 1.  The
    color count is compared with ceil((1 + epsilon) * Delta) by the caller
    (over budget is a result, not a failure).  When a stats file is given,
    its m, delta and max_color_used must match the files.
    """
    # Edge lists written by `edgecolor gen` use integer labels.
    try:
        edges = np.loadtxt(graph_path, dtype=np.int64, ndmin=2)
        cols = np.loadtxt(coloring_path, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        return Verdict([f"unparsable files: {exc}"])
    m = len(edges)
    if edges.shape[1] != 2 or cols.shape[1] != 3 or m == 0 or len(cols) != m:
        return Verdict([f"coloring has {len(cols)} lines for {m} edges"])
    problems = []
    n = int(max(edges.max(), cols[:, :2].max())) + 1
    ekeys = np.sort(edges.min(axis=1) * n + edges.max(axis=1))
    ckeys = np.sort(cols[:, :2].min(axis=1) * n + cols[:, :2].max(axis=1))
    if not np.array_equal(ekeys, ckeys):
        problems.append("coloring edges differ from the graph's edges")
    color = cols[:, 2]
    if int(color.min()) < 1:
        problems.append(f"incomplete: {int((color < 1).sum())} edges without a color")
    cmax = int(color.max())
    vc = np.concatenate([cols[:, 0], cols[:, 1]]) * (cmax + 1) + np.concatenate([color, color])
    if len(np.unique(vc)) != 2 * m:
        problems.append(f"improper: {2 * m - len(np.unique(vc))} repeated (vertex, color) pairs")
    delta = int(np.bincount(edges.ravel()).max())
    verdict = Verdict(problems, delta=delta, colors=cmax, q_cap=w.q_cap(delta))
    if stats_path is not None:
        stats = read_stats(stats_path)
        for key, want in (("m", m), ("delta", delta), ("max_color_used", cmax)):
            if stats.get(key) != str(want):
                problems.append(f"stats {key}={stats.get(key)} but the files give {want}")
    return verdict


def provenance() -> dict:
    """Host, interpreter and source identity for the results record."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "edgecolor").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }
