"""Plumbing shared by the benchmark's workloads.

Paths, hermetic child processes (with their wall time and peak resident
memory), order statistics and the result line.  Imports only the standard
library, so a workload can time the program's own imports from zero.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout root: the benchmark runs from here and touches nothing
#: outside it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Trace exports; ignored by git.
WORK = ROOT / ".perfbench"
#: Temporary directories (fresh caches, child output), removed after a run.
TMP = WORK / "tmp"

PYTHON = sys.executable or "python3"

#: Settings that would let a user's environment reach a measurement: a
#: shared result/workload/code cache, an armed fault plan or sanitizer, a
#: ledger that grows on every CLI call, a scaled-down trace length.
_CLEARED_ENV = (
    "REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_CODE_CACHE",
    "REPRO_WORKLOAD_CACHE", "REPRO_LEDGER", "REPRO_BENCH_N",
)

#: No single child may outlive this (the whole run must end in 180 s).
CHILD_TIMEOUT_S = 150.0

#: Serial work runs pinned to this CPU, next to its host-speed sampler.
CPUS = tuple(sorted(os.sched_getaffinity(0)))
WORK_CPU = CPUS[0]


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")


def add_program_path() -> None:
    """Make the program importable in this process, from ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(prefix: str) -> Path:
    """A new empty directory under :data:`TMP`."""
    TMP.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP))


def hermetic_env(cache_dir: Path) -> Dict[str, str]:
    """The child environment: program on the path, caches in ``cache_dir``."""
    env = {k: v for k, v in os.environ.items() if k not in _CLEARED_ENV}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildRun:
    """One finished child process."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    #: Peak resident set of the child or of any process it reaped (a
    #: worker pool), whichever is largest.
    peak_rss_mb: float
    #: ``time.monotonic_ns()`` at launch and at exit.
    start_ns: int
    end_ns: int


def run_child(argv: Sequence[str], env: Dict[str, str],
              cpu: Optional[int] = None,
              timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run ``argv`` to completion from :data:`ROOT`, reaping it with wait4.

    Output goes to files, not pipes, so nothing but the child runs
    between the two clock reads.  ``cpu`` pins the child (and whatever it
    starts) to one CPU.  A child that overruns ``timeout`` is killed (and
    reported with a negative return code).
    """
    out_dir = fresh_dir("child-")
    try:
        with open(out_dir / "out", "w+b") as out, \
                open(out_dir / "err", "w+b") as err:
            start_ns = time.monotonic_ns()
            start = time.perf_counter()
            proc = subprocess.Popen(list(argv), cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            if cpu is not None:
                os.sched_setaffinity(proc.pid, {cpu})
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            end_ns = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return ChildRun(proc.returncode,
                            out.read().decode("utf-8", "replace"),
                            err.read().decode("utf-8", "replace"),
                            wall, usage.ru_maxrss / 1024.0, start_ns, end_ns)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


class ChildFailed(RuntimeError):
    """A child the benchmark depends on could not measure."""


def run_script(script: str, args: Sequence[str], env: Dict[str, str],
               cpu: Optional[int] = None) -> Tuple[ChildRun, dict]:
    """Run one of the benchmark's scripts; return its run and JSON report."""
    out_dir = fresh_dir("report-")
    try:
        out = out_dir / "report.json"
        child = run_child([PYTHON, str(BENCH / script), *args,
                           "--out", str(out)], env, cpu)
        report = read_json(out)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if child.returncode != 0 or report is None:
        raise ChildFailed(f"{script} {' '.join(args)} exited "
                          f"{child.returncode}: {child.stderr[-2000:]}")
    return child, report


# -- order statistics ----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie above the nearest-rank ``q``-th percentile's rank."""
    n = len(values)
    return n - max(1, math.ceil(q / 100.0 * n))


# -- reports ---------------------------------------------------------------------

@dataclass
class Report:
    """What one run of a workload found."""

    attempted: int
    failed: int
    #: Metric name -> value (units come from BENCHMARK.json).
    metrics: Dict[str, float]
    #: Human-readable lines printed before the result line.
    lines: List[str]
    failures: List[str]


def end_to_end(setup: Sequence[float], wall: Sequence[float],
               rss_mb: float) -> Dict[str, float]:
    """The bounded metrics every workload reports: medians of
    speed-normalised times (see ``speed.py``), and peak memory."""
    return {"setup_s": median(setup), "wall_s": median(wall),
            "peak_rss_mb": rss_mb}


def validate_trace(path: str) -> Optional[str]:
    """Why the program's own ``validate-trace`` rejects ``path``, if it does."""
    child = run_child([PYTHON, "-m", "repro.obs", "validate-trace", path],
                      hermetic_env(fresh_dir("cache-")))
    if child.returncode == 0:
        return None
    return f"trace {path} invalid: {(child.stdout + child.stderr)[-500:]}"


def fail_line(attempted: int, failed: int) -> str:
    return (f"  fail_ratio    {failed / attempted:.4f}  "
            f"({failed} of {attempted} operations)")


# -- the result line -------------------------------------------------------------

def result_line(attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The final JSON line; ``metrics`` maps name -> ``(value, unit)``."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=False)


def say(line: str) -> None:
    """A human-readable report line (stdout, before the result line)."""
    print(line, flush=True)


def note(line: str) -> None:
    """A diagnostic on stderr."""
    print(line, file=sys.stderr, flush=True)


def read_json(path: Path) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
