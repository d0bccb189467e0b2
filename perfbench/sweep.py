"""The sweep workload: ``python -m repro fig10 --jobs 2``, cold then warm.

Each pair of passes shares one fresh result-store directory: the cold pass
builds the 26 workloads inside the pool workers, simulates 78 cells and
writes the store; the warm pass must serve all 78 from it.  Both must
print exactly ``benchmarks/out/figure_10.txt``.  The inputs are fixed, so
``--seed`` does not apply.

Child modes, run by ``run.py``::

    python perfbench/sweep.py setup --out s.json   # cold import of the CLI
    python perfbench/sweep.py trace --out t.json   # both passes, in process
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from common import (
    PYTHON, ROOT, WORK, WORK_CPU, Report, add_program_path, end_to_end,
    fail_line, fresh_dir, hermetic_env, median, run_child, run_script,
    validate_trace,
)
from probes import Patches, private_tracer, span_self_us

ARGS = ("fig10", "--jobs", "2")
N_RESULTS = 78  # 26 benchmarks x {Base, TCP queue 1, TCP queue 128}
N_INSTRUCTIONS = 30_000
EXPECTED = ROOT / "benchmarks" / "out" / "figure_10.txt"
SETUPS = 3
_SUMMARY = re.compile(r"executor: (\d+) results, (\d+) simulated, "
                      r"\d+ cache hits \(\d+ memo, (\d+) store")


def check_pass(returncode: int, stdout: str, stderr: str, warm: bool,
               expected: str) -> Optional[str]:
    """Why a pass failed, or ``None``."""
    if returncode != 0:
        return f"exit status {returncode}: {stderr[-500:]}"
    if stdout != expected:
        return f"stdout differs from {EXPECTED.relative_to(ROOT)}"
    if warm:
        found = _SUMMARY.search(stderr)
        if found is None:
            return "no executor summary on stderr"
        results, simulated, stored = map(int, found.groups())
        if (results, simulated, stored) != (N_RESULTS, 0, N_RESULTS):
            return (f"warm pass: {results} results, {simulated} simulated, "
                    f"{stored} from the store")
    return None


def measure(seconds: float, sampler: Any) -> Report:
    """Untraced run: set-up samples, then cold/warm pairs of CLI passes."""
    expected = EXPECTED.read_text(encoding="utf-8")
    setups = []
    for _ in range(SETUPS):
        child, setup = run_script("sweep.py", ["setup"],
                                  hermetic_env(fresh_dir("cache-")), WORK_CPU)
        setups.append(setup["setup_s"] * sampler.factor(
            child.start_ns, child.end_ns, [WORK_CPU]))
    raw: Dict[bool, List[float]] = {False: [], True: []}
    norm: Dict[bool, List[float]] = {False: [], True: []}
    rss = 0.0
    failures: List[str] = []
    start = time.perf_counter()
    while not raw[False] or time.perf_counter() - start < seconds:
        cache = fresh_dir("cache-")
        env = hermetic_env(cache)
        for warm in (False, True):
            child = run_child([PYTHON, "-m", "repro", *ARGS], env)
            raw[warm].append(child.wall_s)
            norm[warm].append(child.wall_s * sampler.factor(child.start_ns,
                                                            child.end_ns))
            rss = max(rss, child.peak_rss_mb)
            why = check_pass(child.returncode, child.stdout, child.stderr,
                             warm, expected)
            if why:
                failures.append(f"{'warm' if warm else 'cold'} pass: {why}")
        shutil.rmtree(cache, ignore_errors=True)
    metrics = end_to_end(setups, [c + w for c, w in zip(norm[False], norm[True])],
                         rss)
    attempted = 2 * len(raw[False])
    sim_ips = N_RESULTS * N_INSTRUCTIONS / median(raw[False])
    lines = [
        f"sweep: {len(raw[False])} cold/warm pairs of python -m repro "
        f"{' '.join(ARGS)}",
        f"  setup_s       {metrics['setup_s']:.4f} s  (median of {SETUPS} "
        "cold CLI imports)",
        f"  wall_s        {metrics['wall_s']:.4f} s  (cold + warm pass)",
        f"  cold_s        {median(norm[False]):.4f} s  (cold pass; raw "
        f"{median(raw[False]):.4f} s)",
        f"  rerun_s       {median(norm[True]):.4f} s  (warm pass; raw "
        f"{median(raw[True]):.4f} s)",
        f"  sim_ips       {sim_ips:.1f} 1/s  (cold pass, records per raw "
        "host second)",
        f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB",
        fail_line(attempted, len(failures)),
    ]
    return Report(attempted, len(failures), metrics, lines, failures)


def trace() -> Report:
    """Traced run: one untraced pair for reference, then a traced pair."""
    expected = EXPECTED.read_text(encoding="utf-8")
    cache = fresh_dir("cache-")
    env = hermetic_env(cache)
    untraced = [run_child([PYTHON, "-m", "repro", *ARGS], env) for _ in range(2)]
    shutil.rmtree(cache, ignore_errors=True)
    failures = [f"untraced pass: {why}" for warm, child in enumerate(untraced)
                if (why := check_pass(child.returncode, child.stdout,
                                      child.stderr, bool(warm), expected))]
    _, report = run_script("sweep.py", ["trace"], hermetic_env(fresh_dir("cache-")))
    failures += report["failures"]
    layers = report["layers"]
    layers["bench.trace_overhead"] = (
        report["traced_s"] / sum(child.wall_s for child in untraced))
    invalid = validate_trace(report["trace_path"])
    if invalid:
        failures.append(invalid)
    attempted = len(untraced) + 2 + 1  # untraced passes, traced passes, export
    return Report(attempted, len(failures), layers,
                  [f"sweep: trace -> {report['trace_path']}"], failures)


# -- child modes -------------------------------------------------------------------

def _traced_pair(trace_path: Path) -> Dict[str, Any]:
    """Run the CLI twice in this process with exec/harness boundaries spanned."""
    add_program_path()
    import repro.__main__ as cli
    from repro.exec import Executor, ResultStore, get_default_executor
    from repro.exec.journal import SweepJournal
    from repro.harness.experiments import ExperimentResult

    expected = EXPECTED.read_text(encoding="utf-8")
    tracer = private_tracer()
    patches = Patches()
    spanned = [
        (Executor, "run", "exec.run", "exec"),
        (ResultStore, "get", "exec.store_get", "exec"),
        (ResultStore, "put", "exec.store_put", "exec"),
        (SweepJournal, "append", "exec.journal_append", "exec"),
        (ExperimentResult, "render", "harness.render", "harness"),
        (cli.EXHIBITS, "fig10", "harness.exhibit", "harness"),
    ]
    for owner, name, span, cat in spanned:
        patches.span(owner, name, tracer, span, cat)
    failures: List[str] = []
    telemetry = []
    start = time.perf_counter()
    try:
        for warm in (False, True):
            out, err = io.StringIO(), io.StringIO()
            tracer.begin("bench.pass", cat="bench", warm=warm)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(list(ARGS))
            tracer.end()
            telemetry.append(get_default_executor().telemetry)
            why = check_pass(status, out.getvalue(), err.getvalue(), warm, expected)
            if why:
                failures.append(f"traced {'warm' if warm else 'cold'} pass: {why}")
    finally:
        patches.undo()
    traced_s = time.perf_counter() - start
    tracer.stop()
    tracer.export(str(trace_path))
    return {"layers": sweep_layers(tracer.events, telemetry),
            "traced_s": traced_s, "failures": failures,
            "trace_path": str(trace_path)}


def sweep_layers(events: Sequence[Dict[str, Any]],
                 telemetry: Sequence[Any]) -> Dict[str, float]:
    """Per-layer metrics from the traced pair's spans and executor telemetry."""
    spans: Dict[str, List[float]] = {}
    for event in events:
        if event.get("ph") == "X":
            spans.setdefault(event["name"], []).append(event["dur"] / 1e6)
    passes = [e for e in events if e.get("name") == "bench.pass"]
    cold_end = passes[0]["ts"] + passes[0]["dur"] if passes else 0.0
    cold_run_s = sum(e["dur"] / 1e6 for e in events
                     if e.get("name") == "exec.run" and e["ts"] < cold_end)
    cold = telemetry[0]
    sim_s = sum(r.seconds for r in cold.records if r.source == "simulated")
    self_us = span_self_us(events)
    jobs = int(ARGS[ARGS.index("--jobs") + 1])
    return {
        "exec.run_s": cold_run_s,
        "exec.sim_s": sim_s,
        "exec.idle_ratio": 1.0 - sim_s / (jobs * cold_run_s) if cold_run_s else 0.0,
        "exec.store_put_calls": len(spans.get("exec.store_put", ())),
        "exec.store_put_s": sum(spans.get("exec.store_put", ())),
        "exec.store_get_calls": len(spans.get("exec.store_get", ())),
        "exec.store_get_s": sum(spans.get("exec.store_get", ())),
        "exec.store_hits": sum(t.store_hits for t in telemetry),
        "exec.journal_append_calls": len(spans.get("exec.journal_append", ())),
        "exec.journal_append_s": sum(spans.get("exec.journal_append", ())),
        "exec.simulated": sum(t.simulated for t in telemetry),
        "exec.retries": sum(t.retries for t in telemetry),
        "harness.render_s": (self_us.get("harness.exhibit", 0.0)
                             + self_us.get("harness.render", 0.0)) / 1e6,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/sweep.py")
    parser.add_argument("mode", choices=("setup", "trace"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        add_program_path()
        import repro.__main__  # noqa: F401  (the import is what is timed)

        report: Dict[str, Any] = {"setup_s": time.perf_counter() - _T0}
    else:
        WORK.mkdir(exist_ok=True)
        report = _traced_pair(WORK / "trace-sweep.json")
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
