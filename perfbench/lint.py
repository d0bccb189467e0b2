"""The lint workload: ``python -m repro.analysis`` over the source tree.

The run must exit 0 (no findings).  The input is the program's own source,
so ``--seed`` does not apply.

Child modes, run by ``run.py``::

    python perfbench/lint.py setup --out s.json   # import + parse the tree
    python perfbench/lint.py trace --out t.json   # one rule family at a time
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from common import (
    PYTHON, WORK, WORK_CPU, Report, add_program_path, end_to_end, fail_line, fresh_dir,
    hermetic_env, median, run_child, run_script, validate_trace,
)
from probes import private_tracer

COMMAND = (PYTHON, "-m", "repro.analysis")
FAMILIES = tuple(f"SIM{i}" for i in range(1, 10))
SETUPS = 3


def _why(child: Any) -> Optional[str]:
    if child.returncode == 0:
        return None
    return f"exit status {child.returncode}: {(child.stdout + child.stderr)[-500:]}"


def measure(seconds: float, sampler: Any) -> Report:
    """Untraced run: set-up samples, then lint runs until ``seconds`` pass."""
    setups = []
    for _ in range(SETUPS):
        child, setup = run_script("lint.py", ["setup"],
                                  hermetic_env(fresh_dir("cache-")), WORK_CPU)
        setups.append(setup["setup_s"] * sampler.factor(
            child.start_ns, child.end_ns, [WORK_CPU]))
    runs: List[Any] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        cache = fresh_dir("cache-")
        runs.append(run_child(list(COMMAND), hermetic_env(cache), WORK_CPU))
        shutil.rmtree(cache, ignore_errors=True)
    failures = [why for child in runs if (why := _why(child))]
    wall = [child.wall_s * sampler.factor(child.start_ns, child.end_ns, [WORK_CPU])
            for child in runs]
    metrics = end_to_end(setups, wall, max(child.peak_rss_mb for child in runs))
    lines = [
        f"lint: {len(runs)} runs of {' '.join(COMMAND[1:])}",
        f"  setup_s       {metrics['setup_s']:.4f} s  (median of {SETUPS} "
        "cold imports + tree parses)",
        f"  wall_s        {metrics['wall_s']:.4f} s  (median run; raw "
        f"{median([c.wall_s for c in runs]):.4f} s)",
        f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB",
        fail_line(len(runs), len(failures)),
    ]
    return Report(len(runs), len(failures), metrics, lines, failures)


def trace() -> Report:
    """Traced run: one untraced lint for reference, then rule families."""
    cache = fresh_dir("cache-")
    untraced = run_child(list(COMMAND), hermetic_env(cache), WORK_CPU)
    shutil.rmtree(cache, ignore_errors=True)
    failures = [f"untraced run: {why}"] if (why := _why(untraced)) else []
    _, report = run_script("lint.py", ["trace"], hermetic_env(fresh_dir("cache-")))
    failures += report["failures"]
    layers = report["layers"]
    layers["bench.trace_overhead"] = report["traced_s"] / untraced.wall_s
    invalid = validate_trace(report["trace_path"])
    if invalid:
        failures.append(invalid)
    attempted = 3  # the untraced run, the traced run, the export
    return Report(attempted, len(failures), layers,
                  [f"lint: trace -> {report['trace_path']}"], failures)


# -- child modes -------------------------------------------------------------------

def _load() -> Any:
    add_program_path()
    import repro
    from repro.analysis.core import load_paths

    return load_paths([Path(repro.__file__).resolve().parent])


def _traced(trace_path: Path) -> Dict[str, Any]:
    """Load the tree once, then run each rule family on its own."""
    tracer = private_tracer()
    start = time.perf_counter()
    tracer.begin("analysis.load", cat="analysis")
    modules, errors = _load()
    tracer.end(files=len(modules))
    from repro.analysis.core import analyze_modules

    layers: Dict[str, float] = {}
    failures = [f"{v.path}:{v.line}: {v.rule}" for v in errors]
    for family in FAMILIES:
        tracer.begin("analysis.rule_family", cat="analysis", family=family)
        family_start = time.perf_counter()
        found = analyze_modules(modules, select=[family])
        layers[f"analysis.rule_s.{family}"] = time.perf_counter() - family_start
        tracer.end(violations=len(found))
        failures += [f"{v.path}:{v.line}: {v.rule}" for v in found]
    traced_s = time.perf_counter() - start
    tracer.stop()
    tracer.export(str(trace_path))
    load = [e for e in tracer.events if e.get("name") == "analysis.load"]
    layers["analysis.load_s"] = load[0]["dur"] / 1e6
    layers["analysis.files"] = len(modules)
    layers["analysis.lines"] = sum(m.text.count("\n") + 1 for m in modules)
    return {"layers": layers, "traced_s": traced_s, "failures": failures[:10],
            "trace_path": str(trace_path)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/lint.py")
    parser.add_argument("mode", choices=("setup", "trace"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _load()
        report: Dict[str, Any] = {"setup_s": time.perf_counter() - _T0}
    else:
        WORK.mkdir(exist_ok=True)
        report = _traced(WORK / "trace-lint.json")
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
