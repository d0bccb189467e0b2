"""Benchmark entry point: one workload, one run, one result line.

    python3 perfbench/run.py --workload basket-lo --seed 0 --seconds 5 --trace 0

Run from the root of a checkout.  Prints a human-readable report, then as
its last stdout line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric with
``--trace 1``.  Exits nonzero, printing no result, when it cannot measure
(for instance when the checkout holds no program).

Workloads and metrics are described in ``perfbench/README.md``.  Times
are host seconds (the bounded ones speed-normalised, see ``speed.py``);
miss ratios, IPC and prefetch usefulness are simulated quantities.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from typing import Dict, Optional, Sequence, Tuple

import basket
import lint
import sweep
from common import (
    CPUS, ROOT, TMP, ChildFailed, ProgramMissing, Report, note, require_program,
    fresh_dir, result_line, say,
)
from speed import Sampler

WORKLOADS = ("basket-lo", "basket-hi", "sweep", "lint")


def _catalogue() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)`` metric name -> unit, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(workload: str, seed: int, seconds: float, traced: bool) -> Report:
    basket_run = workload in basket.BASKETS
    if traced:
        return basket.trace(workload, seed) if basket_run else (
            sweep.trace() if workload == "sweep" else lint.trace())
    with Sampler(fresh_dir("speed-"), CPUS) as sampler:
        if basket_run:
            report = basket.measure(workload, seed, seconds, sampler)
        else:
            module = sweep if workload == "sweep" else lint
            report = module.measure(seconds, sampler)
    return report


def result_metrics(report: Report, units: Dict[str, str],
                   traced: bool) -> Dict[str, Tuple[float, str]]:
    """The report's metrics in catalogue order, with their units.

    A per-layer metric the workload never touches reads 0.  The one
    metric a workload may leave out is ``cpu.spec_commit_ratio``, when
    the program has no trace-speculation fast path.
    """
    metrics = {}
    for name, unit in units.items():
        if name in report.metrics:
            metrics[name] = (report.metrics[name], unit)
        elif not traced:
            raise KeyError(f"workload reported no {name}")
        elif name != "cpu.spec_commit_ratio" or basket.has_speculation(()):
            metrics[name] = (0.0, unit)
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (basket workloads only)")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="repeat whole passes until this many seconds "
                             "have passed (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run printing per-layer metrics")
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    try:
        require_program()
        end_to_end, per_layer = _catalogue()
        report = run(args.workload, args.seed, args.seconds, traced)
        metrics = result_metrics(report, per_layer if traced else end_to_end,
                                 traced)
    except (ProgramMissing, ChildFailed, OSError, KeyError, ValueError) as exc:
        note(f"perfbench: cannot measure: {exc}")
        return 2
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    if args.workload not in basket.BASKETS and args.seed:
        note(f"perfbench: {args.workload} has fixed inputs; --seed ignored")
    for line in report.lines:
        say(line)
    for failure in report.failures:
        note(f"perfbench: FAILED {failure}")
    say(result_line(report.attempted, report.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
