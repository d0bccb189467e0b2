"""The basket workloads: {Base, GHB, TP, TK} x 13 benchmarks at n=30000.

Runs as a child process of ``run.py`` (so imports and trace generation are
timed from a fresh interpreter)::

    python perfbench/basket.py measure basket-lo --seed 0 --seconds 10 --out r.json
    python perfbench/basket.py setup   basket-lo --seed 0 --out s.json
    python perfbench/basket.py trace   basket-lo --seed 0 --out t.json

and, to (re)record the reference results the runs are checked against::

    python perfbench/basket.py record --seeds 0 1 2

Each cell is one serial ``run_trace`` call with default arguments, in one
process, with no executor or result store.  Host seconds are measured per
cell; ipc, cycles and a digest of ``stats_report()`` are simulated outputs
and must equal the references recorded for the seed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (
    WORK, WORK_CPU, Report, add_program_path, end_to_end, fail_line, fresh_dir,
    hermetic_env, median, percentile, run_script, samples_beyond,
    validate_trace,
)
from probes import Probes, add_into, ns_to_s, private_tracer

N_INSTRUCTIONS = 30_000
MECHANISMS = ("Base", "GHB", "TP", "TK")
#: Split of the 26 benchmarks by Base L1D miss rate at n=30000, seed 0
#: (recorded in references/seed-0.json as ``base_l1d_miss``).
BASKETS = {
    "basket-lo": ("eon", "wupwise", "sixtrack", "perlbmk", "vortex", "crafty",
                  "bzip2", "galgel", "applu", "mesa", "swim", "art", "equake"),
    "basket-hi": ("facerec", "fma3d", "gap", "gcc", "gzip", "parser", "mgrid",
                  "twolf", "apsi", "ammp", "vpr", "lucas", "mcf"),
}
REFERENCES = Path(__file__).resolve().parent / "references"
#: Mechanism classes whose hooks are probed, and the hooks.
HOOKS = ("probe", "on_access", "on_miss", "on_refill", "on_evict",
         "on_prefetch_fill")

Inputs = Dict[str, Tuple[list, Any]]
Outcome = List[Any]  # [ipc, cycles, stats digest]


def build_inputs(benchmarks: Sequence[str], seed: int,
                 tracer: Any = None) -> Inputs:
    """Each benchmark's (trace, image), from its registry spec shifted by
    ``seed``; seed 0 is the registry workload itself."""
    add_program_path()
    from repro.workloads.base import SyntheticWorkload
    from repro.workloads.registry import get_spec

    inputs: Inputs = {}
    for name in benchmarks:
        spec = get_spec(name)
        spec = dataclasses.replace(spec, seed=spec.seed + seed)
        if tracer is not None:
            tracer.begin("workloads.build", cat="workloads", benchmark=name)
        inputs[name] = SyntheticWorkload(spec).build(N_INSTRUCTIONS)
        if tracer is not None:
            tracer.end(records=len(inputs[name][0]))
    return inputs


def cells(benchmarks: Sequence[str]) -> List[Tuple[str, str]]:
    return [(b, m) for b in benchmarks for m in MECHANISMS]


def simulate(benchmark: str, mechanism: str, inputs: Inputs) -> Any:
    """One cell: the program's default ``run_trace`` on a fresh machine."""
    from repro.core.simulation import run_trace
    from repro.mechanisms.registry import create

    trace, image = inputs[benchmark]
    return run_trace(trace, create(mechanism), image=image,
                     benchmark=benchmark, mechanism_name=mechanism)


def outcome(result: Any) -> Outcome:
    stats = json.dumps(result.stats, sort_keys=True)
    return [result.ipc, result.cycles,
            hashlib.sha256(stats.encode()).hexdigest()[:20]]


def load_references(seed: int) -> Optional[Dict[str, Outcome]]:
    path = REFERENCES / f"seed-{seed}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("n") != N_INSTRUCTIONS:
        return None
    return payload["cells"]


class Checker:
    """Judges each cell's simulated outputs.

    With references for the seed, a cell is correct when it equals them.
    Without, it must equal the first pass's value for the same cell and
    report the post-warm-up instruction count.
    """

    def __init__(self, references: Optional[Dict[str, Outcome]]) -> None:
        self.references = references
        self.seen: Dict[str, Outcome] = {}

    def ok(self, key: str, got: Outcome, instructions: int) -> bool:
        if self.references is not None:
            return self.references.get(key) == got
        expected = N_INSTRUCTIONS - int(N_INSTRUCTIONS * 0.2)
        first = self.seen.setdefault(key, got)
        return first == got and instructions == expected


def run_pass(plan: Sequence[Tuple[str, str]], inputs: Inputs,
             checker: Checker, tracer: Any = None,
             probes: Optional[Probes] = None,
             on_result: Any = None) -> Tuple[List[float], List[str]]:
    """Simulate every cell once; return per-cell host seconds and failures."""
    seconds: List[float] = []
    failures: List[str] = []
    for benchmark, mechanism in plan:
        key = f"{benchmark}/{mechanism}"
        if tracer is not None:
            tracer.begin("bench.cell", cat="bench", benchmark=benchmark,
                         mechanism=mechanism)
        start = time.perf_counter()
        try:
            result = simulate(benchmark, mechanism, inputs)
        except Exception as exc:  # a crashing cell is a failed operation
            result = None
            failures.append(f"{key}: {type(exc).__name__}: {exc}")
        seconds.append(time.perf_counter() - start)
        if tracer is not None:
            layers = probes.take() if probes is not None else {}
            tracer.end(**{k: list(v) for k, v in layers.items()})
            if on_result is not None:
                on_result(layers, result)
        if result is not None and not checker.ok(
                key, outcome(result), result.instructions):
            failures.append(f"{key}: simulated stats differ from reference")
    return seconds, failures


# -- modes -------------------------------------------------------------------------

def mode_setup(benchmarks: Sequence[str], seed: int) -> Dict[str, Any]:
    build_inputs(benchmarks, seed)
    return {"setup_s": time.perf_counter() - _T0}


def mode_measure(benchmarks: Sequence[str], seed: int,
                 seconds: float) -> Dict[str, Any]:
    """Set up, then passes over every cell until ``seconds`` have passed."""
    inputs = build_inputs(benchmarks, seed)
    setup_s = time.perf_counter() - _T0
    setup_end_ns = time.monotonic_ns()
    checker = Checker(load_references(seed))
    plan = cells(benchmarks)
    passes: List[List[float]] = []
    spans: List[Tuple[int, int]] = []
    failures: List[str] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        start_ns = time.monotonic_ns()
        cell_s, failed = run_pass(plan, inputs, checker)
        spans.append((start_ns, time.monotonic_ns()))
        if not passes:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(cell_s)
        failures.extend(failed)
    return {
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "setup_end_ns": setup_end_ns,
        "passes": passes,
        "spans": spans,
        "records_per_pass": sum(len(inputs[b][0]) for b, _ in plan),
        "attempted": len(plan) * len(passes),
        "failed": len(failures),
        "failures": failures[:10],
        "referenced": checker.references is not None,
    }


def _install_probes(probes: Probes) -> None:
    """Probe every hot boundary the simulator crosses."""
    from repro.cache.cache import Cache
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.cache.mshr import MSHRFile
    from repro.cpu.ooo import OoOCore
    from repro.dram.constant import ConstantLatencyMemory
    from repro.dram.controller import SDRAMController
    from repro.kernel.engine import Simulator
    from repro.kernel.resources import Bus, MultiPortResource
    from repro.mechanisms.registry import create

    access_keys = {name: f"cache.{name}.access" for name in ("l1d", "l1i", "l2")}
    targets: List[Tuple[type, str, Any]] = [
        (OoOCore, "run", "cpu.run"),
        (MemoryHierarchy, "load", "cache.load"),
        (MemoryHierarchy, "store", "cache.store"),
        (MemoryHierarchy, "fetch_instruction", "cache.ifetch"),
        (MemoryHierarchy, "advance", "cache.advance"),
        (Cache, "access", lambda cache: access_keys[cache.name]),
        (MultiPortResource, "acquire", "kernel.port_acquire"),
        (Bus, "acquire", "kernel.bus_acquire"),
        (Simulator, "run_until", "kernel.run_until"),
        (Simulator, "schedule", "kernel.schedule"),
        (SDRAMController, "access", "dram.access"),
        (ConstantLatencyMemory, "access", "dram.access"),
    ]
    targets += [(MSHRFile, name, "cache.mshr")
                for name in ("occupancy", "lookup", "allocate_time", "insert")]
    for acronym in MECHANISMS[1:]:
        cls = type(create(acronym))
        targets += [(cls, hook, f"mechanisms.{acronym}.hook") for hook in HOOKS]
    # Resolve every method before patching any, so a subclass never wraps
    # its base's probe a second time.
    resolved = [(cls, name, key, getattr(cls, name)) for cls, name, key in targets]
    for cls, name, key, fn in resolved:
        probes.patch(cls, name, key, fn)


def mode_trace(benchmarks: Sequence[str], seed: int,
               trace_path: Path) -> Dict[str, Any]:
    """Untraced pass, then a traced pass with every layer attributed."""
    add_program_path()
    from repro.core import simulation

    tracer = private_tracer()
    tracer.begin("bench.setup", cat="bench")
    inputs = build_inputs(benchmarks, seed, tracer=tracer)
    tracer.end()
    checker = Checker(load_references(seed))
    plan = cells(benchmarks)

    start = time.perf_counter()
    _, failures = run_pass(plan, inputs, checker)
    untraced_s = time.perf_counter() - start

    probes = Probes()
    totals: Dict[str, List[int]] = {}
    sim = {"l1d": [0, 0], "l2": [0, 0], "useful": 0, "issued": 0,
           "commits": 0, "attempts": 0}
    cores: List[Any] = []
    real_build = simulation.build_machine

    def capture_build(*args: Any, **kwargs: Any) -> Any:
        core, hierarchy = real_build(*args, **kwargs)
        cores.append(core)
        return core, hierarchy

    def on_result(layers: Dict[str, Tuple[int, int, int]], result: Any) -> None:
        add_into(totals, layers)
        speculation = getattr(cores[-1], "speculation", None) if cores else None
        if speculation is not None:
            sim["commits"] += speculation.commits
            sim["attempts"] += speculation.commits + speculation.aborts
        if result is None:
            return
        stats = result.stats
        for level in ("l1d", "l2"):
            prefix = f"memory.{level}."
            sim[level][0] += (stats[prefix + "read_misses"]
                              + stats[prefix + "write_misses"])
            sim[level][1] += stats[prefix + "reads"] + stats[prefix + "writes"]
        if result.mechanism != "Base":
            sim["useful"] += result.useful_prefetches
            sim["issued"] += result.prefetches_issued

    _install_probes(probes)
    simulation.build_machine = capture_build
    try:
        tracer.begin("bench.traced_pass", cat="bench")
        start = time.perf_counter()
        _, traced_failures = run_pass(plan, inputs, checker, tracer=tracer,
                                      probes=probes, on_result=on_result)
        traced_s = time.perf_counter() - start
        tracer.end()
    finally:
        simulation.build_machine = real_build
        probes.remove()
    tracer.stop()
    tracer.export(str(trace_path))

    build_spans = [e for e in tracer.events if e.get("name") == "workloads.build"]
    layers = basket_layers(totals, sim)
    layers["workloads.build_s"] = sum(e["dur"] for e in build_spans) / 1e6
    layers["workloads.records"] = sum(len(inputs[b][0]) for b in benchmarks)
    if not has_speculation(cores):
        layers.pop("cpu.spec_commit_ratio")
    failures += traced_failures
    return {
        "layers": layers,
        "trace_overhead": traced_s / untraced_s,
        "attempted": 2 * len(plan),
        "failed": len(failures),
        "failures": failures[:10],
    }


def has_speculation(cores: Sequence[Any]) -> bool:
    """Whether the program's core still has a trace-speculation fast path."""
    if cores:
        return hasattr(cores[0], "speculation")
    add_program_path()
    from repro.core.simulation import build_machine

    return hasattr(build_machine()[0], "speculation")


def basket_layers(totals: Dict[str, List[int]],
                  sim: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from summed probe counters and simulated stats."""
    def calls(key: str) -> int:
        return totals.get(key, (0, 0, 0))[0]

    def total_s(key: str) -> float:
        return ns_to_s(totals.get(key, (0, 0, 0))[1])

    def self_s(key: str) -> float:
        return ns_to_s(totals.get(key, (0, 0, 0))[2])

    layers: Dict[str, float] = {
        "cpu.run_s": total_s("cpu.run"),
        "cpu.self_s": self_s("cpu.run"),
        "cpu.spec_commit_ratio": _ratio(sim["commits"], sim["attempts"]),
        "cache.load_calls": calls("cache.load"),
        "cache.store_calls": calls("cache.store"),
        "cache.ifetch_calls": calls("cache.ifetch"),
        "cache.hierarchy_self_s": sum(
            self_s(k) for k in ("cache.load", "cache.store", "cache.ifetch")),
        "cache.advance_calls": calls("cache.advance"),
        "cache.advance_self_s": self_s("cache.advance"),
        "cache.l1d.access_calls": calls("cache.l1d.access"),
        "cache.l1i.access_calls": calls("cache.l1i.access"),
        "cache.l2.access_calls": calls("cache.l2.access"),
        "cache.l1d.access_self_s": self_s("cache.l1d.access"),
        "cache.l2.access_self_s": self_s("cache.l2.access"),
        "cache.mshr_calls": calls("cache.mshr"),
        "cache.mshr_s": total_s("cache.mshr"),
        "cache.l1d.miss_ratio": _ratio(*sim["l1d"]),
        "cache.l2.miss_ratio": _ratio(*sim["l2"]),
        "kernel.port_acquire_calls": calls("kernel.port_acquire"),
        "kernel.port_acquire_s": total_s("kernel.port_acquire"),
        "kernel.bus_acquire_calls": calls("kernel.bus_acquire"),
        "kernel.bus_acquire_s": total_s("kernel.bus_acquire"),
        "kernel.run_until_calls": calls("kernel.run_until"),
        "kernel.run_until_s": total_s("kernel.run_until"),
        "kernel.schedule_calls": calls("kernel.schedule"),
        "dram.access_calls": calls("dram.access"),
        "dram.access_s": total_s("dram.access"),
        "mechanisms.prefetch_useful_ratio": _ratio(sim["useful"], sim["issued"]),
    }
    for acronym in MECHANISMS[1:]:
        key = f"mechanisms.{acronym}.hook"
        layers[f"{key}_calls"] = calls(key)
        layers[f"{key}_s"] = total_s(key)
    return layers


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- the parent's side: one benchmark run -------------------------------------------

#: Set-ups per run; the reported set-up time is their median.
SETUPS = 3


def measure(workload: str, seed: int, seconds: float, sampler: Any) -> Report:
    """Untraced run: set-up samples, passes, checked cells."""
    args = [workload, "--seed", str(seed)]
    child, report = run_script(
        "basket.py", ["measure", *args, "--seconds", str(seconds)],
        hermetic_env(fresh_dir("cache-")), WORK_CPU)
    setups = [report["setup_s"] * sampler.factor(
        child.start_ns, report["setup_end_ns"], [WORK_CPU])]
    for _ in range(SETUPS - 1):
        extra, setup = run_script("basket.py", ["setup", *args],
                                  hermetic_env(fresh_dir("cache-")), WORK_CPU)
        setups.append(setup["setup_s"] * sampler.factor(
            extra.start_ns, extra.end_ns, [WORK_CPU]))
    passes = report["passes"]
    raw_s = [sum(p) for p in passes]
    pass_s = [raw * sampler.factor(start, end, [WORK_CPU])
              for raw, (start, end) in zip(raw_s, report["spans"])]
    cell_s = [s for p in passes for s in p]
    metrics = end_to_end(setups, pass_s, report["peak_rss_mb"])
    attempted, failed = report["attempted"], report["failed"]
    sim_ips = report["records_per_pass"] / median(raw_s)
    lines = [
        f"{workload} seed={seed}: {len(passes)} passes of "
        f"{len(passes[0])} cells, n={N_INSTRUCTIONS}"
        + ("" if report["referenced"] else
           " (no recorded references for this seed: cells checked "
           "pass against pass)"),
        f"  setup_s       {metrics['setup_s']:.4f} s  (median of {len(setups)}; "
        f"raw {report['setup_s']:.4f} s in the measuring process)",
        f"  sim_ips       {sim_ips:.1f} 1/s  (records per raw host second)",
        *cell_lines(cell_s),
        f"  wall_s        {metrics['wall_s']:.4f} s  (median pass; raw "
        f"{median(raw_s):.4f} s)",
        f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB  (set-up and first pass)",
        fail_line(attempted, failed),
    ]
    return Report(attempted, failed, metrics, lines, report["failures"])


def cell_lines(cell_s: Sequence[float]) -> List[str]:
    """Per-cell host seconds: the median and the highest percentile with at
    least ten samples beyond it, with the sample count."""
    return [
        f"  cell_s_p50    {percentile(cell_s, 50):.4f} s  (n={len(cell_s)})",
        f"  cell_s_p80    {percentile(cell_s, 80):.4f} s  (n={len(cell_s)}, "
        f"{samples_beyond(cell_s, 80)} beyond)",
    ]


def trace(workload: str, seed: int) -> Report:
    """Traced run: per-layer metrics and the tracing overhead."""
    _, report = run_script("basket.py", ["trace", workload, "--seed", str(seed)],
                           hermetic_env(fresh_dir("cache-")))
    layers = dict(report["layers"])
    layers["bench.trace_overhead"] = report["trace_overhead"]
    failures = list(report["failures"])
    invalid = validate_trace(report["trace_path"])
    if invalid:
        failures.append(invalid)
    return Report(report["attempted"] + 1, report["failed"] + bool(invalid),
                  layers,
                  [f"{workload} seed={seed}: trace -> {report['trace_path']}"],
                  failures)


# -- reference recording -------------------------------------------------------------

def record(seeds: Sequence[int]) -> None:
    """Write ``references/seed-<s>.json`` for every basket cell."""
    benchmarks = BASKETS["basket-lo"] + BASKETS["basket-hi"]
    REFERENCES.mkdir(exist_ok=True)
    for seed in seeds:
        inputs = build_inputs(benchmarks, seed)
        results = {f"{b}/{m}": simulate(b, m, inputs) for b, m in cells(benchmarks)}
        payload = {
            "n": N_INSTRUCTIONS,
            "seed": seed,
            "base_l1d_miss": {b: round(results[f"{b}/Base"].l1_miss_rate, 4)
                              for b in benchmarks},
            "cells": {key: outcome(r) for key, r in results.items()},
        }
        with open(REFERENCES / f"seed-{seed}.json", "w", encoding="utf-8") as out:
            json.dump(payload, out, separators=(",", ":"), sort_keys=True)
            out.write("\n")
        print(f"seed {seed}: {len(results)} cells", flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/basket.py")
    parser.add_argument("mode", choices=("measure", "setup", "trace", "record"))
    parser.add_argument("workload", nargs="?", choices=sorted(BASKETS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, nargs="*", default=[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "record":
        record(args.seeds)
        return 0
    benchmarks = BASKETS[args.workload]
    if args.mode == "setup":
        report = mode_setup(benchmarks, args.seed)
    elif args.mode == "measure":
        report = mode_measure(benchmarks, args.seed, args.seconds)
    else:
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        report = mode_trace(benchmarks, args.seed, trace_path)
        report["trace_path"] = str(trace_path)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
