"""SIM2xx — determinism lint for the simulated path.

The RunSpec/Executor layer caches results by content hash: the same spec
must produce the same RunResult forever, on any machine, in any process.
Any nondeterminism on the simulated path poisons the content-addressed
store silently — a cached result is simply *wrong* and will be replayed
as truth.  These rules flag the classic sources before they run:

* SIM201 ``unseeded-rng`` — module-level ``random.*`` / ``np.random.*``
  calls and RNG constructors without an explicit seed.  Threading an
  explicitly seeded ``random.Random(seed)`` / ``RandomState(seed)``
  object through is the sanctioned pattern (see ``workloads/patterns.py``).
* SIM202 ``wall-clock`` — ``time.time``/``perf_counter``/``datetime.now``
  and friends; simulated time is the only clock the sim path may read.
* SIM203 ``env-read`` — ``os.environ``/``os.getenv`` inside sim-path
  packages; configuration must arrive through the RunSpec, never sideways
  through the process environment.
* SIM204 ``set-iteration`` — iterating a set (or passing one to
  ``list``/``tuple``): string hashes vary per process (PYTHONHASHSEED),
  so set order is the canonical cross-process nondeterminism.  Wrap in
  ``sorted(...)`` to fix.  Dict iteration is insertion-ordered in
  Python >= 3.7 and therefore deterministic; it is deliberately not
  flagged.
"""

from __future__ import annotations

import ast
from typing import List, Sequence

from repro.analysis.core import (
    SIM_PATH_PACKAGES,
    SourceModule,
    Violation,
    make_violation,
    rule,
    rule_by_id,
)

#: Determinism also matters in the trace *generators*: workloads must
#: thread an explicit seeded RNG, not lean on the global ``random`` state.
_PACKAGES = SIM_PATH_PACKAGES + ("workloads",)

_RANDOM_MODULES = {"random"}
_NP_RANDOM_FNS = {
    "rand", "randn", "randint", "random", "choice", "shuffle", "permutation",
    "random_sample", "uniform", "normal", "standard_normal", "seed",
}
_SEEDABLE_CTORS = {"Random", "RandomState", "default_rng", "Generator", "SystemRandom"}

_CLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "process_time"), ("time", "clock"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}


def _dotted(node: ast.AST) -> List[str]:
    """['np', 'random', 'rand'] for ``np.random.rand``; [] when not dotted."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


@rule("SIM201", "unseeded-rng", _PACKAGES,
      "global-state or unseeded RNG use on the simulated path")
def check_unseeded_rng(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.nodes(ast.Call):
        parts = _dotted(node.func)
        if not parts:
            continue
        # random.<fn>(...) on the module — shared global Mersenne state.
        if len(parts) == 2 and parts[0] in _RANDOM_MODULES:
            if parts[1] in _SEEDABLE_CTORS:
                if not node.args and not node.keywords:
                    found.append(make_violation(
                        rule_by_id("SIM201"), module, node,
                        f"{'.'.join(parts)}() constructed without a seed; "
                        "pass an explicit seed so runs are reproducible",
                    ))
            else:
                found.append(make_violation(
                    rule_by_id("SIM201"), module, node,
                    f"{'.'.join(parts)}() uses the process-global RNG; "
                    "thread an explicitly seeded random.Random through "
                    "instead",
                ))
        # np.random.<fn>(...) module-level (global state) or unseeded ctor.
        if len(parts) >= 3 and parts[-2] == "random":
            if parts[-1] in _NP_RANDOM_FNS:
                found.append(make_violation(
                    rule_by_id("SIM201"), module, node,
                    f"{'.'.join(parts[-3:])}() uses numpy's global RNG; use "
                    "np.random.RandomState(seed) / default_rng(seed)",
                ))
            elif parts[-1] in _SEEDABLE_CTORS and not node.args and not node.keywords:
                found.append(make_violation(
                    rule_by_id("SIM201"), module, node,
                    f"{'.'.join(parts[-3:])}() constructed without a seed",
                ))
    return found


@rule("SIM202", "wall-clock", SIM_PATH_PACKAGES,
      "wall-clock reads on the simulated path")
def check_wall_clock(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.nodes(ast.Call):
        parts = _dotted(node.func)
        if len(parts) < 2:
            continue
        if (parts[-2], parts[-1]) in _CLOCK_CALLS:
            found.append(make_violation(
                rule_by_id("SIM202"), module, node,
                f"{'.'.join(parts)}() reads the wall clock; simulated time "
                "(the cycle counter) is the only clock the sim path may use",
            ))
    return found


@rule("SIM203", "env-read", SIM_PATH_PACKAGES,
      "environment reads on the simulated path")
def check_env_read(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.nodes(ast.Call, ast.Subscript, ast.Attribute):
        parts: List[str] = []
        if isinstance(node, ast.Call):
            parts = _dotted(node.func)
        elif isinstance(node, ast.Subscript):
            parts = _dotted(node.value)
        elif isinstance(node, ast.Attribute):
            parts = _dotted(node)
        if len(parts) >= 2 and parts[-2] == "os" and parts[-1] in (
                "getenv", "environ"):
            found.append(make_violation(
                rule_by_id("SIM203"), module, node,
                "environment read on the simulated path; configuration must "
                "arrive through the RunSpec so it is part of the content hash",
            ))
        elif len(parts) >= 2 and "environ" in parts[:-1] and isinstance(
                node, ast.Call):
            found.append(make_violation(
                rule_by_id("SIM203"), module, node,
                "environment read on the simulated path; configuration must "
                "arrive through the RunSpec so it is part of the content hash",
            ))
    # Deduplicate nested matches (os.environ.get is a Call over an Attribute).
    unique = {}
    for violation in found:
        unique.setdefault((violation.path, violation.line), violation)
    return list(unique.values())


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@rule("SIM204", "set-iteration", SIM_PATH_PACKAGES,
      "iteration over a set (order varies with PYTHONHASHSEED)")
def check_set_iteration(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.nodes(ast.For, ast.ListComp, ast.SetComp,
                             ast.DictComp, ast.GeneratorExp, ast.Call):
        iterable = None
        if isinstance(node, ast.For):
            iterable = node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterable = node.generators[0].iter
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple", "iter", "enumerate") and node.args:
                iterable = node.args[0]
        if iterable is not None and _is_set_expr(iterable):
            found.append(make_violation(
                rule_by_id("SIM204"), module, node,
                "iterating a set: element order depends on PYTHONHASHSEED "
                "and poisons content-addressed results; use sorted(...)",
            ))
    return found
