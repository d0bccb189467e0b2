"""SIM6xx — robustness discipline.

The fault-tolerance layer (:mod:`repro.exec.policy`) gives failures one
sanctioned shape: an attempt either propagates its exception (so the
retry machinery can count, back off and re-run it) or is deliberately
converted into a :class:`~repro.exec.policy.FailedRun` hole that stays
visible in grids, tables and the ledger.  What it must never do is
evaporate — a ``try/except`` that catches broadly and carries on turns a
mis-simulated cell into a silently wrong number, which is precisely the
methodological rot the paper warns about.

* SIM601 ``swallowed-exception`` — an ``except`` handler in a sim-path
  package that catches ``Exception``/``BaseException`` (or everything,
  via a bare ``except:``) without re-raising or referencing
  ``FailedRun``, or any handler whose whole body is ``pass``.
  Legitimate sites (best-effort cleanup that re-raises elsewhere,
  benign races on garbage deletion) carry an
  ``# simlint: allow[SIM601] <reason>`` justification.

* SIM602 ``trapped-interrupt`` — an ``except`` handler that names
  ``KeyboardInterrupt`` or ``SystemExit`` without re-raising or routing
  through the shutdown layer (:mod:`repro.exec.shutdown`).  Since the
  graceful-shutdown work, Ctrl-C and SIGTERM are *requests* the sweep
  must honour — drain, flush the journal, exit ``128 + signum`` — and a
  handler that traps the interrupt and carries on breaks that contract:
  the operator's second signal is then the only way out, and it loses
  the drain.  Handlers that re-raise (the standard
  ``except KeyboardInterrupt: raise`` pass-through) or reference the
  shutdown manager / :class:`~repro.exec.shutdown.SweepInterrupted` are
  sanctioned; anything else needs an
  ``# simlint: allow[SIM602] <reason>``.
"""

from __future__ import annotations

import ast
from typing import Callable, List, Sequence

from repro.analysis.core import (
    SIM_PATH_PACKAGES,
    SourceModule,
    Violation,
    make_violation,
    rule,
    rule_by_id,
)

#: The sim path plus the execution layer that shepherds its failures.
_PACKAGES = SIM_PATH_PACKAGES + ("exec",)

#: Exception names considered catch-everything.
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _caught_names(handler: ast.ExceptHandler) -> List[str]:
    """The exception names a handler catches ([] for a bare ``except:``)."""
    node = handler.type
    if node is None:
        return []
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for item in nodes:
        if isinstance(item, ast.Name):
            names.append(item.id)
        elif isinstance(item, ast.Attribute):
            names.append(item.attr)
    return names


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except catches everything
    return any(name in _BROAD_NAMES for name in _caught_names(handler))


def _handler_escapes(
    handler: ast.ExceptHandler, sanctioned: Callable[[str], bool]
) -> bool:
    """Whether the handler body raises or references a ``sanctioned`` name."""
    for node in handler.body:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Raise):
                return True
            if isinstance(inner, ast.Name) and sanctioned(inner.id):
                return True
            if isinstance(inner, ast.Attribute) and sanctioned(inner.attr):
                return True
    return False


def _converts(name: str) -> bool:
    """A reference that converts the failure to a FailedRun (SIM601)."""
    return name == "FailedRun"


def _is_pass_only(handler: ast.ExceptHandler) -> bool:
    return all(isinstance(node, ast.Pass) for node in handler.body)


#: Interrupt-class exceptions a sweep must honour, never trap (SIM602).
_INTERRUPT_NAMES = frozenset({"KeyboardInterrupt", "SystemExit"})


def _routes_shutdown(name: str) -> bool:
    """Whether a reference defers an interrupt to the shutdown layer (SIM602).

    Any name mentioning the shutdown machinery — ``SHUTDOWN``,
    ``ShutdownManager``, ``self.shutdown``, ``SweepInterrupted`` —
    qualifies, since routing through the manager is exactly the
    sanctioned response to an interrupt.  A ``raise`` anywhere in the
    handler (the pass-through idiom, conversion to
    :class:`SweepInterrupted`) sanctions it through :func:`_handler_escapes`.
    """
    lowered = name.lower()
    return "shutdown" in lowered or lowered == "sweepinterrupted"


@rule("SIM601", "swallowed-exception", _PACKAGES,
      "sim-path code must not swallow exceptions: re-raise, convert to "
      "a FailedRun, or justify with an allow comment")
def check_swallowed_exception(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.nodes(ast.Try):
        for handler in node.handlers:
            if _is_pass_only(handler):
                caught = ", ".join(_caught_names(handler)) or "everything"
                found.append(make_violation(
                    rule_by_id("SIM601"), module, handler,
                    f"except ({caught}) with a pass-only body silently "
                    "discards the failure; handle it, re-raise, or "
                    "justify the suppression with an allow comment",
                ))
                continue
            if _is_broad(handler) and not _handler_escapes(handler, _converts):
                caught = ", ".join(_caught_names(handler)) or "bare except"
                found.append(make_violation(
                    rule_by_id("SIM601"), module, handler,
                    f"broad handler ({caught}) neither re-raises nor "
                    "converts to a FailedRun; a swallowed failure here "
                    "becomes a silently wrong result — let it propagate "
                    "so the retry policy can account for it",
                ))
    return found


@rule("SIM602", "trapped-interrupt", _PACKAGES,
      "sim-path code must not trap KeyboardInterrupt/SystemExit: "
      "re-raise, or route through the shutdown manager")
def check_trapped_interrupt(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.nodes(ast.Try):
        for handler in node.handlers:
            trapped = [name for name in _caught_names(handler)
                       if name in _INTERRUPT_NAMES]
            # Bare excepts and BaseException handlers are SIM601's beat;
            # SIM602 is about handlers that *name* an interrupt.
            if not trapped or _handler_escapes(handler, _routes_shutdown):
                continue
            caught = ", ".join(trapped)
            found.append(make_violation(
                rule_by_id("SIM602"), module, handler,
                f"handler traps {caught} without re-raising or routing "
                "through the shutdown manager; a trapped interrupt "
                "skips the graceful drain-and-journal path and strands "
                "the operator — re-raise it, raise SweepInterrupted, "
                "or justify with an allow comment",
            ))
    return found
