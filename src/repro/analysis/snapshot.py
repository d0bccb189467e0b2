"""SIM9xx — snapshot completeness for the checkpoint protocol.

Mid-run checkpointing (:mod:`repro.exec.checkpoint`) only restores what
a class *declares*: :func:`repro.kernel.state.snapshot_fields` walks
``SNAPSHOT_FIELDS`` and nothing else.  A piece of mutable run state
added to ``__init__`` but forgotten in the declaration is therefore the
worst kind of bug — every test that doesn't cross a checkpoint boundary
passes, and a resumed run silently diverges only when that one table
happens to matter.  These rules make the decision mandatory at lint
time: every attribute assigned on ``self`` lands in ``SNAPSHOT_FIELDS``
(checkpointed) or ``SNAPSHOT_EXEMPT`` (deliberately not: immutable
config, wiring to components that snapshot themselves), and every
declared name provably exists.

* SIM901 ``undeclared-snapshot-state`` — a class participating in the
  snapshot protocol (it, or an ancestor the analyzer can resolve,
  declares ``SNAPSHOT_FIELDS``/``SNAPSHOT_EXEMPT``) assigns ``self.x``
  in ``__init__`` where ``x`` appears in neither tuple, its own or any
  ancestor's.  Stats and ports are auto-exempt (``self.x =
  self.add_stat(...)`` / ``add_port(...)``): both have their own
  snapshot story through the component protocol.

* SIM902 ``phantom-snapshot-field`` — a declared name is never assigned
  anywhere in the declaring class or its resolvable ancestors.  A
  phantom field is either a typo (the real attribute silently escapes
  the checkpoint — SIM901's bug wearing a disguise) or dead weight that
  makes ``getattr`` in :func:`snapshot_fields` raise at the first cut.

Inheritance is resolved *cross-module* by class name over every file
handed to the analyzer, the same whole-tree model the SIM1xx contract
rules use — so ``cache.py`` declaring fields its base in ``module.py``
assigns is understood, and so is the reverse.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.core import (
    SIM_PATH_PACKAGES,
    RunIndex,
    SourceModule,
    Violation,
    base_names,
    make_violation,
    rule,
    rule_by_id,
    run_index,
)

#: The two class attributes that constitute a snapshot declaration.
_DECLS = ("SNAPSHOT_FIELDS", "SNAPSHOT_EXEMPT")

#: ``self.x = self.<call>(...)`` forms that are exempt by construction:
#: stats and ports snapshot through the component protocol, never via
#: the declaring class's field list.
_AUTO_EXEMPT_CALLS = frozenset({"add_stat", "add_port"})


@dataclass
class _ClassInfo:
    """Everything SIM9xx needs to know about one class definition."""

    name: str
    module: SourceModule
    node: ast.ClassDef
    bases: Tuple[str, ...]
    declares: bool = False
    fields: Tuple[str, ...] = ()          # own SNAPSHOT_FIELDS literals
    exempt: Tuple[str, ...] = ()          # own SNAPSHOT_EXEMPT literals
    decl_lines: Dict[str, int] = field(default_factory=dict)
    init_assigns: Dict[str, int] = field(default_factory=dict)
    auto_exempt: Set[str] = field(default_factory=set)
    assigned_anywhere: Set[str] = field(default_factory=set)


def _string_literals(node: ast.AST) -> List[Tuple[str, int]]:
    """Every string constant in an expression, with its line.

    Tolerant of composed declarations like
    ``Base.SNAPSHOT_EXEMPT + ("x", "y")`` — the attribute reference
    contributes nothing (its names arrive via ancestry), the literal
    tuple contributes its strings.
    """
    found = []
    for inner in ast.walk(node):
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            found.append((inner.value, inner.lineno))
    return found


def _self_attr_names(target: ast.AST) -> List[str]:
    """Names ``x`` for every ``self.x`` inside an assignment target."""
    names = []
    for inner in ast.walk(target):
        if (isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"):
            names.append(inner.attr)
    return names


def _is_auto_exempt(value: ast.AST) -> bool:
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _AUTO_EXEMPT_CALLS)


def _scan_class(node: ast.ClassDef, module: SourceModule) -> _ClassInfo:
    info = _ClassInfo(node.name, module, node, base_names(node))
    for stmt in node.body:
        # Class-level declarations and attribute defaults.
        targets: List[ast.AST] = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id in _DECLS:
                info.declares = True
                literals = _string_literals(value)
                names = tuple(name for name, _line in literals)
                if target.id == "SNAPSHOT_FIELDS":
                    info.fields = names
                else:
                    info.exempt = names
                for name, line in literals:
                    info.decl_lines.setdefault(name, line)
            else:
                # A class attribute is a legitimate home for a declared
                # field's default.
                info.assigned_anywhere.add(target.id)
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # Method bodies: every self.x assignment, anywhere.
        for inner in ast.walk(stmt):
            targets = []
            value = None
            if isinstance(inner, ast.Assign):
                targets, value = inner.targets, inner.value
            elif isinstance(inner, ast.AnnAssign):
                targets, value = [inner.target], inner.value
            elif isinstance(inner, ast.AugAssign):
                targets, value = [inner.target], inner.value
            for target in targets:
                for name in _self_attr_names(target):
                    info.assigned_anywhere.add(name)
                    if stmt.name != "__init__":
                        continue
                    info.init_assigns.setdefault(name, inner.lineno)
                    if value is not None and _is_auto_exempt(value):
                        info.auto_exempt.add(name)
    return info


def _registry(index: RunIndex) -> Dict[str, _ClassInfo]:
    """Class name -> scan of its (last) definition anywhere in the run."""
    return {node.name: _scan_class(node, module)
            for module, node in index.classes()}


def _ancestry(info: _ClassInfo,
              registry: Dict[str, _ClassInfo]) -> List[_ClassInfo]:
    """``info`` plus every resolvable ancestor, cycle-safe."""
    seen: Set[str] = set()
    order: List[_ClassInfo] = []
    stack = [info.name]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        entry = registry.get(name)
        if entry is None:
            continue
        order.append(entry)
        stack.extend(entry.bases)
    return order


@rule("SIM901", "undeclared-snapshot-state", SIM_PATH_PACKAGES,
      "every self.x assigned in a snapshot-protocol class's __init__ "
      "must be declared in SNAPSHOT_FIELDS or SNAPSHOT_EXEMPT")
def check_undeclared_snapshot_state(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    registry = run_index(modules).fact(_registry)
    found = []
    for node in module.nodes(ast.ClassDef):
        info = registry.get(node.name)
        if info is None or info.module is not module:
            continue
        ancestry = _ancestry(info, registry)
        if not any(entry.declares for entry in ancestry):
            continue
        declared: Set[str] = set()
        for entry in ancestry:
            declared.update(entry.fields)
            declared.update(entry.exempt)
        for name, line in sorted(info.init_assigns.items(),
                                 key=lambda item: item[1]):
            if name in declared or name in info.auto_exempt:
                continue
            found.append(make_violation(
                rule_by_id("SIM901"), module, line,
                f"{node.name}.__init__ assigns self.{name} but declares "
                "it in neither SNAPSHOT_FIELDS nor SNAPSHOT_EXEMPT; "
                "undeclared state silently escapes every checkpoint and "
                "a resumed run diverges — decide its snapshot story",
            ))
    return found


@rule("SIM902", "phantom-snapshot-field", SIM_PATH_PACKAGES,
      "every name in SNAPSHOT_FIELDS/SNAPSHOT_EXEMPT must be assigned "
      "somewhere in the declaring class or its ancestors")
def check_phantom_snapshot_field(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    registry = run_index(modules).fact(_registry)
    found = []
    for node in module.nodes(ast.ClassDef):
        info = registry.get(node.name)
        if info is None or info.module is not module or not info.declares:
            continue
        assigned: Set[str] = set()
        for entry in _ancestry(info, registry):
            assigned.update(entry.assigned_anywhere)
        for name in info.fields + info.exempt:
            if name in assigned:
                continue
            found.append(make_violation(
                rule_by_id("SIM902"), module, info.decl_lines.get(name, node),
                f"{node.name} declares {name!r} but never assigns "
                f"self.{name} anywhere in the class or its ancestors; a "
                "phantom field is a typo hiding real state from the "
                "checkpoint, or dead weight that makes the first "
                "snapshot cut raise",
            ))
    return found
