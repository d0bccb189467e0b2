"""simlint core: source model, allowlists, rule registry, runner.

The analyzer parses every Python file it is pointed at into a
:class:`SourceModule` (path, dotted module name, AST, allowlist entries)
and hands the whole collection to each registered rule, so rules can be
cross-file (the mechanism-contract rules read hook signatures out of
``mechanisms/base.py`` while checking ``mechanisms/tcp.py``).

Indexing
--------
Rules never walk a whole tree.  Each module is walked once, on first
use, into per-node-type buckets (:meth:`SourceModule.nodes`), and each
cross-module fact is derived once per run (:meth:`RunIndex.fact`), so a
full run is linear in the size of the tree.

Scoping
-------
Rules declare the packages they police (``PACKAGES``).  A module that
lives inside the ``repro`` package is checked by a rule only when its
dotted name falls under one of those packages; a *standalone* file — one
not importable as ``repro.*``, e.g. a test fixture — is checked by every
rule.  That is what lets one known-bad snippet per rule live under
``tests/analysis_fixtures/`` without having to fake a package tree.

Allowlisting
------------
A violation is suppressed by an inline comment on the flagged line or
the line above it::

    value = os.environ.get("REPRO_SANITIZE")  # simlint: allow[SIM203] read once at import

The bracket takes a comma-separated list of rule ids (or ``*`` for all
rules — reserve that for generated code).  The text after the bracket is
the required justification; an allow comment with no reason is itself a
violation (SIM001), because an unexplained suppression is exactly the
kind of silent methodology drift the paper warns about.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, DefaultDict, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple, Type, TypeVar, cast,
)

#: Packages (dotted, relative to ``repro``) that constitute the simulated
#: path: code whose behaviour feeds a RunResult and therefore the
#: content-addressed result store.  Determinism rules police these.
SIM_PATH_PACKAGES: Tuple[str, ...] = (
    "kernel", "cache", "cpu", "dram", "mechanisms", "trace",
)

_ALLOW_RE = re.compile(
    r"#\s*simlint:\s*allow\[(?P<rules>[^\]]+)\]\s*(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Violation:
    """One rule firing at one source location."""

    rule: str                 # e.g. "SIM203"
    name: str                 # symbolic name, e.g. "env-read"
    path: str                 # file path as given to the analyzer
    line: int                 # 1-based
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.name}] {self.message}"


@dataclass(frozen=True)
class AllowEntry:
    """A parsed ``# simlint: allow[...]`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str

    def covers(self, rule: str, line: int) -> bool:
        # An allow comment suppresses its own line and the line below it
        # (so it can sit above a long statement).
        if line not in (self.line, self.line + 1):
            return False
        return "*" in self.rules or rule in self.rules


#: ``ast.parse`` calls and per-module node indexes built through
#: :class:`SourceModule` since the last :func:`clear_parse_cache`.  Tests
#: assert on these to pin the parse-once and walk-once properties of a
#: full run.
_PARSE_COUNT = 0
_INDEX_COUNT = 0

N = TypeVar("N", bound=ast.AST)
T = TypeVar("T")


class SourceModule:
    """One parsed source file plus its lint metadata."""

    def __init__(self, path: Path, text: str, module: Optional[str]) -> None:
        global _PARSE_COUNT
        self.path = path
        self.text = text
        self.module = module          # dotted name under repro, or None
        _PARSE_COUNT += 1
        self.tree = ast.parse(text, filename=str(path))
        self.allows = _parse_allows(text)
        self._buckets: Optional[DefaultDict[type, List[ast.AST]]] = None

    def nodes(self, *kinds: Type[N]) -> List[N]:
        """Every node of exactly the given types, in ``ast.walk`` order per type.

        The first call walks the tree once and buckets every node by its
        type; later calls only read the buckets.
        """
        global _INDEX_COUNT
        if self._buckets is None:
            _INDEX_COUNT += 1
            self._buckets = defaultdict(list)
            for node in ast.walk(self.tree):
                self._buckets[type(node)].append(node)
        return cast(List[N], [node for kind in kinds
                              for node in self._buckets.get(kind, ())])

    @property
    def standalone(self) -> bool:
        """True when the file is not part of the ``repro`` package."""
        return self.module is None

    def in_package(self, packages: Iterable[str]) -> bool:
        """Whether this module falls under any of ``packages``.

        Standalone files (fixtures, ad-hoc snippets) match every package
        so each bad-example file exercises its rule without scaffolding.
        """
        if self.module is None:
            return True
        for package in packages:
            if package == "":  # whole-tree rule
                return True
            if self.module == package or self.module.startswith(package + "."):
                return True
        return False

    def allowed(self, rule: str, line: int) -> bool:
        return any(entry.covers(rule, line) for entry in self.allows)


def _parse_allows(text: str) -> List[AllowEntry]:
    entries: List[AllowEntry] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        match = _ALLOW_RE.search(line)
        if match is None:
            continue
        rules = tuple(
            token.strip() for token in match.group("rules").split(",")
            if token.strip()
        )
        entries.append(AllowEntry(lineno, rules, match.group("reason").strip()))
    return entries


# -- rule registry -------------------------------------------------------------

#: A rule callable: (module, all_modules) -> violations for that module.
RuleFn = Callable[[SourceModule, Sequence[SourceModule]], List[Violation]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    rule_id: str
    name: str
    packages: Tuple[str, ...]     # dotted packages under repro this rule scans
    doc: str
    fn: RuleFn = field(compare=False)


_RULES: Dict[str, Rule] = {}


def rule(
    rule_id: str, name: str, packages: Tuple[str, ...], doc: str
) -> Callable[[RuleFn], RuleFn]:
    """Decorator registering ``fn`` as lint rule ``rule_id``."""

    def register(fn: RuleFn) -> RuleFn:
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _RULES[rule_id] = Rule(rule_id, name, packages, doc, fn)
        return fn

    return register


def all_rules() -> List[Rule]:
    return [_RULES[key] for key in sorted(_RULES)]


def rule_by_id(rule_id: str) -> Rule:
    """The registered rule ``rule_id`` (``KeyError`` when unknown)."""
    return _RULES[rule_id]


def make_violation(
    rule_obj: Rule, module: SourceModule, node_or_line: object, message: str
) -> Violation:
    raw = getattr(node_or_line, "lineno", node_or_line)
    return Violation(
        rule=rule_obj.rule_id,
        name=rule_obj.name,
        path=str(module.path),
        line=raw if isinstance(raw, int) else 1,
        message=message,
    )


# -- loading -------------------------------------------------------------------

def _module_name(path: Path) -> Optional[str]:
    """Dotted name relative to the ``repro`` package, or None."""
    parts = path.resolve().with_suffix("").parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            inner = [p for p in parts[i + 1:] if p != "__init__"]
            return ".".join(inner) if inner else ""
    return None


#: Cross-call parse cache: resolved path -> (mtime_ns, size, module).  A
#: cached module keeps its node index too, so repeated runs over unchanged
#: files neither parse nor walk them again.
_PARSE_CACHE: Dict[str, Tuple[int, int, SourceModule]] = {}


def parse_count() -> int:
    """``ast.parse`` calls performed since :func:`clear_parse_cache`."""
    return _PARSE_COUNT


def index_count() -> int:
    """Per-module node indexes built since :func:`clear_parse_cache`."""
    return _INDEX_COUNT


def clear_parse_cache() -> None:
    """Drop cached parses and reset both counters (test isolation)."""
    global _PARSE_COUNT, _INDEX_COUNT
    _PARSE_CACHE.clear()
    _PARSE_COUNT = 0
    _INDEX_COUNT = 0


def _load_file(file: Path) -> SourceModule:
    """Parse ``file``, served from the cross-call cache when unchanged.

    Freshness is keyed on (mtime_ns, size) so an edited file re-parses;
    a cached module is reused only when asked for under the same spelling
    of its path (violation rendering shows the path as given).
    """
    key = str(file.resolve())
    stat = file.stat()
    cached = _PARSE_CACHE.get(key)
    if (cached is not None and cached[0] == stat.st_mtime_ns
            and cached[1] == stat.st_size and str(cached[2].path) == str(file)):
        return cached[2]
    module = SourceModule(file, file.read_text("utf-8"), _module_name(file))
    _PARSE_CACHE[key] = (stat.st_mtime_ns, stat.st_size, module)
    return module


def load_paths(paths: Sequence[Path]) -> Tuple[List[SourceModule], List[Violation]]:
    """Parse every ``.py`` file under ``paths``; syntax errors become SIM000."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    modules: List[SourceModule] = []
    errors: List[Violation] = []
    for file in files:
        try:
            modules.append(_load_file(file))
        except SyntaxError as exc:
            errors.append(Violation(
                rule="SIM000", name="syntax-error", path=str(file),
                line=exc.lineno or 1, message=f"cannot parse: {exc.msg}",
            ))
    return modules, errors


# -- the per-run index ----------------------------------------------------------

def base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    """A class's base names, as ``Name.id`` or the last ``Attribute.attr``."""
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


class RunIndex(Tuple[SourceModule, ...]):
    """The modules of one analyzer run plus cross-module facts derived once.

    :func:`analyze_modules` passes one to every rule as ``modules``.
    ``run_index(modules).fact(derive)`` calls ``derive(index)`` on the
    run's first request and returns that result to every later one.
    """

    def __init__(self, modules: Iterable[SourceModule]) -> None:
        self._facts: Dict[Callable[[RunIndex], object], object] = {}

    def fact(self, derive: Callable[["RunIndex"], T]) -> T:
        if derive not in self._facts:
            self._facts[derive] = derive(self)
        return cast(T, self._facts[derive])

    def classes(self) -> Iterator[Tuple[SourceModule, ast.ClassDef]]:
        """The cross-module class table, in module then walk order."""
        for module in self:
            for node in module.nodes(ast.ClassDef):
                yield module, node


def run_index(modules: Sequence[SourceModule]) -> RunIndex:
    """``modules`` as a :class:`RunIndex` (a fresh one for a plain list)."""
    return modules if isinstance(modules, RunIndex) else RunIndex(modules)


# -- running -------------------------------------------------------------------

def _check_allow_reasons(module: SourceModule) -> List[Violation]:
    """SIM001: every allow comment must carry a justification."""
    found = []
    for entry in module.allows:
        if not entry.reason:
            found.append(Violation(
                rule="SIM001", name="bare-allowlist", path=str(module.path),
                line=entry.line,
                message="allow comment without a reason; say why the "
                        "suppression is sound",
            ))
    return found


def analyze_modules(
    modules: Sequence[SourceModule],
    select: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Run every registered rule over ``modules``; return sorted violations."""
    active = all_rules()
    if select:
        prefixes = tuple(select)
        active = [r for r in active if r.rule_id.startswith(prefixes)
                  or r.name in prefixes]
    index = run_index(modules)
    violations: List[Violation] = []
    for module in index:
        violations.extend(_check_allow_reasons(module))
    for rule_obj in active:
        for module in index:
            if not module.in_package(rule_obj.packages):
                continue
            for violation in rule_obj.fn(module, index):
                if module.allowed(violation.rule, violation.line):
                    continue
                violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def analyze_paths(
    paths: Sequence[Path], select: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Load ``paths`` and run the analyzer; parse errors are violations too."""
    modules, errors = load_paths(paths)
    return errors + analyze_modules(modules, select=select)
