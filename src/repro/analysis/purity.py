"""SIM3xx — RunSpec purity.

A RunSpec *is* the run: its content hash is the identity the executor
dedupes on and the on-disk store files results under.  That only works
if the spec is deeply immutable and every field participates in the
hash.  A field that is mutable can drift after hashing; a field that is
skipped by ``describe()`` makes two different runs collide on one hash —
the exact label-collision bug the exec layer was built to kill.

* SIM301 ``mutable-spec`` — a ``@dataclass`` in a spec/config module
  that is not ``frozen=True``.
* SIM302 ``hash-omission`` — a ``RunSpec`` field that ``describe()``
  never serialises (so it is invisible to the content hash).
* SIM303 ``unhashable-field`` — a spec field annotated with a mutable
  container type (``List``/``Dict``/``Set``/bare ``list``...); use
  tuples and frozen dataclasses.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Tuple

from repro.analysis.core import SourceModule, Violation, make_violation, rule, rule_by_id

#: Modules whose dataclasses define run identity and must be frozen.
_PACKAGES = ("exec.runspec", "core.config")

_MUTABLE_ANNOTATIONS = {
    "List", "Dict", "Set", "list", "dict", "set", "bytearray", "MutableMapping",
    "MutableSequence", "MutableSet", "DefaultDict", "deque", "Deque",
}


def _dataclass_decorators(cls: ast.ClassDef) -> Iterator[ast.expr]:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (
            target.id if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute)
            else None
        )
        if name == "dataclass":
            yield decorator


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen" and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return False


def _spec_fields(cls: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    fields = []
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if isinstance(item.annotation, ast.Constant):
                continue  # string annotation of a ClassVar, unlikely here
            fields.append((item.target.id, item))
    return fields


@rule("SIM301", "mutable-spec", _PACKAGES,
      "run-identity dataclass that is not frozen")
def check_frozen(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = list(_dataclass_decorators(node))
        if not decorators:
            continue
        if not any(_is_frozen(d) for d in decorators):
            found.append(make_violation(
                rule_by_id("SIM301"), module, node,
                f"{node.name} defines run identity but is a mutable "
                "dataclass; declare @dataclass(frozen=True) so hashed state "
                "cannot drift after hashing",
            ))
    return found


def _described_names(describe: ast.FunctionDef) -> Set[str]:
    """Every ``self.<attr>`` read inside describe()."""
    names: Set[str] = set()
    for node in ast.walk(describe):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            names.add(node.attr)
    return names


@rule("SIM302", "hash-omission", ("exec.runspec",),
      "RunSpec field that describe() never serialises into the hash")
def check_hash_omission(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef) or node.name != "RunSpec":
            continue
        describe = next(
            (item for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name == "describe"),
            None,
        )
        fields = _spec_fields(node)
        if describe is None:
            if fields:
                found.append(make_violation(
                    rule_by_id("SIM302"), module, node,
                    "RunSpec has no describe() method; the content hash has "
                    "nothing canonical to serialise",
                ))
            continue
        described = _described_names(describe)
        for name, field_node in fields:
            if name not in described:
                found.append(make_violation(
                    rule_by_id("SIM302"), module, field_node,
                    f"RunSpec.{name} never appears in describe(): two specs "
                    "differing only in this field share one content hash and "
                    "will silently share one cached result",
                ))
    return found


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@rule("SIM303", "unhashable-field", ("exec.runspec",),
      "spec field annotated with a mutable container type")
def check_unhashable_field(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(True for _ in _dataclass_decorators(node)):
            continue
        for name, field_node in _spec_fields(node):
            mutable = set(_annotation_names(field_node.annotation)) \
                & _MUTABLE_ANNOTATIONS
            if mutable:
                found.append(make_violation(
                    rule_by_id("SIM303"), module, field_node,
                    f"{node.name}.{name} is annotated with mutable "
                    f"{'/'.join(sorted(mutable))}; spec fields must be "
                    "hashable (tuples, frozen dataclasses, scalars)",
                ))
    return found
