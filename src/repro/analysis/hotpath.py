"""SIM7xx — hot-path performance lint.

PR 6's speedup came from a handful of mechanical disciplines in the
per-record/per-event functions: hoist invariant attribute chains to
locals, keep allocation out of the loop body, enter no ``try``/``with``
frames per iteration, read dict entries once.  Nothing but convention
stops an ordinary refactor from quietly undoing them — the code still
passes every golden test, just slower.  These rules turn the discipline
into a checked contract over every function marked ``@hotpath``
(:mod:`repro.hotpath`).

The *hot scope* of a marked function is the body of every loop it
contains, or the whole body when it contains no loop (a loop-free marked
function — a kernel callback, ``Cache.access`` — is itself the
per-event unit).  SIM701 and SIM705 are inherently about loops and only
fire inside loop bodies; SIM702/703/704 apply to the whole hot scope.

* SIM701 ``unhoisted-chain`` — the same attribute chain read two or more
  times in one loop, with neither the chain nor its root assigned in
  that loop: evaluate it once into a local before the loop.
* SIM702 ``loop-allocation`` — a list/dict/set/tuple display, a
  comprehension, an f-string, or ``+`` on a list display in the hot
  scope; every iteration pays an allocator round trip.  Allocations
  inside ``raise`` statements are exempt (error paths are cold by
  definition).
* SIM703 ``per-iteration-frame`` — a ``try`` or ``with`` entered in the
  hot scope; move the frame outside the loop or justify the cost.
* SIM704 ``unhoisted-subscript`` — a constant-key subscript read
  repeatedly from a container the scope neither rebinds nor passes to a
  mutating call: read it once into a local.
* SIM705 ``self-call-in-loop`` — a call through ``self.`` in a loop
  body; bind the bound method (or the needed attribute) to a local
  before the loop, the way the generated fast path bakes it as a
  literal.

Deliberate costs carry an ``# simlint: allow[SIM70x] <reason>``; the
shipped tree lints at zero.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    SIM_PATH_PACKAGES,
    SourceModule,
    Violation,
    make_violation,
    rule,
    rule_by_id,
)

_PACKAGES = SIM_PATH_PACKAGES

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SKIP_NODES = _FUNCTION_NODES + (ast.Lambda, ast.ClassDef)
_LOOP_NODES = (ast.For, ast.While)


def _hot_functions(module: SourceModule) -> List[ast.AST]:
    """Functions marked ``@hotpath`` (a bare name or an attribute)."""
    return [fn for fn in module.nodes(*_FUNCTION_NODES)
            if any(isinstance(d, ast.Name) and d.id == "hotpath"
                   or isinstance(d, ast.Attribute) and d.attr == "hotpath"
                   for d in getattr(fn, "decorator_list", []))]


def _scope_walk(nodes: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """Walk ``nodes`` without descending into nested function/class defs."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SKIP_NODES):
                continue
            stack.append(child)


def _chain_text(node: ast.AST) -> Optional[str]:
    """Dotted text of an attribute chain rooted at a plain name, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and parts:
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _loop_scope(loop: ast.AST) -> List[ast.AST]:
    """The per-iteration nodes of one loop: its body, plus the test for
    ``while`` (re-evaluated every iteration; a ``for`` iterable is not)."""
    scope: List[ast.AST] = list(getattr(loop, "body", []))
    if isinstance(loop, ast.While):
        scope.append(loop.test)
    return scope


def _stored_texts(scope: Sequence[ast.AST]) -> Set[str]:
    """Names and attribute chains assigned anywhere in ``scope``.

    A chain that is (re)bound per iteration is not invariant, so neither
    it nor anything hanging off it is hoistable — SIM701/704 exempt them.
    """
    stored: Set[str] = set()
    for node in _scope_walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            text = _chain_text(node)
            if text is not None:
                stored.add(text)
    return stored


def _is_exempt(text: str, stored: Set[str]) -> bool:
    """Whether ``text`` or any dotted prefix of it is rebound in scope."""
    parts = text.split(".")
    return any(".".join(parts[:i]) in stored for i in range(1, len(parts) + 1))


def _call_func_nodes(scope: Sequence[ast.AST]) -> Set[int]:
    """ids of nodes appearing as a call's function (SIM705's beat)."""
    funcs: Set[int] = set()
    for node in _scope_walk(scope):
        if isinstance(node, ast.Call):
            funcs.add(id(node.func))
    return funcs


def _call_arg_texts(scope: Sequence[ast.AST]) -> Set[str]:
    """Chains/names passed as call arguments in scope (possibly mutated)."""
    texts: Set[str] = set()
    for node in _scope_walk(scope):
        if not isinstance(node, ast.Call):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name):
                texts.add(arg.id)
            else:
                text = _chain_text(arg)
                if text is not None:
                    texts.add(text)
    return texts


def _raise_subtree_ids(scope: Sequence[ast.AST]) -> Set[int]:
    """ids of every node inside a ``raise`` statement (cold error paths)."""
    inside: Set[int] = set()
    for node in _scope_walk(scope):
        if isinstance(node, ast.Raise):
            for inner in ast.walk(node):
                inside.add(id(inner))
    return inside


def _hot_scopes(fn: ast.AST) -> Tuple[List[ast.AST], List[ast.AST]]:
    """(loops, whole-scope nodes) for one marked function.

    The whole-scope list is the union of loop scopes when the function
    has loops, else the function body itself.
    """
    loops = [node for node in _scope_walk(getattr(fn, "body", []))
             if isinstance(node, _LOOP_NODES)]
    if loops:
        whole: List[ast.AST] = []
        for loop in loops:
            whole.extend(_loop_scope(loop))
        return loops, whole
    return loops, list(getattr(fn, "body", []))


@rule("SIM701", "unhoisted-chain", _PACKAGES,
      "in @hotpath loops, repeated invariant attribute chains must be "
      "hoisted to a local before the loop")
def check_unhoisted_chain(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found: List[Violation] = []
    for fn in _hot_functions(module):
        loops, _ = _hot_scopes(fn)
        for loop in loops:
            scope = _loop_scope(loop)
            stored = _stored_texts(scope)
            call_funcs = _call_func_nodes(scope)
            # Maximal Load-context chains only: an Attribute that is
            # itself the .value of another Attribute is a prefix, and a
            # call's func is SIM705's beat, not a hoistable read.
            prefixes: Set[int] = set()
            for node in _scope_walk(scope):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.value, ast.Attribute):
                        prefixes.add(id(node.value))
            occurrences: Dict[str, List[ast.Attribute]] = {}
            for node in _scope_walk(scope):
                if not isinstance(node, ast.Attribute):
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue
                if id(node) in prefixes or id(node) in call_funcs:
                    continue
                text = _chain_text(node)
                if text is None or _is_exempt(text, stored):
                    continue
                occurrences.setdefault(text, []).append(node)
            for text, nodes in sorted(occurrences.items()):
                if len(nodes) < 2:
                    continue
                first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
                local = text.rsplit(".", 1)[-1]
                found.append(make_violation(
                    rule_by_id("SIM701"), module, first,
                    f"attribute chain '{text}' is read {len(nodes)} times "
                    f"per iteration and never rebound in the loop; hoist "
                    f"it once before the loop ({local} = {text}) so each "
                    "iteration pays a local load, not repeated attribute "
                    "lookups",
                ))
    return found


@rule("SIM702", "loop-allocation", _PACKAGES,
      "the hot scope of a @hotpath function must not allocate: no "
      "displays, comprehensions, f-strings, or list concatenation")
def check_loop_allocation(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found: List[Violation] = []
    for fn in _hot_functions(module):
        _, scope = _hot_scopes(fn)
        cold = _raise_subtree_ids(scope)
        for node in _scope_walk(scope):
            if id(node) in cold:
                continue
            what = None
            if isinstance(node, ast.List):
                what = "list display"
            elif isinstance(node, ast.Dict):
                what = "dict display"
            elif isinstance(node, ast.Set):
                what = "set display"
            elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
                what = "tuple display"
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                what = "comprehension"
            elif isinstance(node, ast.JoinedStr):
                what = "f-string"
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                  and (isinstance(node.left, ast.List)
                       or isinstance(node.right, ast.List))):
                what = "list concatenation"
            if what is None:
                continue
            found.append(make_violation(
                rule_by_id("SIM702"), module, node,
                f"{what} allocates in the hot scope; every record/event "
                "pays the allocator — build it once outside, reuse a "
                "preallocated structure, or justify the cost with an "
                "allow comment",
            ))
    return found


@rule("SIM703", "per-iteration-frame", _PACKAGES,
      "the hot scope of a @hotpath function must not enter try/with "
      "frames per iteration")
def check_per_iteration_frame(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found: List[Violation] = []
    for fn in _hot_functions(module):
        _, scope = _hot_scopes(fn)
        for node in _scope_walk(scope):
            if isinstance(node, ast.Try):
                what = "try"
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                what = "with"
            else:
                continue
            found.append(make_violation(
                rule_by_id("SIM703"), module, node,
                f"'{what}' entered in the hot scope sets up an exception "
                "frame per iteration; hoist it around the loop, restructure "
                "to a test, or justify the cost with an allow comment",
            ))
    return found


@rule("SIM704", "unhoisted-subscript", _PACKAGES,
      "in the hot scope of a @hotpath function, invariant constant-key "
      "subscripts must be read once into a local")
def check_unhoisted_subscript(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found: List[Violation] = []
    for fn in _hot_functions(module):
        loops, _ = _hot_scopes(fn)
        scopes = [_loop_scope(loop) for loop in loops] if loops \
            else [list(getattr(fn, "body", []))]
        for scope in scopes:
            stored = _stored_texts(scope)
            mutated = _call_arg_texts(scope)
            occurrences: Dict[str, List[ast.Subscript]] = {}
            for node in _scope_walk(scope):
                if not isinstance(node, ast.Subscript):
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue
                if not isinstance(node.slice, ast.Constant):
                    continue
                base = (node.value.id if isinstance(node.value, ast.Name)
                        else _chain_text(node.value))
                if base is None:
                    continue
                # A container the scope rebinds or hands to a call may
                # change between reads — the lookup is not invariant.
                if _is_exempt(base, stored) or base in mutated:
                    continue
                key = f"{base}[{node.slice.value!r}]"
                occurrences.setdefault(key, []).append(node)
            # In a loop every evaluation repeats per iteration: one read
            # is already hoistable.  Loop-free scopes run once, so only
            # a *repeated* identical lookup wastes anything.
            threshold = 1 if loops else 2
            for key, nodes in sorted(occurrences.items()):
                if len(nodes) < threshold:
                    continue
                first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
                found.append(make_violation(
                    rule_by_id("SIM704"), module, first,
                    f"constant-key subscript {key} is invariant in this "
                    "scope (container never rebound or passed to a call); "
                    "read it once into a local instead of re-indexing",
                ))
    return found


@rule("SIM705", "self-call-in-loop", _PACKAGES,
      "in @hotpath loops, calls through self. must be pre-bound to a "
      "local (the fast path bakes them as literals)")
def check_self_call_in_loop(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found: List[Violation] = []
    for fn in _hot_functions(module):
        loops, _ = _hot_scopes(fn)
        for loop in loops:
            for node in _scope_walk(_loop_scope(loop)):
                if not isinstance(node, ast.Call):
                    continue
                text = _chain_text(node.func)
                if text is None or not text.startswith("self."):
                    continue
                bound = text.rsplit(".", 1)[-1]
                found.append(make_violation(
                    rule_by_id("SIM705"), module, node,
                    f"call through '{text}' in a hot loop pays two "
                    "attribute lookups per iteration; bind the method "
                    f"once before the loop ({bound} = {text}) — the "
                    "generated fast path bakes exactly this binding as "
                    "a namespace literal",
                ))
    return found
