"""SIM6xx (cont.) — event-loop discipline for the sweep service.

:mod:`repro.serve.server` is the one place in the tree where an asyncio
event loop multiplexes many clients over a single thread.  A blocking
call on that thread — a file read, a ``time.sleep``, an flock-guarded
WAL transaction — stalls *every* connected client at once, and does it
silently: the service still works, it is just mysteriously slow under
exactly the multi-client load it exists to serve.  The module's own
contract is that nothing on the event loop touches a file (blocking
work is offloaded with ``asyncio.to_thread``); this rule makes the
contract machine-checked instead of a docstring promise.

* SIM604 ``blocking-in-async`` — a call to a known-blocking API inside
  the body of an ``async def`` in :mod:`repro.serve`: sync file I/O
  (builtin ``open``, ``Path.read_text``/``write_text``/``read_bytes``/
  ``write_bytes``, ``os.fsync``/``os.replace``), ``time.sleep``,
  ``subprocess.run``/``Popen``/``check_*``, and ``fcntl.flock``/
  ``lockf``.  Calls inside *nested* ``def``/``lambda`` bodies are not
  flagged — those run wherever the function is later invoked, which in
  this package means a ``to_thread`` worker (and offloading is
  invisible to the rule precisely because ``asyncio.to_thread(fn, …)``
  passes ``fn`` uncalled).  A genuinely non-blocking use — e.g. probing
  an in-memory fake in a test — carries an
  ``# simlint: allow[SIM604] <reason>`` justification.

* SIM605 ``unbounded-queue`` — constructing an unbounded buffer in
  :mod:`repro.serve`: ``asyncio.Queue()`` (or ``queue.Queue``/
  ``LifoQueue``/``PriorityQueue``) without a ``maxsize``, or a
  ``deque()`` without a ``maxlen``.  A service that buffers without
  bound converts overload into memory growth — the failure mode
  admission control exists to prevent — so every buffer either states
  its bound or carries an ``# simlint: allow[SIM605] <reason>``
  justifying *why* its growth is bounded elsewhere (e.g. a per-
  connection outbox capped by the admitted submission size).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence

from repro.analysis.core import SourceModule, Violation, make_violation, rule, rule_by_id

#: Attribute calls that block regardless of what they are called on:
#: pathlib file I/O reads the whole file on the calling thread.
_BLOCKING_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: module-qualified calls (``value.attr``) that block the caller.
_BLOCKING_QUALIFIED = frozenset({
    ("time", "sleep"),
    ("os", "fsync"),
    ("os", "replace"),
    ("fcntl", "flock"),
    ("fcntl", "lockf"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
})


def _blocking_reason(call: ast.Call) -> Optional[str]:
    """Why ``call`` blocks the event loop, or None when it does not."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open() performs sync file I/O"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _BLOCKING_METHODS:
        return f".{func.attr}() performs sync file I/O"
    if isinstance(func.value, ast.Name):
        pair = (func.value.id, func.attr)
        if pair in _BLOCKING_QUALIFIED:
            dotted = ".".join(pair)
            if pair[0] == "time":
                return f"{dotted}() stalls the loop outright"
            if pair[0] == "subprocess":
                return f"{dotted}() blocks on a child process"
            if pair[0] == "fcntl":
                return f"{dotted}() can wait on another process's lock"
            return f"{dotted}() performs sync file I/O"
    return None


def _direct_body(fn: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Nodes executing *on the event loop* when ``fn`` runs.

    Descends the whole body except into nested ``def``/``async def``/
    ``lambda`` — their bodies execute wherever they are later called
    (in this package, a ``to_thread`` worker), and a nested ``async
    def`` is visited separately by the outer walk anyway.
    """
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


#: Queue classes whose constructor takes ``maxsize`` (0 = unbounded).
_QUEUE_TYPES = frozenset({"Queue", "LifoQueue", "PriorityQueue"})

#: Modules the queue/deque constructors are expected to hang off.
_QUEUE_MODULES = frozenset({"asyncio", "queue", "collections"})


def _unbounded_reason(call: ast.Call) -> Optional[str]:
    """Why ``call`` builds an unbounded buffer, or None when it doesn't."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
    elif (isinstance(func, ast.Attribute)
          and isinstance(func.value, ast.Name)
          and func.value.id in _QUEUE_MODULES):
        name = func.attr
    else:
        return None
    if name == "deque":
        # maxlen is the second positional or the keyword.
        if len(call.args) >= 2 or any(
                kw.arg == "maxlen" for kw in call.keywords):
            return None
        return "deque() without maxlen"
    if name in _QUEUE_TYPES:
        # maxsize is the first positional or the keyword.
        if call.args or any(kw.arg == "maxsize" for kw in call.keywords):
            return None
        return f"{name}() without maxsize"
    return None


@rule("SIM605", "unbounded-queue", ("serve",),
      "buffers in repro.serve must state their bound: asyncio/queue "
      "Queues take maxsize, deques take maxlen; a bound enforced "
      "elsewhere needs an allow[] justification")
def check_unbounded_queue(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.nodes(ast.Call):
        reason = _unbounded_reason(node)
        if reason is None:
            continue
        found.append(make_violation(
            rule_by_id("SIM605"), module, node,
            f"{reason} buffers without bound, turning overload into "
            "silent memory growth; pass an explicit bound or justify "
            "with allow[SIM605] why growth is capped elsewhere",
        ))
    return found


@rule("SIM604", "blocking-in-async", ("serve",),
      "async def bodies in repro.serve must not call blocking APIs "
      "(sync file I/O, time.sleep, subprocess, flock); offload with "
      "asyncio.to_thread")
def check_blocking_in_async(
    module: SourceModule, modules: Sequence[SourceModule]
) -> List[Violation]:
    found = []
    for node in module.nodes(ast.AsyncFunctionDef):
        for inner in _direct_body(node):
            if not isinstance(inner, ast.Call):
                continue
            reason = _blocking_reason(inner)
            if reason is None:
                continue
            found.append(make_violation(
                rule_by_id("SIM604"), module, inner,
                f"{reason} inside async def {node.name}(), stalling "
                "every client sharing the event loop; offload it with "
                "asyncio.to_thread (or run_in_executor)",
            ))
    return found
