"""R9 — handle lifecycle: close what you open, on every path.

Sqlite connections, sockets, file handles, and ``WorldStoreWriter``s hold
OS resources that workers recycle thousands of times per run; a handle
that leaks only when an append raises is exactly the bug that survives
the happy-path test suite and kills a many-hour fan-out.  R9 checks, per
function, that every handle **created** there is either

* opened in a ``with`` statement (or handed to one, e.g.
  ``contextlib.closing``);
* **escaped** — returned, yielded, stored into an attribute/subscript
  (ownership transferred to an object with its own lifecycle, like the
  per-thread connection pool in ``SqliteCellCache``), or passed to a
  project function that closes it / to a method of another object;
* or **closed on all paths**: a ``.close()`` / ``.finalize()`` /
  ``.shutdown()`` that sits inside a ``finally:`` block.  A close on the
  straight-line path only yields the weaker "not closed on exception
  paths" finding.

Creations consumed inline (``open(p).read()``) are flagged outright;
creations nested in containers/arguments are treated as delegated.
Findings on functions reachable from worker entry points carry the call
chain — those are the leaks that multiply across the fleet.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..astutil import dotted_chain, import_aliases
from ..callgraph import CallGraph, FunctionInfo, get_callgraph
from ..findings import Finding
from ..index import ModuleIndex
from .base import Rule
from .determinism import cell_roots

__all__ = ["HandleLifecycleRule"]

#: Alias-resolved chains that create a handle, and what to call it.
_HANDLE_CHAINS = {
    ("sqlite3", "connect"): "sqlite3 connection",
    ("open",): "file handle",
    ("io", "open"): "file handle",
    ("socket", "socket"): "socket",
    ("socket", "create_connection"): "socket",
    ("gzip", "open"): "file handle",
    ("lzma", "open"): "file handle",
    ("bz2", "open"): "file handle",
}

#: Project classes whose instances must be finalized/closed.
_HANDLE_CLASSES = {"WorldStoreWriter": "WorldStoreWriter"}

_CLOSERS = frozenset({"close", "finalize", "shutdown"})

_MAX_CLOSER_DEPTH = 4


class HandleLifecycleRule(Rule):
    id = "R9"
    name = "handle-lifecycle"
    description = (
        "sqlite connections, sockets, file handles and WorldStoreWriters "
        "must be closed/finalized on all paths (use with, or close in a "
        "finally:), especially on paths reachable from worker entry points"
    )

    def check(self, index: ModuleIndex) -> Iterator[Finding]:
        graph = get_callgraph(index)
        parents = graph.reachable(cell_roots(graph), expand_instances=True)
        for info in graph.iter_functions():
            reach = ""
            if info.key in parents:
                chain = graph.path_to(parents, info.key)
                reach = (
                    " on a worker-reachable path ("
                    + " -> ".join(graph.functions[k].qualname for k in chain)
                    + ")"
                )
            yield from _check_function(graph, info, reach)


def _check_function(graph: CallGraph, info: FunctionInfo, reach: str) -> Iterator[Finding]:
    aliases = import_aliases(info.module.tree)
    parents = _parent_map(info.node)
    scope_line = getattr(info.node, "lineno", 1)
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        label = _handle_label(graph, aliases, node)
        if label is None:
            continue
        context, name = _creation_context(parents, node)
        if context in ("with", "delegated"):
            continue
        if context == "chained":
            yield Finding(
                rule="R9",
                path=info.module.path,
                line=node.lineno,
                message=f"{label} is consumed inline and never closed{reach}",
                hint="bind it in a with statement instead of chaining off the constructor",
                scope_line=scope_line,
            )
            continue
        assert context == "tracked" and name is not None
        problem = _track_variable(graph, info, parents, node, name)
        if problem:
            yield Finding(
                rule="R9",
                path=info.module.path,
                line=node.lineno,
                message=f"{label} {problem}{reach}",
                hint=(
                    "open it in a with statement, or close/finalize it in a "
                    "finally: block so exception paths release it too"
                ),
                scope_line=scope_line,
            )


def _handle_label(graph: CallGraph, aliases: Dict[str, str], call: ast.Call) -> Optional[str]:
    chain = dotted_chain(call.func, aliases)
    if chain and tuple(chain) in _HANDLE_CHAINS:
        return f"{'.'.join(chain)}() {_HANDLE_CHAINS[tuple(chain)]}"
    # Project handle classes, by resolved constructor or by bare name.
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name in _HANDLE_CLASSES:
        return _HANDLE_CLASSES[name]
    return None


def _parent_map(root: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _creation_context(
    parents: Dict[int, ast.AST], call: ast.Call
) -> Tuple[str, Optional[str]]:
    """How the handle-creating call is used syntactically.

    ``with`` / ``delegated`` need no tracking; ``chained`` is an immediate
    finding; ``tracked`` means it was bound to a simple local name.
    """
    parent = parents.get(id(call))
    if isinstance(parent, ast.withitem):
        return "with", None
    if isinstance(parent, ast.Attribute):
        return "chained", None  # open(p).read()
    if (
        isinstance(parent, ast.Assign)
        and parent.value is call
        and len(parent.targets) == 1
        and isinstance(parent.targets[0], ast.Name)
    ):
        return "tracked", parent.targets[0].id
    if isinstance(parent, ast.AnnAssign) and parent.value is call and isinstance(parent.target, ast.Name):
        return "tracked", parent.target.id
    # Return value, call argument, container element, attribute store, ...:
    # ownership is transferred somewhere with its own lifecycle.
    return "delegated", None


def _track_variable(
    graph: CallGraph,
    info: FunctionInfo,
    parents: Dict[int, ast.AST],
    creation: ast.Call,
    name: str,
) -> Optional[str]:
    """The lifecycle problem for handle ``name``, or None when sound."""
    aliases = import_aliases(info.module.tree)
    closes: List[ast.Call] = []
    creation_stmt = _enclosing_stmt(parents, creation)
    for node in ast.walk(info.node):
        if node is creation_stmt:
            continue
        if _escapes(graph, info, aliases, node, name):
            return None
        close = _is_close(graph, node, name)
        if close is not None:
            closes.append(close)
    if not closes:
        return "is never closed"
    if any(_inside_finally(parents, c) for c in closes):
        return None
    return "is not closed on exception paths (close it in a finally: block)"


def _enclosing_stmt(parents: Dict[int, ast.AST], node: ast.AST) -> ast.AST:
    cursor: ast.AST = node
    while id(cursor) in parents and not isinstance(cursor, ast.stmt):
        cursor = parents[id(cursor)]
    return cursor


def _escapes(
    graph: CallGraph, info: FunctionInfo, aliases: Dict[str, str], node: ast.AST, name: str
) -> bool:
    if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
        value = node.value
        return value is not None and _directly_exposes(value, name)
    if isinstance(node, ast.Assign):
        if any(
            isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets
        ) and _directly_exposes(node.value, name):
            return True
        return False
    if isinstance(node, ast.withitem):
        # ``with closing(conn):`` — the with owns it now.
        return _mentions(node.context_expr, name)
    if isinstance(node, ast.Call):
        if not any(isinstance(a, ast.Name) and a.id == name for a in node.args):
            return False
        # Passed to a resolved project function that closes this parameter,
        # or to a method of another object (stored in its state).
        target = graph.call_target(node)
        if target is not None:
            index = next(
                i for i, a in enumerate(node.args) if isinstance(a, ast.Name) and a.id == name
            )
            return _callee_closes_param(graph, target, index, _MAX_CLOSER_DEPTH)
        func = node.func
        if isinstance(func, ast.Attribute):
            # ``handles.append(conn)`` stores it; ``json.dump(rows, fh)`` does
            # not.  An import-bound root is a plain module function; any other
            # receiver is an object method taking ownership of the handle.
            root = func.value
            return not (isinstance(root, ast.Name) and root.id in aliases)
        return False
    return False


def _mentions(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(child, ast.Name) and child.id == name for child in ast.walk(node)
    )


def _directly_exposes(node: ast.AST, name: str) -> bool:
    """Whether the expression exposes the handle *itself* (not a derived
    value like ``writer.finalize()``): the bare name, possibly wrapped in
    containers or a conditional."""
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_directly_exposes(e, name) for e in node.elts)
    if isinstance(node, ast.Dict):
        return any(v is not None and _directly_exposes(v, name) for v in node.values)
    if isinstance(node, ast.IfExp):
        return _directly_exposes(node.body, name) or _directly_exposes(node.orelse, name)
    if isinstance(node, (ast.Starred, ast.Await)):
        return _directly_exposes(node.value, name)
    return False


def _is_close(graph: CallGraph, node: ast.AST, name: str) -> Optional[ast.Call]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _CLOSERS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == name
    ):
        return node
    return None


def _callee_closes_param(graph: CallGraph, key: str, index: int, depth: int) -> bool:
    if depth <= 0:
        return False
    info = graph.functions.get(key)
    if info is None:
        return False
    if info.is_class:
        return False
    args = getattr(info.node, "args", None)
    if args is None:
        return False
    names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
    offset = 1 if names and names[0] in ("self", "cls") else 0
    if index + offset >= len(names):
        return False
    pname = names[index + offset]
    for node in ast.walk(info.node):
        if _is_close(graph, node, pname) is not None:
            return True
        if isinstance(node, ast.withitem) and _mentions(node.context_expr, pname):
            return True
        if isinstance(node, ast.Call) and any(
            isinstance(a, ast.Name) and a.id == pname for a in node.args
        ):
            target = graph.call_target(node)
            if target is not None:
                sub_index = next(
                    i for i, a in enumerate(node.args) if isinstance(a, ast.Name) and a.id == pname
                )
                if _callee_closes_param(graph, target, sub_index, depth - 1):
                    return True
    return False


def _inside_finally(parents: Dict[int, ast.AST], node: ast.AST) -> bool:
    cursor: ast.AST = node
    while id(cursor) in parents:
        parent = parents[id(cursor)]
        if isinstance(parent, ast.Try) and any(c is cursor for c in parent.finalbody):
            return True
        cursor = parent
    return False
