"""Small AST helpers shared by the rule passes."""

from __future__ import annotations

import ast
import copy
import hashlib
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "import_aliases",
    "dotted_chain",
    "iter_scoped_nodes",
    "enclosing_def_line",
    "node_fingerprint",
]


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted origin they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy import random as nr`` -> ``{"nr": "numpy.random"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def dotted_chain(node: ast.AST, aliases: Optional[Dict[str, str]] = None) -> Optional[List[str]]:
    """``np.random.default_rng`` -> ``["numpy", "random", "default_rng"]``.

    Attribute chains rooted at a Name are resolved through ``aliases``;
    anything else (calls, subscripts) returns ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if aliases and root in aliases:
        parts.extend(reversed(aliases[root].split(".")))
    else:
        parts.append(root)
    return list(reversed(parts))


#: Node types pushed onto the scope stack: lexical scopes plus loops and
#: comprehensions, so rules can ask "am I inside a loop?" from the stack.
_STACKED = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def iter_scoped_nodes(tree: ast.AST) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """Yield ``(node, stack)``; the stack holds enclosing defs, classes,
    loops and comprehensions (consumers filter by node type)."""

    def visit(node: ast.AST, stack: Tuple[ast.AST, ...]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            yield child, stack
            if isinstance(child, _STACKED):
                yield from visit(child, stack + (child,))
            else:
                yield from visit(child, stack)

    yield from visit(tree, ())


def enclosing_def_line(stack: Tuple[ast.AST, ...]) -> Optional[int]:
    """Line of the innermost enclosing function def (for def-line waivers)."""
    for node in reversed(stack):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.lineno
    return None


def node_fingerprint(node: ast.AST) -> str:
    """A short, comment- and docstring-insensitive hash of a def's structure.

    Used by the cache-key drift rule to pin serializer code to the committed
    contract: formatting and documentation edits do not change the hash, any
    structural edit does.
    """
    clone = copy.deepcopy(node)
    body = getattr(clone, "body", None)
    if (
        isinstance(body, list)
        and body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        del body[0]
    dump = ast.dump(clone, annotate_fields=False, include_attributes=False)
    return hashlib.sha1(dump.encode("utf-8")).hexdigest()[:16]

