"""R6 — streaming incrementality: update paths must not rescan history.

The streaming tier (``repro.streaming``) promises O(window) work per
arriving point: every incremental consumer is fed through
``update_many(chunk)``, and the state it scans on each call must be
*pruned* — a sliding window, a closable bucket — never the full history.
This rule flags the canonical regression: a ``for`` loop or comprehension
inside an update root (``update_many()``, or an ``update()`` should a
consumer define one) or a private helper reachable from it that iterates
an instance buffer the class only ever grows
(``append``/``add``/``extend``/item assignment) and never prunes
(``pop``/``popleft``/``remove``/``clear``/``del``/reassignment).  Such a
loop makes per-point cost O(history) and turns the streaming tier into a
re-run of the batch attack.

Scope notes:

* Bucket access is fine — ``self._grid[cell]`` or ``self._index.get(key)``
  selects one cell of a spatial index, it does not walk the history.
* Finalize paths are exempt: ``finalize()`` legitimately folds whatever
  state remains, and it runs once per stream, not once per point.
* An append-only buffer that the update paths never *iterate* is legal too
  (DJ-Cluster retains all stationary fixes by construction; its update
  paths only append to them, and only ``finalize()`` reads them).

What R6 cannot see:

* Resident state.  A buffer that is appended to or probed, not iterated,
  passes however large it grows: streaming DJ-Cluster keeps every
  stationary fix (``BENCH_stream.small.json`` records 77 % of the
  stream's points resident at its peak), and R6 passes it because its
  update paths only append to those columns.
* Vectorized scans.  ``np.asarray(self._history)`` or a numpy reduction
  over a grown buffer walks it in C, not in a Python loop, and is not
  flagged, so a per-chunk pass over resident columns would go unseen.
* Buffers reached through a local (``st = self._users[u]; for x in
  st.xs``): subscripts end the attribute chain, as bucket access should.

Genuinely intrinsic full-history scans can be waived with
``# repro: allow=R6 -- reason`` on the loop or the enclosing ``def``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..findings import Finding
from ..index import ModuleIndex
from .base import Rule

__all__ = ["StreamingIncrementalityRule"]

_TARGETS = ("repro/streaming/",)

#: The per-arrival entry points: ``update_many``, and ``update`` if defined.
_UPDATE_ROOTS = ("update", "update_many")

#: Method calls on an instance buffer that grow it.
_GROW_METHODS = {"append", "appendleft", "add", "extend", "insert", "setdefault", "update"}
#: Method calls that shrink it — evidence the buffer is a bounded window.
_PRUNE_METHODS = {"pop", "popleft", "popitem", "remove", "discard", "clear"}
#: Dict/set views through which iteration still walks the whole container.
_VIEW_METHODS = {"items", "keys", "values", "copy"}
#: Builtins through which an iterable still walks its argument element-wise.
_ITER_WRAPPERS = {"zip", "enumerate", "reversed", "sorted", "iter", "list", "tuple", "set", "frozenset", "map", "filter"}
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _self_attr(node: ast.AST) -> Optional[str]:
    """The instance attribute a ``self.X...`` chain hangs off, else ``None``.

    ``self._window`` -> ``_window``; ``self._users[k].xs`` -> ``_users``
    (growing a bucket still grows the container that holds it); ``st.xs``
    (attribute of a local) -> ``None``.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            return node.attr
        node = node.value
    return None


class _ClassProfile:
    """Grow/prune inventory and update-reachability for one class body."""

    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        self.methods: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.grown: Set[str] = set()
        self.pruned: Set[str] = set()
        calls: Dict[str, Set[str]] = {name: set() for name in self.methods}

        for name, method in self.methods.items():
            for sub in ast.walk(method):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    owner = sub.func.value
                    if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
                        if sub.func.attr in self.methods:
                            calls[name].add(sub.func.attr)
                    attr = _self_attr(owner)
                    if attr is not None:
                        if sub.func.attr in _GROW_METHODS:
                            self.grown.add(attr)
                        elif sub.func.attr in _PRUNE_METHODS:
                            self.pruned.add(attr)
                elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Subscript):
                            attr = _self_attr(target.value)
                            if attr is not None:
                                self.grown.add(attr)
                        elif (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in ("self", "cls")
                            and name != "__init__"
                            and isinstance(sub, ast.Assign)
                        ):
                            # Reassignment outside __init__ resets the buffer.
                            self.pruned.add(target.attr)
                elif isinstance(sub, ast.Delete):
                    for target in sub.targets:
                        if isinstance(target, ast.Subscript):
                            attr = _self_attr(target.value)
                            if attr is not None:
                                self.pruned.add(attr)

        # Fixpoint: update()/update_many() plus every method transitively
        # called from them via self/cls — those all run once per arrival.
        reachable = {name for name in self.methods if name in _UPDATE_ROOTS}
        frontier = list(reachable)
        while frontier:
            for callee in calls.get(frontier.pop(), ()):
                if callee not in reachable:
                    reachable.add(callee)
                    frontier.append(callee)
        self.update_reachable = reachable

    def unbounded(self, attr: str) -> bool:
        return attr in self.grown and attr not in self.pruned


class StreamingIncrementalityRule(Rule):
    id = "R6"
    name = "streaming-incrementality"
    description = (
        "streaming update()/update_many() paths must stay O(window): iterating "
        "an instance buffer that only ever grows makes per-point cost O(history)"
    )

    def check(self, index: ModuleIndex) -> Iterator[Finding]:
        for module in index.modules_matching(*_TARGETS):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(module.path, _ClassProfile(node))

    def _check_class(self, path: str, profile: _ClassProfile) -> Iterator[Finding]:
        for name in sorted(profile.update_reachable):
            method = profile.methods[name]
            aliases = self._local_aliases(method)
            for sub in ast.walk(method):
                if isinstance(sub, ast.For):
                    iterables: List[ast.AST] = [sub.iter]
                elif isinstance(sub, _COMPREHENSIONS):
                    iterables = [gen.iter for gen in sub.generators]
                else:
                    continue
                for it in iterables:
                    attr = self._iterated_attr(it, aliases)
                    if attr is not None and profile.unbounded(attr):
                        yield Finding(
                            rule=self.id,
                            path=path,
                            line=sub.lineno,
                            message=(
                                f"update path {profile.node.name}.{name} iterates "
                                f"self.{attr}, which is grown but never pruned — "
                                "per-point cost is O(history), not O(window)"
                            ),
                            hint=(
                                "evict processed entries (pop/popleft/del/clear) so "
                                "the loop walks a sliding window, or waive with "
                                '"# repro: allow=R6 -- reason" if the full scan '
                                "is intrinsic to the attack"
                            ),
                            scope_line=method.lineno,
                        )
                        break

    @staticmethod
    def _local_aliases(method: ast.AST) -> Dict[str, str]:
        """Plain ``name = self.X`` bindings (one level, no reassignment checks)."""
        aliases: Dict[str, str] = {}
        for sub in ast.walk(method):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and isinstance(sub.value, ast.Attribute)
                    and isinstance(sub.value.value, ast.Name)
                    and sub.value.value.id in ("self", "cls")
                ):
                    aliases[target.id] = sub.value.attr
        return aliases

    @classmethod
    def _iterated_attr(
        cls, iterable: ast.AST, aliases: Dict[str, str]
    ) -> Optional[str]:
        """The instance buffer an iterable walks in full, if any.

        Follows iteration wrappers (``sorted``/``zip``/``enumerate``/...),
        dict views (``.items()``/``.values()``) and ``name = self.X``
        aliases; stops at subscripts and ``.get()``-style calls — selecting
        one bucket of an index is exactly the incremental access pattern
        this rule exists to encourage.
        """
        if isinstance(iterable, ast.Name):
            return aliases.get(iterable.id)
        if isinstance(iterable, ast.Attribute):
            if isinstance(iterable.value, ast.Name) and iterable.value.id in (
                "self",
                "cls",
            ):
                return iterable.attr
            return None
        if isinstance(iterable, (ast.Tuple, ast.List)):
            for element in iterable.elts:
                found = cls._iterated_attr(element, aliases)
                if found:
                    return found
            return None
        if isinstance(iterable, ast.Call):
            func = iterable.func
            if isinstance(func, ast.Name) and func.id in _ITER_WRAPPERS:
                for arg in iterable.args:
                    found = cls._iterated_attr(arg, aliases)
                    if found:
                        return found
                return None
            if isinstance(func, ast.Attribute) and func.attr in _VIEW_METHODS:
                return cls._iterated_attr(func.value, aliases)
        return None
