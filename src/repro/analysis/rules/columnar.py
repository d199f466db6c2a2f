"""R3 — columnar discipline: no per-point Python loops in hot paths.

Every attack and mechanism hot path was ported onto the columnar kernel
layer (``repro.geo.kernels``); the scalar implementations survive only as
``*_reference`` oracle entry points.  This rule keeps it that way: in hot-path
modules (``attacks/``, ``mixzones/``, ``baselines/``, ``metrics/``,
``core/``) it flags

* ``for``/``while`` loops and comprehensions that iterate directly over
  per-point trajectory arrays (``.lats``/``.lons``/``.timestamps``/
  ``.points``), and
* scalar per-element distance calls (``haversine``/``equirectangular``, and
  the planar ``point_segment_distance_m``/``point_to_polyline_distance_m``)
  evaluated inside any loop or comprehension — the canonical sign of a
  point-at-a-time Python path (use ``haversine_array`` on the whole batch,
  or ``repro.geo.kernels.polyline_distances`` for point-to-path distances),

unless the code is oracle scope.  Oracle scope is computed per module as a
fixpoint: functions whose name contains ``reference`` or ``scalar``, and
private functions reachable *only* from oracle scope.  A runtime branch on a
setting never confers oracle scope: an oracle is a named entry point, not a
knob.  The surviving findings are exactly the inventory of scalar residuals.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import enclosing_def_line, iter_scoped_nodes
from ..findings import Finding
from ..index import ModuleIndex, ParsedModule
from .base import Rule

__all__ = ["ColumnarDisciplineRule"]

_TARGETS = ("repro/attacks/", "repro/mixzones/", "repro/baselines/", "repro/metrics/", "repro/core/")

_POINT_ATTRS = {"lats", "lons", "timestamps", "points"}
#: Builtins through which an iterable still walks its argument element-wise.
_ITER_WRAPPERS = {"zip", "enumerate", "reversed", "sorted", "iter", "list", "tuple", "range", "len", "map", "filter"}
_SCALAR_DISTANCE = {
    "haversine",
    "equirectangular",
    "point_segment_distance_m",
    "point_to_polyline_distance_m",
}
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_LOOPS = (ast.For, ast.While, *_COMPREHENSIONS)


class _ModuleOracle:
    """Oracle-scope resolution for one module (see the module docstring)."""

    def __init__(self, module: ParsedModule) -> None:
        functions: Dict[str, ast.AST] = {}
        # every local call site: callee -> [enclosing function name]
        call_sites: Dict[str, List[Optional[str]]] = {}
        roots: Set[str] = set()

        for node, stack in iter_scoped_nodes(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
                if "reference" in node.name.lower() or "scalar" in node.name.lower():
                    roots.add(node.name)
            elif isinstance(node, ast.Call):
                func = node.func
                callee = None
                if isinstance(func, ast.Name):
                    callee = func.id
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                ):
                    callee = func.attr
                if callee:
                    call_sites.setdefault(callee, []).append(
                        self._enclosing_function_name(stack)
                    )

        # Fixpoint: a *private* helper is oracle when every one of its (at
        # least one) call sites sits inside an oracle function.  Shared
        # helpers called from both paths therefore stay hot, as do public
        # entry points (callers outside the module are invisible to this
        # pass).
        oracle = {name for name in roots if name in functions}
        changed = True
        while changed:
            changed = False
            for name in functions:
                if name in oracle or not name.startswith("_"):
                    continue
                callers = call_sites.get(name, [])
                if callers and all(caller in oracle for caller in callers):
                    oracle.add(name)
                    changed = True
        self.oracle_functions = oracle

    @staticmethod
    def _enclosing_function_name(stack: Tuple[ast.AST, ...]) -> Optional[str]:
        for node in reversed(stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return None

    def covers(self, stack: Tuple[ast.AST, ...]) -> bool:
        name = self._enclosing_function_name(stack)
        return name is not None and name in self.oracle_functions


class ColumnarDisciplineRule(Rule):
    id = "R3"
    name = "columnar-discipline"
    description = (
        "hot-path modules must not walk points in Python: per-point loops and "
        "scalar distance calls in loops are reserved for *_reference oracles"
    )

    def check(self, index: ModuleIndex) -> Iterator[Finding]:
        for module in index.modules_matching(*_TARGETS):
            oracle = _ModuleOracle(module)
            for node, stack in iter_scoped_nodes(module.tree):
                in_loop = any(isinstance(s, _LOOPS) for s in stack) or isinstance(
                    node, _LOOPS
                )
                if isinstance(node, _COMPREHENSIONS) or isinstance(node, ast.For):
                    iterables = (
                        [node.iter]
                        if isinstance(node, ast.For)
                        else [gen.iter for gen in node.generators]
                    )
                    for it in iterables:
                        attr = self._point_attr(it)
                        if attr and not oracle.covers(stack):
                            yield Finding(
                                rule=self.id,
                                path=module.path,
                                line=node.lineno,
                                message=(
                                    f"per-point loop over trajectory array "
                                    f"(.{attr}) in a hot-path module"
                                ),
                                hint=(
                                    "use the columnar kernels (repro.geo.kernels) "
                                    "over the dataset's flattened view, or keep the "
                                    "loop in a *_reference oracle"
                                ),
                                scope_line=enclosing_def_line(stack),
                            )
                            break
                if (
                    isinstance(node, ast.Call)
                    and in_loop
                    and self._scalar_distance_name(node) is not None
                    and not oracle.covers(stack)
                ):
                    yield Finding(
                        rule=self.id,
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"scalar {self._scalar_distance_name(node)}() call "
                            "inside a loop in a hot-path module"
                        ),
                        hint=(
                            "batch the distances with haversine_array/"
                            "equirectangular_array over numpy arrays, or "
                            "point-to-path distances with polyline_distances"
                        ),
                        scope_line=enclosing_def_line(stack),
                    )

    @classmethod
    def _point_attr(cls, iterable: ast.AST) -> Optional[str]:
        """The per-point attribute an iterable walks element-wise, if any.

        Follows iteration wrappers (``zip``/``enumerate``/``range(len(..))``,
        slices, method calls like ``.tolist()``) but not arbitrary calls — a
        point array passed as an *argument* to a batched helper is not being
        iterated by this loop.
        """
        if isinstance(iterable, ast.Attribute):
            if iterable.attr in _POINT_ATTRS:
                return iterable.attr
            return cls._point_attr(iterable.value)
        if isinstance(iterable, ast.Subscript):
            return cls._point_attr(iterable.value)
        if isinstance(iterable, (ast.Tuple, ast.List)):
            for element in iterable.elts:
                found = cls._point_attr(element)
                if found:
                    return found
            return None
        if isinstance(iterable, ast.Call):
            func = iterable.func
            if isinstance(func, ast.Name) and func.id in _ITER_WRAPPERS:
                for arg in iterable.args:
                    found = cls._point_attr(arg)
                    if found:
                        return found
                return None
            if isinstance(func, ast.Attribute):
                # a method call on the array itself (.tolist(), .flatten(), ...)
                return cls._point_attr(func.value)
        return None

    @staticmethod
    def _scalar_distance_name(call: ast.Call) -> Optional[str]:
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name if name in _SCALAR_DISTANCE else None
