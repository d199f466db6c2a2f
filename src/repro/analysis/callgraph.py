"""Project-wide call graph over the parsed-module index.

The graph is the name-resolution substrate for the interprocedural rules
(R1's reachable scope and R9): every top-level function, method and class
in the scanned tree becomes a node, and edges are added for

* direct calls (``helper(x)``, ``module.helper(x)``) resolved through the
  module's imports — absolute imports resolve by dotted-path suffix against
  the scanned tree (so fixture trees replicating ``repro/...`` resolve the
  same way the real tree does), relative imports resolve against the
  importing module's package directory;
* method calls — ``self.m()`` / ``cls.m()`` through the enclosing class and
  its (resolved) bases, ``obj.m()`` when ``obj``'s class is inferred from a
  local construction, an annotation, or a resolved call's return annotation;
* instantiations — calling a class adds an edge to the class node; the
  reachability walk can *expand* a visited class into its methods (an object
  built on a cell-computation path has its methods called on that path);
* bare references — passing ``f`` (undecorated, uncalled) to ``pool.map``
  or a decorator still edges to ``f``: address-taken means called;
* registry indirection — ``make_attack("spec")`` / ``ATTACKS.create_parsed``
  with a literal spec string edges to the factory registered under that
  name (``|`` chains split, ``:params`` stripped); a non-literal spec edges
  to every factory of that registry kind.

Resolution is deliberately best-effort: anything unresolved (stdlib, numpy,
dynamic dispatch) simply produces no edge.  Rules built on the graph are
therefore under-approximate, which is the right polarity for a linter.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .index import ModuleIndex, ParsedModule

__all__ = ["CallGraph", "FunctionInfo", "ClassInfo", "get_callgraph"]

#: Registration decorators / direct registrars mapped to their registry kind.
_REGISTRAR_KINDS = {
    "register_attack": "attack",
    "register_mechanism": "mechanism",
    "register_metric": "metric",
    "register_world": "world",
}

#: Registry object names mapped to their kind (for ``ATTACKS.register(...)``).
_REGISTRY_OBJECTS = {
    "ATTACKS": "attack",
    "MECHANISMS": "mechanism",
    "METRICS": "metric",
    "WORLDS": "world",
}

#: Spec-consuming call tails: ``make_attack("poi-retrieval:radius=100")``.
_FACTORY_CALLS = {
    "make_attack": "attack",
    "make_mechanism": "mechanism",
    "make_metric": "metric",
    "make_world": "world",
}

_CREATE_METHODS = {"create", "create_parsed"}


@dataclass
class FunctionInfo:
    """One graph node: a function, method, or class definition."""

    key: str  #: ``<logical path>::<qualname>``
    module: ParsedModule
    node: ast.AST  #: FunctionDef / AsyncFunctionDef / ClassDef
    qualname: str  #: ``f`` or ``Class.method`` or ``Class``
    name: str
    class_key: Optional[str] = None  #: owning class node, for methods

    @property
    def is_class(self) -> bool:
        return isinstance(self.node, ast.ClassDef)


@dataclass
class ClassInfo:
    key: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  #: name -> function key
    base_keys: List[str] = field(default_factory=list)  #: resolved project bases


@dataclass
class _ModuleScope:
    """Per-module symbol table: top-level defs plus import bindings."""

    module: ParsedModule
    defs: Dict[str, str] = field(default_factory=dict)  #: name -> node key
    #: name -> ("module", path-or-dotted) | ("symbol", module-spec, original name)
    imports: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


def _module_slug(logical: str) -> str:
    """``src/repro/io/x.py`` -> ``src/repro/io/x`` (``__init__`` drops)."""
    slug = logical[:-3] if logical.endswith(".py") else logical
    if slug.endswith("/__init__"):
        slug = slug[: -len("/__init__")]
    return slug


class CallGraph:
    """Functions, classes, edges, and registry registrations of one index."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: Dict[str, Set[str]] = {}
        #: kind -> lowercased spec name -> registered node keys
        self.registrations: Dict[str, Dict[str, List[str]]] = {}
        self._scopes: Dict[str, _ModuleScope] = {}  #: logical path -> scope
        self._slug_index: Dict[str, List[str]] = {}  #: path segment-suffix cache
        self._call_targets: Dict[int, str] = {}  #: id(ast.Call) -> resolved key

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_index(cls, index: ModuleIndex) -> "CallGraph":
        graph = cls()
        for module in index.modules:
            graph._index_module(module)
        graph._resolve_bases()
        for module in index.modules:
            graph._collect_registrations(module)
        for info in list(graph.functions.values()):
            if not info.is_class:
                graph._collect_edges(info)
        return graph

    def _index_module(self, module: ParsedModule) -> None:
        scope = _ModuleScope(module=module)
        self._scopes[module.logical] = scope
        slug = _module_slug(module.logical)
        # Register every path-segment suffix so absolute dotted imports
        # (``repro.io.sampling``) resolve inside fixture trees mounted under
        # a prefix (``tests/reprolint_fixtures/<case>/repro/io/sampling.py``).
        parts = slug.split("/")
        for i in range(len(parts)):
            self._slug_index.setdefault("/".join(parts[i:]), []).append(module.logical)

        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{module.logical}::{stmt.name}"
                self.functions[key] = FunctionInfo(key, module, stmt, stmt.name, stmt.name)
                scope.defs[stmt.name] = key
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(module, scope, stmt)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._index_import(module, scope, stmt)

    def _index_class(self, module: ParsedModule, scope: _ModuleScope, node: ast.ClassDef) -> None:
        key = f"{module.logical}::{node.name}"
        info = ClassInfo(key=key, node=node)
        self.functions[key] = FunctionInfo(key, module, node, node.name, node.name)
        self.classes[key] = info
        scope.defs[node.name] = key
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mkey = f"{module.logical}::{node.name}.{stmt.name}"
                self.functions[mkey] = FunctionInfo(
                    mkey, module, stmt, f"{node.name}.{stmt.name}", stmt.name, class_key=key
                )
                info.methods[stmt.name] = mkey

    def _index_import(self, module: ParsedModule, scope: _ModuleScope, stmt: ast.AST) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    scope.imports[alias.asname] = ("module", alias.name.replace(".", "/"))
                else:
                    root = alias.name.split(".")[0]
                    scope.imports.setdefault(root, ("module", root))
            return
        assert isinstance(stmt, ast.ImportFrom)
        if stmt.level == 0:
            base = (stmt.module or "").replace(".", "/")
        else:
            package = _module_slug(module.logical).rsplit("/", 1)[0] if "/" in module.logical else ""
            if module.logical.endswith("/__init__.py"):
                package = _module_slug(module.logical)
            for _ in range(stmt.level - 1):
                package = package.rsplit("/", 1)[0] if "/" in package else ""
            base = f"{package}/{stmt.module.replace('.', '/')}" if stmt.module else package
        for alias in stmt.names:
            local = alias.asname or alias.name
            if alias.name == "*":
                continue
            scope.imports[local] = ("maybe", base, alias.name)

    def _resolve_bases(self) -> None:
        for cinfo in self.classes.values():
            finfo = self.functions[cinfo.key]
            scope = self._scopes[finfo.module.logical]
            for base in cinfo.node.bases:
                parts = _name_parts(base)
                if parts:
                    resolved = self._resolve_chain(scope, parts, ctx=None)
                    if resolved and resolved in self.classes:
                        cinfo.base_keys.append(resolved)

    # -- module / symbol resolution -------------------------------------------------

    def _resolve_module(self, path_like: str) -> Optional[_ModuleScope]:
        """A module by exact path or by path-segment suffix (shortest wins)."""
        if not path_like:
            return None
        for candidate in (f"{path_like}.py", f"{path_like}/__init__.py"):
            if candidate in self._scopes:
                return self._scopes[candidate]
        matches = self._slug_index.get(path_like, [])
        if matches:
            return self._scopes[min(matches, key=len)]
        return None

    def _resolve_symbol(
        self, module_spec: str, name: str, _visited: Optional[Set[str]] = None
    ) -> Optional[str]:
        """A def/class key for ``name`` in the module at ``module_spec``,
        chasing one-level re-exports through ``__init__`` modules."""
        scope = self._resolve_module(module_spec)
        if scope is None:
            return None
        if name in scope.defs:
            return scope.defs[name]
        visited = _visited or set()
        if scope.module.logical in visited:
            return None
        visited.add(scope.module.logical)
        entry = scope.imports.get(name)
        if entry and entry[0] == "maybe":
            _, base, original = entry
            return self._resolve_symbol(base, original, visited) or self._resolve_symbol(
                f"{base}/{original}" if base else original, name, visited
            )
        return None

    def _lookup_method(self, class_key: str, name: str, _seen: Optional[Set[str]] = None) -> Optional[str]:
        seen = _seen or set()
        if class_key in seen or class_key not in self.classes:
            return None
        seen.add(class_key)
        cinfo = self.classes[class_key]
        if name in cinfo.methods:
            return cinfo.methods[name]
        for base in cinfo.base_keys:
            found = self._lookup_method(base, name, seen)
            if found:
                return found
        return None

    def _resolve_chain(
        self, scope: _ModuleScope, parts: Sequence[str], ctx: Optional["_FunctionCtx"]
    ) -> Optional[str]:
        """Resolve a dotted reference (``helper``, ``mod.f``, ``self.m``,
        ``Class.m``, ``obj.m``) to a node key, or None for externals."""
        root = parts[0]
        if ctx is not None:
            if root in ("self", "cls") and ctx.class_key and len(parts) == 2:
                return self._lookup_method(ctx.class_key, parts[1])
            var_class = ctx.var_types.get(root)
            if var_class and len(parts) == 2:
                return self._lookup_method(var_class, parts[1])
        key = scope.defs.get(root)
        if key is None and root in scope.imports:
            entry = scope.imports[root]
            if entry[0] == "module":
                return self._resolve_in_module(entry[1], parts[1:])
            _, base, original = entry
            key = self._resolve_symbol(base, original)
            if key is None:
                # ``from a import b`` where b is a submodule, not a symbol.
                sub = f"{base}/{original}" if base else original
                if self._resolve_module(sub) is not None:
                    return self._resolve_in_module(sub, parts[1:])
        if key is None:
            return None
        if len(parts) == 1:
            return key
        if len(parts) == 2 and key in self.classes:
            return self._lookup_method(key, parts[1])
        return None

    def _resolve_in_module(self, module_spec: str, rest: Sequence[str]) -> Optional[str]:
        """Resolve ``rest`` relative to a module binding (``pkg.util.helper``)."""
        if not rest:
            return None
        # Longest module-path prefix first: ``import a.b`` then ``a.b.c.f()``.
        for split in range(len(rest) - 1, -1, -1):
            spec = "/".join([module_spec, *rest[:split]])
            target = self._resolve_module(spec)
            if target is None:
                continue
            symbol = self._resolve_symbol(spec, rest[split])
            if symbol is None:
                continue
            leftover = rest[split + 1 :]
            if not leftover:
                return symbol
            if len(leftover) == 1 and symbol in self.classes:
                return self._lookup_method(symbol, leftover[0])
            return None
        return None

    # -- registrations --------------------------------------------------------------

    def _registrar_kind(self, func: ast.AST) -> Optional[str]:
        parts = _name_parts(func)
        if not parts:
            return None
        if parts[-1] in _REGISTRAR_KINDS:
            return _REGISTRAR_KINDS[parts[-1]]
        if parts[-1] == "register":
            return _REGISTRY_OBJECTS.get(parts[-2], "any") if len(parts) >= 2 else "any"
        return None

    def _collect_registrations(self, module: ParsedModule) -> None:
        scope = self._scopes[module.logical]
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = scope.defs.get(stmt.name)
                for dec in stmt.decorator_list:
                    if not isinstance(dec, ast.Call):
                        continue
                    kind = self._registrar_kind(dec.func)
                    if kind and key:
                        self._register(kind, _first_str_arg(dec), key)
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                if isinstance(call.func, ast.Call):
                    # Curried form: ``WORLDS.register("name")(factory)``.
                    inner = call.func
                    kind = self._registrar_kind(inner.func)
                    if kind is None:
                        continue
                    factories, name = call.args, _first_str_arg(inner)
                else:
                    # Direct form: ``register_world("name", factory)``.
                    kind = self._registrar_kind(call.func)
                    if kind is None:
                        continue
                    factories, name = call.args[1:], _first_str_arg(call)
                for arg in factories:
                    parts = _name_parts(arg)
                    if parts:
                        key = self._resolve_chain(scope, parts, ctx=None)
                        if key:
                            self._register(kind, name, key)

    def _register(self, kind: str, name: Optional[str], key: str) -> None:
        bucket = self.registrations.setdefault(kind, {})
        bucket.setdefault((name or "").lower(), []).append(key)

    def registered_factories(
        self, kind: Optional[str] = None, name: Optional[str] = None
    ) -> List[str]:
        """Node keys registered under ``name`` (all names when None) in
        registries of ``kind`` plus the unidentified-``any`` bucket."""
        kinds = [kind, "any"] if kind else list(self.registrations)
        keys: List[str] = []
        for k in kinds:
            bucket = self.registrations.get(k or "", {})
            if name is None:
                for registered in bucket.values():
                    keys.extend(registered)
            else:
                keys.extend(bucket.get(name.lower(), []))
        return keys

    # -- edges ----------------------------------------------------------------------

    def _collect_edges(self, info: FunctionInfo) -> None:
        scope = self._scopes[info.module.logical]
        ctx = _FunctionCtx(class_key=info.class_key)
        self._infer_var_types(info, scope, ctx)
        out = self.edges.setdefault(info.key, set())
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                resolved = self._resolve_call(scope, ctx, node)
                if resolved:
                    out.add(resolved)
                    self._call_targets[id(node)] = resolved
                out.update(self._registry_edges(node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                # Address-taken: ``pool.map(_evaluate, ...)`` means called.
                key = self._resolve_chain(scope, [node.id], ctx)
                if key:
                    out.add(key)

    def _infer_var_types(self, info: FunctionInfo, scope: _ModuleScope, ctx: "_FunctionCtx") -> None:
        args = getattr(info.node, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                cls = self._annotation_class(scope, arg.annotation)
                if cls:
                    ctx.var_types[arg.arg] = cls
        for node in ast.walk(info.node):
            target: Optional[str] = None
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    target, value = node.targets[0].id, node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                cls = self._annotation_class(scope, node.annotation)
                if cls:
                    ctx.var_types[node.target.id] = cls
                continue
            if target is None or not isinstance(value, ast.Call):
                continue
            parts = _name_parts(value.func)
            if not parts:
                continue
            resolved = self._resolve_chain(scope, parts, ctx)
            if resolved in self.classes:
                ctx.var_types[target] = resolved
            elif resolved in self.functions:
                # ``store = WorldStore.open(p)`` via the return annotation.
                returns = getattr(self.functions[resolved].node, "returns", None)
                cls = self._annotation_class(self._scopes[self.functions[resolved].module.logical], returns)
                if cls:
                    ctx.var_types[target] = cls

    def _annotation_class(self, scope: _ModuleScope, annotation: Optional[ast.AST]) -> Optional[str]:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            name = annotation.value.strip().split("[")[0]
            parts: Optional[List[str]] = name.split(".") if name.isidentifier() or "." in name else None
        else:
            parts = _name_parts(annotation)
        if not parts:
            return None
        resolved = self._resolve_chain(scope, parts, ctx=None)
        return resolved if resolved in self.classes else None

    def _resolve_call(self, scope: _ModuleScope, ctx: "_FunctionCtx", call: ast.Call) -> Optional[str]:
        parts = _name_parts(call.func)
        if not parts:
            return None
        return self._resolve_chain(scope, parts, ctx)

    def _registry_edges(self, call: ast.Call) -> Set[str]:
        parts = _name_parts(call.func)
        if not parts:
            return set()
        kind: Optional[str] = None
        matched = False
        if parts[-1] in _FACTORY_CALLS:
            kind, matched = _FACTORY_CALLS[parts[-1]], True
        elif parts[-1] in _CREATE_METHODS and len(parts) >= 2:
            matched = True
            kind = _REGISTRY_OBJECTS.get(parts[-2])
        if not matched or not call.args:
            return set()
        spec = call.args[0]
        if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
            keys: Set[str] = set()
            for part in spec.value.split("|"):
                name = part.split(":", 1)[0].strip()
                if name:
                    keys.update(self.registered_factories(kind, name))
            return keys
        # Dynamic spec: every factory of that kind is potentially constructed.
        return set(self.registered_factories(kind))

    # -- queries --------------------------------------------------------------------

    def call_target(self, call: ast.Call) -> Optional[str]:
        """The resolved node key for a call seen during edge collection."""
        return self._call_targets.get(id(call))

    def functions_named(self, name: str, *path_patterns: str) -> List[str]:
        """Keys of functions called ``name``, optionally scoped by path."""
        return [
            info.key
            for info in self.functions.values()
            if info.name == name
            and not info.is_class
            and (not path_patterns or info.module.matches(*path_patterns))
        ]

    def reachable(
        self, roots: Iterable[str], expand_instances: bool = True
    ) -> Dict[str, Optional[str]]:
        """BFS parent map from ``roots``; visiting a class node also enqueues
        its methods when ``expand_instances`` (constructed on this path means
        its methods run on this path)."""
        parents: Dict[str, Optional[str]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            key = queue.popleft()
            targets = set(self.edges.get(key, ()))
            if expand_instances and key in self.classes:
                targets.update(self.classes[key].methods.values())
            for target in sorted(targets):
                if target not in parents:
                    parents[target] = key
                    queue.append(target)
        return parents

    def path_to(self, parents: Dict[str, Optional[str]], key: str) -> List[str]:
        """Root-first chain of node keys leading to ``key``."""
        chain: List[str] = []
        cursor: Optional[str] = key
        while cursor is not None and cursor not in chain:
            chain.append(cursor)
            cursor = parents.get(cursor)
        return list(reversed(chain))

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every non-class node, in deterministic order."""
        for key in sorted(self.functions):
            info = self.functions[key]
            if not info.is_class:
                yield info


@dataclass
class _FunctionCtx:
    class_key: Optional[str] = None
    var_types: Dict[str, str] = field(default_factory=dict)  #: name -> class key


def _first_str_arg(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


def _name_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-Name-rooted expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def get_callgraph(index: ModuleIndex) -> CallGraph:
    """The (cached) call graph for an index; built once per analysis run."""
    graph = getattr(index, "_callgraph", None)
    if graph is None:
        graph = CallGraph.from_index(index)
        index._callgraph = graph  # type: ignore[attr-defined]
    return graph
