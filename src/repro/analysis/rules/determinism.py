"""R1 — determinism: no ambient randomness or wall clocks on cell paths.

Every engine cell must be a pure function of its spec strings and seed —
that is what makes rows bitwise-identical across scheduler backends and
cell-cache keys stable.  This rule flags any call that draws entropy or
time from the environment instead of a threaded
``numpy.random.Generator``/seed:

* the legacy global numpy RNG (``np.random.rand``, ``np.random.seed``, ...),
  ``np.random.RandomState`` (legacy, superseded by ``Generator``) and
  ``np.random.default_rng()`` *without* a seed argument;
* stdlib ``random`` module functions and unseeded ``random.Random()``
  (``random.SystemRandom`` is flagged even seeded — it is OS entropy);
* wall-clock reads: ``time.time``/``time.time_ns``, ``datetime.now``,
  ``datetime.utcnow``, ``date.today``.  Monotonic *duration* clocks
  (``time.monotonic``, ``time.perf_counter``) are allowed: scheduler
  timeouts and benchmarks need them and they never enter row content.

The rule covers two sets of code with the same classifier:

* every call in the cell-computation modules (``_TARGETS``), module-locally;
* every function outside those modules that is reachable, over the project
  call graph, from a **cell-computation root** — registered
  mechanism/attack/metric/world factories (and the classes they construct),
  the engine's ``_evaluate_group`` and worker entry points.  A helper two
  modules away that calls ``np.random.default_rng()`` breaks bitwise row
  equality as surely as one inside ``repro/attacks/``; its finding names
  the root and call chain that put the draw on a cell path.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..astutil import dotted_chain, enclosing_def_line, import_aliases, iter_scoped_nodes
from ..callgraph import CallGraph, get_callgraph
from ..findings import Finding
from ..index import ModuleIndex
from .base import Rule

__all__ = ["DeterminismRule", "classify_entropy_call", "cell_roots"]

#: Modules whose code computes (or schedules/caches) engine cells; every
#: call in them is checked, reachable or not.
_TARGETS = (
    "repro/attacks/",
    "repro/baselines/",
    "repro/geo/",
    "repro/mixzones/",
    "repro/metrics/",
    "repro/datagen/",
    "repro/core/",
    "repro/experiments/engine.py",
    "repro/experiments/backends.py",
    "repro/experiments/cache.py",
    "repro/experiments/worker.py",
)

#: numpy.random attributes that draw from (or reseed) the global legacy RNG.
_NUMPY_GLOBAL_DRAWS = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "bytes", "uniform",
    "normal", "standard_normal", "poisson", "exponential", "binomial",
    "beta", "gamma", "laplace", "lognormal", "multinomial", "pareto",
    "triangular", "vonmises", "weibull", "zipf", "geometric",
}

_WALL_CLOCKS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "datetime", "now"),
    ("datetime", "datetime", "utcnow"),
    ("datetime", "datetime", "today"),
    ("datetime", "date", "today"),
}

_MODULE_HINT = (
    "thread a seeded numpy.random.Generator (or the seed itself) through the "
    "call chain; monotonic duration clocks (time.monotonic/perf_counter) are allowed"
)

_PATH_HINT = (
    "thread the spec seed (or a Generator seeded from it) through this call "
    "chain; cells must be pure functions of their spec strings and seed"
)


def cell_roots(graph: CallGraph) -> Dict[str, str]:
    """Cell-computation root keys mapped to a human-readable label."""
    roots: Dict[str, str] = {}
    for kind, bucket in sorted(graph.registrations.items()):
        for name, keys in sorted(bucket.items()):
            for key in keys:
                roots.setdefault(key, f"registered {kind} {name!r}")
    for key in graph.functions_named("_evaluate_group", "engine.py"):
        roots.setdefault(key, "engine cell evaluation (_evaluate_group)")
    for key in graph.functions_named("main", "worker.py"):
        roots.setdefault(key, "worker entry point (worker.main)")
    return roots


class DeterminismRule(Rule):
    id = "R1"
    name = "determinism"
    description = (
        "cell-computation modules, and every function reachable from a cell "
        "root (registered factories, _evaluate_group, worker entry points), "
        "must thread an explicit Generator/seed; no global RNG, unseeded "
        "default_rng(), stdlib random or wall-clock reads"
    )

    def check(self, index: ModuleIndex) -> Iterator[Finding]:
        for module in index.modules_matching(*_TARGETS):
            for node, stack, problem in _entropy_calls(module.tree, module.tree):
                yield Finding(
                    rule=self.id,
                    path=module.path,
                    line=node.lineno,
                    message=problem,
                    hint=_MODULE_HINT,
                    scope_line=enclosing_def_line(stack),
                )

        graph = get_callgraph(index)
        roots = cell_roots(graph)
        parents = graph.reachable(roots, expand_instances=True)
        for key in sorted(parents):
            info = graph.functions.get(key)
            # Target modules were checked whole above.
            if info is None or info.is_class or info.module.matches(*_TARGETS):
                continue
            calls = list(_entropy_calls(info.node, info.module.tree))
            if not calls:
                continue
            chain_label = _chain_label(graph, roots, parents, key)
            for node, stack, problem in calls:
                yield Finding(
                    rule=self.id,
                    path=info.module.path,
                    line=node.lineno,
                    message=f"{problem} on a cell-computation path ({chain_label})",
                    hint=_PATH_HINT,
                    scope_line=enclosing_def_line(stack) or getattr(info.node, "lineno", None),
                )


def _entropy_calls(
    scope: ast.AST, module_tree: ast.AST
) -> Iterator[Tuple[ast.Call, Tuple[ast.AST, ...], str]]:
    """Each call under ``scope`` that draws ambient entropy/time, with why."""
    aliases = import_aliases(module_tree)
    for node, stack in iter_scoped_nodes(scope):
        if not isinstance(node, ast.Call):
            continue
        chain = dotted_chain(node.func, aliases)
        if not chain:
            continue
        problem = classify_entropy_call(chain, node)
        if problem:
            yield node, stack, problem


def _chain_label(
    graph: CallGraph, roots: Dict[str, str], parents: Dict[str, Optional[str]], key: str
) -> str:
    chain: List[str] = graph.path_to(parents, key)
    root_label = roots.get(chain[0], graph.functions[chain[0]].qualname)
    hops = " -> ".join(graph.functions[k].qualname for k in chain)
    return f"reachable from {root_label} via {hops}"


def classify_entropy_call(chain, call: ast.Call) -> str:
    """Describe why a call draws ambient entropy/time, or "" when it is fine."""
    dotted = ".".join(chain)
    has_args = bool(call.args or call.keywords)
    if len(chain) >= 2 and chain[0] == "numpy" and chain[1] == "random":
        tail = chain[-1]
        if tail in _NUMPY_GLOBAL_DRAWS and len(chain) == 3:
            return f"{dotted}() draws from the global numpy RNG"
        if tail == "RandomState":
            return "np.random.RandomState is legacy; use np.random.default_rng(seed)"
        if tail == "default_rng" and not has_args:
            return "np.random.default_rng() without a seed is entropy-seeded"
        return ""
    if chain[0] == "random" and len(chain) == 2 and "numpy" not in dotted:
        tail = chain[1]
        if tail == "SystemRandom":
            return "random.SystemRandom draws OS entropy (never reproducible)"
        if tail == "Random":
            return "" if has_args else "random.Random() without a seed is entropy-seeded"
        if tail[:1].islower():
            return f"stdlib random.{tail}() uses the ambient global RNG"
        return ""
    if tuple(chain) in _WALL_CLOCKS or (
        len(chain) == 2 and tuple(chain) in {t[-2:] for t in _WALL_CLOCKS if len(t) == 3}
    ):
        return f"{dotted}() reads the wall clock"
    return ""
