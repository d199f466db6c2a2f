"""reprolint: AST-based static enforcement of the engine's contracts.

The evaluation engine rests on invariants that runtime tests can only probe
after the fact — bitwise-identical rows across scheduler backends, stable
versioned cell-cache keys, vectorized attacks pinned to scalar
``*_reference`` oracles.  This package checks them *statically*, as a
whole-program pass over the repository's parsed ASTs, so a violation is a
lint error at review time instead of a silent drift discovered in production.

Five project-specific rule families run over a shared
:class:`~repro.analysis.index.ModuleIndex`:

* **R1 determinism** — no unseeded RNG or wall-clock reads in
  cell-computation modules (``attacks/``, ``baselines/``, ``geo/``,
  ``mixzones/``, ``metrics/``, ``datagen/``, ``core/`` and the engine
  modules), nor in any function *reachable* (over the project
  :mod:`~repro.analysis.callgraph`) from a cell-computation root —
  registered factories, ``_evaluate_group``, worker entry points — whatever
  module it lives in; randomness must thread an explicit
  ``numpy.random.Generator`` or seed.
* **R2 cache-key drift** — the ``ExperimentSpec`` field set and the
  cell-key serialization code must match the committed
  ``cache_key_contract.json`` for the current ``v<N>:`` key version, so
  adding a spec field or editing the serializer without bumping the version
  is a lint error, not a silent always-miss.
* **R3 columnar discipline** — per-point Python loops and scalar distance
  calls in hot-path modules are findings unless the enclosing function is
  (reachable only from) a ``*_reference`` oracle or carries a
  waiver; the rule doubles as the inventory of scalar residuals.
* **R6 streaming incrementality** — streaming ``update_many()`` paths must
  stay O(window), never rescanning unbounded history state.
* **R9 handle lifecycle** — sqlite connections, sockets, file handles and
  ``WorldStoreWriter``s must be closed/finalized on all paths (``with`` or
  a ``finally:``), with escape analysis for ownership transfer; findings on
  worker-reachable paths carry the call chain.

The ids R4, R5, R7 and R8 are retired, not reused.  R7 (seed flow) is part
of R1.  Runtime guards hold the other three contracts: ``Registry.register``
refuses duplicate and unspellable names and an unknown spec raises
``RegistryError`` (R4); every process backend pickles its payloads, so a
lambda or nested function fails by name (R5); every ``ColumnarTraces``
column is a read-only view (R8).

Run it as a CLI (non-zero exit on any finding)::

    python -m repro.analysis src tests benchmarks
    python -m repro.analysis --format json src
    python -m repro.analysis --format sarif --output reprolint.sarif src
    python -m repro.analysis --list-rules

The only way to accept a finding is an inline waiver, a comment on the
offending line (or on the ``def`` line of its enclosing function)::

    total = sum(x for x in values)  # repro: allow=R3 -- justification

The linter depends only on the standard library (``ast``/``argparse``/
``difflib``) — it never imports the code under analysis, so it runs even
when that code would not.
"""

from .findings import Finding, format_findings
from .index import ModuleIndex
from .rules import ALL_RULES, get_rules

__all__ = ["Finding", "format_findings", "ModuleIndex", "ALL_RULES", "get_rules", "run_analysis"]


def run_analysis(paths, rules=None, index=None):
    """Parse ``paths`` and run ``rules`` (default: all) over them.

    Pass ``index`` to reuse an already-built :class:`ModuleIndex` for the
    same paths.  Returns the list of unsuppressed findings, sorted by
    (path, line, rule).
    """
    if index is None:
        index = ModuleIndex.from_paths(paths)
    findings = list(index.parse_failures)
    for rule in get_rules(rules):
        findings.extend(rule.check(index))
    kept = [f for f in findings if not index.is_waived(f)]
    return sorted(kept, key=lambda f: (f.path, f.line, f.rule))
