"""The shared parsed-module index every rule pass runs over.

Each file is read and parsed exactly once; rules are visitors over the
resulting :class:`ParsedModule` records.  The index also owns the two pieces
of per-line metadata shared by all rules:

* **waivers** — ``# repro: allow=R3`` (or ``allow=R1,R3``) comments collected
  per physical line; a finding is suppressed when its line, or the ``def``
  line of its enclosing function, carries a waiver for its rule;
* **logical paths** — every path is normalized to POSIX form so rules can
  scope themselves by path patterns (``repro/attacks/``,
  ``repro/experiments/cache.py``) that work identically for the real tree
  and for fixture trees replicating it.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Set

from .findings import Finding

__all__ = ["ParsedModule", "ModuleIndex"]

#: Directories never descended into while scanning.  ``*_fixtures`` keeps the
#: linter's own violating fixture snippets (under ``tests/``) out of a whole
#: -repo run; fixture tests point at them explicitly instead.
_SKIP_DIR_PATTERNS = re.compile(
    r"^(\.|__pycache__$|build$|dist$|node_modules$)|_fixtures$"
)

_WAIVER_RE = re.compile(r"#\s*repro:\s*allow=([A-Za-z0-9_,]+)")


@dataclass
class ParsedModule:
    """One parsed source file plus its per-line waiver table."""

    path: str  #: the path as discovered (used in findings)
    logical: str  #: POSIX-normalized path used by rule scope predicates
    source: str
    tree: ast.AST
    waivers: Dict[int, Set[str]] = field(default_factory=dict)

    def matches(self, *patterns: str) -> bool:
        """Whether any pattern occurs in (or ends) the logical path."""
        return any(
            self.logical.endswith(p) or (p.endswith("/") and p in self.logical)
            for p in patterns
        )


def _collect_waivers(source: str) -> Dict[int, Set[str]]:
    waivers: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _WAIVER_RE.search(line)
        if match:
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            waivers[lineno] = rules
    return waivers


class ModuleIndex:
    """All parsed modules of one analysis run."""

    def __init__(self) -> None:
        self.modules: List[ParsedModule] = []
        self.parse_failures: List[Finding] = []
        self._by_logical_suffix_cache: Dict[str, List[ParsedModule]] = {}

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_paths(cls, paths: Sequence[str]) -> "ModuleIndex":
        index = cls()
        for path in paths:
            if os.path.isdir(path):
                for file_path in sorted(cls._walk(path)):
                    index._add_file(file_path)
            elif path.endswith(".py"):
                index._add_file(path)
        return index

    @staticmethod
    def _walk(root: str) -> Iterator[str]:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not _SKIP_DIR_PATTERNS.search(d)]
            for name in filenames:
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)

    def _add_file(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            self.parse_failures.append(
                Finding(
                    rule="parse",
                    path=path,
                    line=line,
                    message=f"could not parse module: {exc}",
                    hint="reprolint needs every target file to be valid Python",
                )
            )
            return
        self.modules.append(
            ParsedModule(
                path=path,
                logical=path.replace(os.sep, "/"),
                source=source,
                tree=tree,
                waivers=_collect_waivers(source),
            )
        )

    # -- lookups --------------------------------------------------------------------

    def modules_matching(self, *patterns: str) -> List[ParsedModule]:
        """Modules whose logical path matches any pattern (see ParsedModule.matches)."""
        return [m for m in self.modules if m.matches(*patterns)]

    def find_one(self, suffix: str) -> "ParsedModule | None":
        """The unique module whose logical path ends with ``suffix`` (or None).

        When several match (e.g. the real tree plus a fixture tree scanned in
        one run), the shortest logical path wins — rules that pin singleton
        contract files should be run over one tree at a time.
        """
        matches = [m for m in self.modules if m.logical.endswith(suffix)]
        if not matches:
            return None
        return min(matches, key=lambda m: len(m.logical))

    # -- waivers --------------------------------------------------------------------

    def is_waived(self, finding: Finding) -> bool:
        module = next((m for m in self.modules if m.path == finding.path), None)
        if module is None:
            return False
        lines = [finding.line]
        if finding.scope_line is not None:
            lines.append(finding.scope_line)
        return any(finding.rule in module.waivers.get(line, ()) for line in lines)
