"""Command-line entry point for the reprolint static analyzer.

Usage::

    python -m repro.analysis [paths ...] [--format text|json|sarif]
                             [--rules R1,R3] [--list-rules] [--output FILE]
                             [--update-cache-contract]

Every finding fails the run; the only way to accept one is an inline
``# repro: allow=Rn -- reason`` waiver.

Exit status: 0 when clean, 1 when findings were emitted, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .findings import format_findings
from .index import ModuleIndex
from .rules import ALL_RULES
from .sarif import findings_to_sarif

__all__ = ["main"]

_DEFAULT_PATHS = ("src", "tests", "benchmarks")


def _default_paths() -> List[str]:
    present = [p for p in _DEFAULT_PATHS if os.path.isdir(p)]
    return present if present else ["."]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: AST checks for the repro invariants (R1, R2, R3, R6, R9)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run, e.g. R1,R3 (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the formatted report to FILE instead of stdout",
    )
    parser.add_argument(
        "--update-cache-contract",
        action="store_true",
        help=(
            "regenerate cache_key_contract.json from the scanned source "
            "(run together with a CELL_KEY_FORMAT_VERSION bump), then lint"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.name}")
            print(f"    {rule.description}")
        return 0

    rule_ids = None
    if args.rules is not None:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
        known = {rule.id for rule in ALL_RULES}
        unknown = [r for r in rule_ids if r not in known]
        if unknown:
            parser.error(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )

    paths = list(args.paths) or _default_paths()
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    index = ModuleIndex.from_paths(paths)

    if args.update_cache_contract:
        from .rules.cache_key import write_contract

        written = write_contract(index)
        if written is None:
            print(
                "error: cannot regenerate the cache-key contract — "
                "repro/experiments/cache.py (with CELL_KEY_FORMAT_VERSION) "
                "is not under the scanned paths",
                file=sys.stderr,
            )
            return 2
        print(f"wrote {written}", file=sys.stderr)

    from . import run_analysis

    findings = run_analysis(paths, rules=rule_ids, index=index)

    if args.format == "sarif":
        output = findings_to_sarif(findings, ALL_RULES)
    else:
        output = format_findings(findings, args.format)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output if output.endswith("\n") or not output else output + "\n")
        print(f"wrote {args.output} ({len(findings)} finding(s))")
    elif output:
        print(output)

    if args.format == "text" and not args.output and not findings:
        print(f"reprolint: clean ({len(index.modules)} modules scanned)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
