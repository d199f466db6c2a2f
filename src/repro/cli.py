"""The ``repro`` command-line tool (``python -m repro`` works too).

First slice: cache inspection.  A long-lived
:class:`~repro.experiments.cache.SqliteCellCache` file accumulates every
finished cell of every sweep pointed at it — across processes, machines and
weeks — and until now the only way to see what it holds was raw sqlite.
``repro cache stats`` answers the operational questions: how many rows, how
big on disk, which experiments/worlds/mechanisms they belong to, and
whether any rows are stranded under a stale key-format version (a format
bump turns old rows into silent always-misses — visible here, invisible to
the engine)::

    repro cache stats --cache-file cells.sqlite
    repro cache stats --cache-file cells.sqlite --json

The breakdown is decoded from the serialized cell keys themselves (the
``v3:`` canonical text is valid JSON), read-only — the command never writes
or locks the file beyond a read transaction.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
from typing import Any, Dict, List, Optional, Tuple

#: Positions inside the engine's cell-key tuple (see
#: ``EvaluationEngine._cell_key``) used for the stats breakdown.
_KEY_INPUT = 0
_KEY_MODE = 1
_KEY_WORLD = 2
_KEY_MECHANISM = 5


def _decode_key(key_text: str) -> Optional[Tuple[str, List[Any]]]:
    """``(version, key_components)`` of one stored key, or None if foreign.

    The canonical serialization (``repro.experiments.cache._canonical``) is
    valid JSON by construction, so the components come back with one
    ``json.loads`` — but a cache file is long-lived and may hold rows from
    future or past formats, so anything unparseable is reported as such
    rather than crashing the inspection.
    """
    version, sep, body = key_text.partition(":")
    if not sep or not version.startswith("v"):
        return None
    try:
        components = json.loads(body)
    except ValueError:
        return None
    if not isinstance(components, list):
        return None
    return version, components


def cache_stats(cache_file: str) -> Dict[str, Any]:
    """The stats document ``repro cache stats`` renders (also its --json)."""
    size_bytes = os.path.getsize(cache_file)
    wal_path = cache_file + "-wal"
    wal_bytes = os.path.getsize(wal_path) if os.path.exists(wal_path) else 0

    connection = sqlite3.connect(f"file:{cache_file}?mode=ro", uri=True)
    try:
        rows = connection.execute("SELECT key, LENGTH(row) FROM cells").fetchall()
    finally:
        connection.close()

    by_version: Dict[str, int] = {}
    by_cell: Dict[Tuple[str, str, str, str], int] = {}
    unparseable = 0
    payload_bytes = 0
    for key_text, row_bytes in rows:
        payload_bytes += int(row_bytes)
        decoded = _decode_key(key_text)
        if decoded is None:
            unparseable += 1
            continue
        version, components = decoded
        by_version[version] = by_version.get(version, 0) + 1
        if len(components) <= _KEY_MECHANISM:
            unparseable += 1
            continue
        group = (
            str(components[_KEY_MODE]),
            str(components[_KEY_WORLD]),
            str(components[_KEY_MECHANISM]),
            str(components[_KEY_INPUT]),
        )
        by_cell[group] = by_cell.get(group, 0) + 1

    return {
        "cache_file": os.path.abspath(cache_file),
        "file_bytes": size_bytes,
        "wal_bytes": wal_bytes,
        "total_rows": len(rows),
        "payload_bytes": payload_bytes,
        "rows_by_key_version": dict(sorted(by_version.items())),
        "unparseable_keys": unparseable,
        "rows_by_experiment": [
            {
                "mode": mode,
                "world": world,
                "mechanism": mechanism,
                "input": input_spec,
                "rows": count,
            }
            for (mode, world, mechanism, input_spec), count in sorted(by_cell.items())
        ],
    }


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(n)} B"  # unreachable; keeps the type checker honest


def _print_stats(stats: Dict[str, Any]) -> None:
    print(f"cache file : {stats['cache_file']}")
    print(
        f"on disk    : {_human_bytes(stats['file_bytes'])}"
        + (f" (+ {_human_bytes(stats['wal_bytes'])} WAL)" if stats["wal_bytes"] else "")
    )
    print(
        f"rows       : {stats['total_rows']} "
        f"({_human_bytes(stats['payload_bytes'])} of row payloads)"
    )
    versions = ", ".join(
        f"{version}: {count}" for version, count in stats["rows_by_key_version"].items()
    )
    print(f"key format : {versions or 'none'}")
    if stats["unparseable_keys"]:
        print(
            f"             {stats['unparseable_keys']} row(s) under unparseable "
            "keys (written by a different format version?)"
        )
    if stats["rows_by_experiment"]:
        print("rows by (mode, world, mechanism, input):")
        for entry in stats["rows_by_experiment"]:
            print(
                f"  {entry['rows']:6d}  {entry['mode']}  {entry['world']}  "
                f"{entry['mechanism']}  {entry['input']}"
            )


def _run_cache_stats(args: argparse.Namespace) -> int:
    cache_file = args.cache_file
    if not os.path.exists(cache_file):
        print(f"repro cache stats: no such cache file: {cache_file}", file=sys.stderr)
        return 1
    try:
        stats = cache_stats(cache_file)
    except sqlite3.DatabaseError as error:
        print(
            f"repro cache stats: {cache_file} is not a readable cell cache: {error}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        _print_stats(stats)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cache = subparsers.add_parser("cache", help="inspect persistent cell caches")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser(
        "stats", help="rows, sizes and per-experiment breakdown of one cache file"
    )
    stats.add_argument("--cache-file", required=True, help="the SqliteCellCache file")
    stats.add_argument(
        "--json", action="store_true", help="machine-readable output instead of a table"
    )
    stats.set_defaults(func=_run_cache_stats)

    args = parser.parse_args(argv)
    # Any: set_defaults-attached handlers are untyped in argparse's stubs.
    handler: Any = args.func
    return int(handler(args))


if __name__ == "__main__":
    sys.exit(main())
