"""Cell-cache stores: where the evaluation engine keeps finished rows.

The :class:`~repro.experiments.engine.EvaluationEngine` caches each finished
cell under a key built from the cell's spec strings and the world's content
fingerprint (see ``EvaluationEngine._cell_key``).  This module abstracts
*where* those rows live:

* :class:`InMemoryCellCache` — a per-engine dict, the historical behaviour;
  rows survive across :meth:`run` calls of one engine instance.
* :class:`SqliteCellCache` — a single-file persistent store, safe under
  concurrent writers, so engine runs in different *processes* (a cold CI step
  and a warm one, a sweep resumed tomorrow, parallel experiment shards
  pointed at one file) reuse each other's finished cells.
* :class:`NullCellCache` — caching disabled (``EvaluationEngine(cache=False)``).

Keys are plain tuples of strings, ints, floats and nested tuples.  For the
persistent store they are serialized by :func:`serialize_cell_key` into a
canonical text form that is **deterministic across processes and interpreter
runs** — a silently changed serialization would turn a warm cache file into a
silent always-miss, which is why the format is versioned (``v1:`` prefix) and
pinned by regression tests.

Stores are selectable by spec string wherever the engine is constructed::

    EvaluationEngine(cache="sqlite:path=/tmp/cells.sqlite")
    EvaluationEngine(cache="memory")
    EvaluationEngine(cache=False)
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "CellCacheError",
    "CellCacheStore",
    "NullCellCache",
    "InMemoryCellCache",
    "SqliteCellCache",
    "serialize_cell_key",
    "make_cache_store",
    "CELL_KEY_FORMAT_VERSION",
]


#: Version prefix of the serialized key format.  Bump when the canonical
#: encoding (not the key *contents*, which the engine owns) changes shape, so
#: an old cache file misses cleanly instead of aliasing.  v2: the engine's
#: key tuple gained the experiment ``mode`` (batch vs stream) component.
#: v3: key *contents* are unchanged; the engine's key code lost its
#: live-object guards, and the R2 contract pins that code to this version.
CELL_KEY_FORMAT_VERSION = 3


def _canonical(value: Any) -> str:
    """A deterministic text encoding for cell-key components.

    Strings are JSON-escaped (so commas and brackets inside spec strings can
    never collide with the structure), floats use ``repr`` (shortest
    round-tripping form, stable across CPython versions >= 3.1), and numpy
    scalars are normalized to their Python equivalents so a key built from a
    ``np.int64`` point count equals one built from a plain ``int``.
    """
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, int):
        # int() also strips numpy integer subclasses to a canonical form.
        return str(int(value))
    if isinstance(value, float):
        # float() first: np.float64 subclasses float but reprs differently.
        return repr(float(value))
    # Numpy scalars (np.int64 counts, np.float64 time spans) without a hard
    # numpy dependency in the store itself.
    item = getattr(value, "item", None)
    if callable(item):
        return _canonical(item())
    raise TypeError(
        f"cell keys may only contain str/int/float/bool/None/tuples, "
        f"got {type(value).__name__}: {value!r}"
    )


def serialize_cell_key(key: Tuple) -> str:
    """The canonical, process-stable text form of an engine cell key."""
    return f"v{CELL_KEY_FORMAT_VERSION}:" + _canonical(key)


class CellCacheError(RuntimeError):
    """A stored row that cannot be read back; names the cache file and key."""


class CellCacheStore:
    """Where finished cell rows live; keyed by the engine's cell-key tuples.

    ``get`` returns a *fresh* row dict (or ``None`` on a miss) and ``put``
    must not keep a live reference to the caller's dict — the engine hands
    rows out to callers who may mutate them.
    """

    #: Whether the engine should compute cache keys at all.
    enabled: bool = True

    def get(self, key: Tuple) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def put(self, key: Tuple, row: Dict[str, Any]) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class NullCellCache(CellCacheStore):
    """Caching disabled: every lookup misses, nothing is stored."""

    enabled = False

    def get(self, key: Tuple) -> Optional[Dict[str, Any]]:
        return None

    def put(self, key: Tuple, row: Dict[str, Any]) -> None:
        pass

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


class InMemoryCellCache(CellCacheStore):
    """The historical per-engine dict store (rows live for the process)."""

    def __init__(self) -> None:
        self._rows: Dict[str, Dict[str, Any]] = {}

    def get(self, key: Tuple) -> Optional[Dict[str, Any]]:
        row = self._rows.get(serialize_cell_key(key))
        return dict(row) if row is not None else None

    def put(self, key: Tuple, row: Dict[str, Any]) -> None:
        self._rows[serialize_cell_key(key)] = dict(row)

    def clear(self) -> None:
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)


class SqliteCellCache(CellCacheStore):
    """A persistent single-file store shared across processes and CI steps.

    Keys are stored as their :func:`serialize_cell_key` text; rows are
    pickled, which round-trips numpy scalars and non-finite floats *bitwise*
    (JSON would not).  Writes are single-statement ``INSERT OR REPLACE``
    transactions under WAL journaling with a busy timeout, so concurrent
    engine processes appending to one file never corrupt it — at worst a
    cell computed twice is written twice with identical content.

    Connections are opened lazily per (pid, thread) so a store created
    before a ``fork`` (e.g. held by an engine whose backend forks workers)
    never shares a sqlite handle across processes.
    """

    def __init__(self, path: str, timeout_s: float = 30.0) -> None:
        self.path = os.fspath(path)
        self.timeout_s = float(timeout_s)
        self._connections: Dict[Tuple[int, int], sqlite3.Connection] = {}
        self._lock = threading.Lock()

    def _connection(self) -> sqlite3.Connection:
        key = (os.getpid(), threading.get_ident())
        connection = self._connections.get(key)
        if connection is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            connection = sqlite3.connect(self.path, timeout=self.timeout_s)
            try:
                connection.execute("PRAGMA journal_mode=WAL")
            except sqlite3.OperationalError:
                pass  # e.g. filesystems without WAL support; rollback journal is fine
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS cells ("
                "key TEXT PRIMARY KEY, row BLOB NOT NULL)"
            )
            connection.commit()
            with self._lock:
                # Drop handles that belong to other processes/threads (after
                # a fork they must never be used from here).
                self._connections = {
                    k: c for k, c in self._connections.items() if k[0] == key[0]
                }
                self._connections[key] = connection
        return connection

    def get(self, key: Tuple) -> Optional[Dict[str, Any]]:
        return self.get_serialized(serialize_cell_key(key))

    def put(self, key: Tuple, row: Dict[str, Any]) -> None:
        self.put_serialized(serialize_cell_key(key), row)

    def get_serialized(self, key_text: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get`, keyed by an already-serialized key text.

        The fleet path serializes keys once on the coordinator and ships the
        text to workers; both sides then address the same rows without ever
        re-deriving the tuple.
        """
        cursor = self._connection().execute(
            "SELECT row FROM cells WHERE key = ?", (key_text,)
        )
        hit = cursor.fetchone()
        if hit is None:
            return None
        try:
            row = pickle.loads(hit[0])
        except Exception as exc:  # any damaged blob: truncated, edited, foreign
            raise CellCacheError(
                f"{self.path}: the row under key {key_text} does not unpickle: {exc!r}"
            ) from exc
        if not isinstance(row, dict):
            raise CellCacheError(
                f"{self.path}: the row under key {key_text} is a "
                f"{type(row).__name__}, not a dict"
            )
        return row

    def put_serialized(self, key_text: str, row: Dict[str, Any]) -> None:
        """Like :meth:`put`, keyed by an already-serialized key text."""
        connection = self._connection()
        connection.execute(
            "INSERT OR REPLACE INTO cells (key, row) VALUES (?, ?)",
            (
                key_text,
                pickle.dumps(dict(row), protocol=pickle.HIGHEST_PROTOCOL),
            ),
        )
        connection.commit()

    def clear(self) -> None:
        connection = self._connection()
        connection.execute("DELETE FROM cells")
        connection.commit()

    def __len__(self) -> int:
        cursor = self._connection().execute("SELECT COUNT(*) FROM cells")
        return int(cursor.fetchone()[0])

    def close(self) -> None:
        """Close this process's connections (the file remains valid)."""
        key_pid = os.getpid()
        with self._lock:
            for key, connection in list(self._connections.items()):
                if key[0] == key_pid:
                    connection.close()
                    del self._connections[key]

    def __repr__(self) -> str:
        return f"SqliteCellCache(path={self.path!r})"


def make_cache_store(cache: Any) -> CellCacheStore:
    """Resolve the engine's ``cache`` argument to a store instance.

    Accepts a :class:`CellCacheStore`, a bool (the legacy on/off switch), or
    a spec string: ``"memory"``, ``"off"``/``"none"``, or
    ``"sqlite:path=cells.sqlite"``.
    """
    if isinstance(cache, CellCacheStore):
        return cache
    if cache is True or cache is None:
        return InMemoryCellCache()
    if cache is False:
        return NullCellCache()
    if isinstance(cache, str):
        from ..api.registry import RegistryError, parse_spec

        name, params = parse_spec(cache)
        name = name.lower()
        if name in ("memory", "in-memory", "dict"):
            return InMemoryCellCache()
        if name in ("off", "none", "null", "disabled"):
            return NullCellCache()
        if name == "sqlite":
            path = params.get("path", "")
            if not path:
                raise RegistryError(
                    "the sqlite cell cache needs a file: 'sqlite:path=cells.sqlite'"
                )
            return SqliteCellCache(str(path), timeout_s=params.get("timeout_s", 30.0))
        raise RegistryError(
            f"unknown cell cache {cache!r}; choose 'memory', 'off' or "
            "'sqlite:path=FILE'"
        )
    raise TypeError(
        f"cache must be a CellCacheStore, bool or spec string, got {type(cache).__name__}"
    )
