"""Cell-cache stores: in-memory parity, sqlite persistence, concurrent writers."""

from __future__ import annotations

import pickle
import sqlite3
import subprocess
import sys
from contextlib import closing

import numpy as np
import pytest

from repro.experiments.cache import (
    CellCacheError,
    InMemoryCellCache,
    NullCellCache,
    SqliteCellCache,
    make_cache_store,
    serialize_cell_key,
)
from repro.experiments.engine import EvaluationEngine, ExperimentSpec
from repro.experiments.workloads import standard_world

KEY = ("full", "world", (2, 100, 3600.0, 12345), 0, "raw", "identity", "", None, ())


@pytest.fixture(scope="module")
def world():
    return standard_world("tiny", seed=5)


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="cache-test",
        mechanisms=["identity", "downsampling:factor=10"],
        metrics=["point-retention"],
        worlds=["world"],
    )


class TestStoreBasics:
    @pytest.mark.parametrize("store_factory", [InMemoryCellCache, lambda: SqliteCellCache("x")])
    def test_get_returns_fresh_dicts(self, store_factory, tmp_path):
        store = store_factory()
        if isinstance(store, SqliteCellCache):
            store = SqliteCellCache(tmp_path / "cells.sqlite")
        row = {"mechanism": "raw", "value": 1.0}
        store.put(KEY, row)
        row["value"] = 99.0  # the caller's mutation must not reach the store
        first = store.get(KEY)
        assert first == {"mechanism": "raw", "value": 1.0}
        first["value"] = -1.0  # nor must mutating a returned row
        assert store.get(KEY) == {"mechanism": "raw", "value": 1.0}
        assert len(store) == 1
        store.clear()
        assert store.get(KEY) is None and len(store) == 0

    def test_null_store(self):
        store = NullCellCache()
        store.put(KEY, {"a": 1})
        assert store.get(KEY) is None and len(store) == 0 and not store.enabled

    def test_make_cache_store(self, tmp_path):
        assert isinstance(make_cache_store(True), InMemoryCellCache)
        assert isinstance(make_cache_store(None), InMemoryCellCache)
        assert isinstance(make_cache_store(False), NullCellCache)
        assert isinstance(make_cache_store("memory"), InMemoryCellCache)
        assert isinstance(make_cache_store("off"), NullCellCache)
        sqlite_store = make_cache_store(f"sqlite:path={tmp_path / 'c.sqlite'}")
        assert isinstance(sqlite_store, SqliteCellCache)
        store = InMemoryCellCache()
        assert make_cache_store(store) is store
        with pytest.raises(ValueError, match="sqlite cell cache needs a file"):
            make_cache_store("sqlite")
        with pytest.raises(ValueError, match="unknown cell cache"):
            make_cache_store("redis:host=nope")
        with pytest.raises(TypeError):
            make_cache_store(3.14)

    def test_serialized_accessors_alias_tuple_accessors(self, tmp_path):
        """put/get and put_serialized/get_serialized address the same rows:
        the fleet path serializes keys on the coordinator, workers write by
        text, and both sides must agree byte for byte."""
        store = SqliteCellCache(tmp_path / "cells.sqlite")
        key_text = serialize_cell_key(KEY)
        store.put_serialized(key_text, {"value": 1.0})
        assert store.get(KEY) == {"value": 1.0}
        store.put(KEY, {"value": 2.0})
        assert store.get_serialized(key_text) == {"value": 2.0}
        assert store.get_serialized("v2:[\"no-such-key\"]") is None
        store.close()

    def test_sqlite_roundtrips_numpy_and_nan_bitwise(self, tmp_path):
        store = SqliteCellCache(tmp_path / "cells.sqlite")
        row = {
            "f64": np.float64(0.1) + np.float64(0.2),
            "i64": np.int64(7),
            "nan": float("nan"),
            "inf": float("inf"),
        }
        store.put(KEY, row)
        back = store.get(KEY)
        assert pickle.dumps(back) == pickle.dumps(row)
        assert isinstance(back["f64"], np.float64)
        assert np.isnan(back["nan"]) and back["inf"] == float("inf")


class TestDamagedRows:
    """A stored row that does not read back as a row raises a named error
    carrying the cache file and the key, never a bare unpickling error or a
    non-dict "row"."""

    def _damage(self, path, blob: bytes) -> str:
        store = SqliteCellCache(path)
        key_text = serialize_cell_key(KEY)
        store.put_serialized(key_text, {"value": 1.0})
        store.close()
        with closing(sqlite3.connect(path)) as db:
            db.execute("UPDATE cells SET row = ? WHERE key = ?", (blob, key_text))
            db.commit()
        return key_text

    @pytest.mark.parametrize(
        "blob",
        [pickle.dumps([1, 2]), pickle.dumps({"value": 1.0})[:-3]],
        ids=["not-a-dict", "truncated"],
    )
    def test_damaged_row_names_file_and_key(self, tmp_path, blob):
        path = tmp_path / "cells.sqlite"
        key_text = self._damage(path, blob)
        store = SqliteCellCache(path)
        for read in (lambda: store.get(KEY), lambda: store.get_serialized(key_text)):
            with pytest.raises(CellCacheError) as excinfo:
                read()
            assert str(path) in str(excinfo.value)
            assert key_text in str(excinfo.value)
        store.close()


class TestEngineIntegration:
    def test_engine_accepts_cache_spec_strings(self, world, tmp_path):
        path = tmp_path / "cells.sqlite"
        engine = EvaluationEngine(cache=f"sqlite:path={path}")
        first = engine.run(_spec(), worlds={"world": world})
        assert engine.cache_hits == 0 and engine.cache_misses == 2
        second = engine.run(_spec(), worlds={"world": world})
        assert engine.cache_hits == 2
        assert second == first

    def test_sqlite_cache_shared_across_engine_instances(self, world, tmp_path):
        path = tmp_path / "cells.sqlite"
        cold = EvaluationEngine(cache=f"sqlite:path={path}")
        first = cold.run(_spec(), worlds={"world": world})
        warm = EvaluationEngine(cache=f"sqlite:path={path}")
        second = warm.run(_spec(), worlds={"world": world})
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert second == first

    def test_sqlite_cache_warm_across_processes(self, tmp_path):
        """Cold in a child process, warm here: 100% hits from the file alone."""
        path = tmp_path / "cells.sqlite"
        script = (
            "from repro.experiments.engine import EvaluationEngine, ExperimentSpec\n"
            "spec = ExperimentSpec(name='cache-test',\n"
            "    mechanisms=['identity', 'downsampling:factor=10'],\n"
            "    metrics=['point-retention'], worlds=['standard:scale=tiny,seed=5'])\n"
            f"engine = EvaluationEngine(cache='sqlite:path={path}')\n"
            "engine.run(spec)\n"
            "assert engine.cache_hits == 0 and engine.cache_misses == 2\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)
        spec = ExperimentSpec(
            name="cache-test",
            mechanisms=["identity", "downsampling:factor=10"],
            metrics=["point-retention"],
            worlds=["standard:scale=tiny,seed=5"],
        )
        engine = EvaluationEngine(cache=f"sqlite:path={path}")
        rows = engine.run(spec)
        assert engine.cache_hits == 2 and engine.cache_misses == 0
        assert len(rows) == 2

    def test_concurrent_writers_do_not_corrupt(self, tmp_path):
        """Two processes writing the same file at once: all rows land intact."""
        path = tmp_path / "cells.sqlite"
        script = (
            "import sys\n"
            "from repro.experiments.cache import SqliteCellCache\n"
            f"store = SqliteCellCache({str(path)!r})\n"
            "shard = int(sys.argv[1])\n"
            "for i in range(40):\n"
            "    store.put(('k', shard, i), {'shard': shard, 'i': i, 'x': i * 0.5})\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(shard)])
            for shard in (0, 1)
        ]
        for proc in procs:
            assert proc.wait() == 0
        store = SqliteCellCache(path)
        assert len(store) == 80
        for shard in (0, 1):
            for i in range(40):
                assert store.get(("k", shard, i)) == {"shard": shard, "i": i, "x": i * 0.5}

    def test_clear_cache_clears_persistent_store(self, world, tmp_path):
        engine = EvaluationEngine(cache=f"sqlite:path={tmp_path / 'c.sqlite'}")
        engine.run(_spec(), worlds={"world": world})
        assert len(engine.cache_store) == 2
        engine.clear_cache()
        assert len(engine.cache_store) == 0 and engine.cache_hits == 0
        engine.run(_spec(), worlds={"world": world})
        assert engine.cache_hits == 0 and engine.cache_misses == 2


def test_serialize_rejects_uncacheable_values():
    with pytest.raises(TypeError, match="cell keys may only contain"):
        serialize_cell_key((object(),))
