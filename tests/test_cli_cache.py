"""The ``repro cache stats`` CLI: real engine-written files, failure paths."""

from __future__ import annotations

import json
import pickle
import sqlite3
import subprocess
import sys
from contextlib import closing

import pytest

from repro.cli import main
from repro.experiments.cache import SqliteCellCache
from repro.experiments.engine import EvaluationEngine, ExperimentSpec
from repro.experiments.workloads import standard_world


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    """A cache file populated by a real engine run (12 rows, 2 mechanisms)."""
    path = str(tmp_path_factory.mktemp("cli-cache") / "cells.sqlite")
    world = standard_world("tiny", seed=5)
    spec = ExperimentSpec(
        name="cli-cache-test",
        mechanisms=["identity", "downsampling:factor=5"],
        metrics=["point-retention"],
        worlds=["world"],
        seeds=[0, 1],
    )
    engine = EvaluationEngine(cache=f"sqlite:path={path}")
    rows = engine.run(spec, worlds={"world": world})
    assert rows, "the fixture engine run must produce rows"
    return path, len(rows)


class TestCacheStats:
    def test_table_output(self, cache_file, capsys):
        path, n_rows = cache_file
        assert main(["cache", "stats", "--cache-file", path]) == 0
        out = capsys.readouterr().out
        assert f"rows       : {n_rows}" in out
        assert "v3: " in out  # current key format version
        assert "identity" in out
        assert "downsampling:factor=5" in out
        assert "batch" in out  # the mode column

    def test_json_output_parses_and_balances(self, cache_file, capsys):
        path, n_rows = cache_file
        assert main(["cache", "stats", "--cache-file", path, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["total_rows"] == n_rows
        assert stats["rows_by_key_version"] == {"v3": n_rows}
        assert stats["unparseable_keys"] == 0
        assert stats["payload_bytes"] > 0
        assert sum(e["rows"] for e in stats["rows_by_experiment"]) == n_rows
        mechanisms = {e["mechanism"] for e in stats["rows_by_experiment"]}
        assert mechanisms == {"identity", "downsampling:factor=5"}

    def test_missing_file_is_clean_nonzero(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-file", str(tmp_path / "nope.sqlite")]) == 1
        assert "no such cache file" in capsys.readouterr().err

    def test_not_a_database_is_clean_nonzero(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.sqlite"
        bogus.write_bytes(b"definitely not sqlite")
        assert main(["cache", "stats", "--cache-file", str(bogus)]) == 1
        assert "not a readable cell cache" in capsys.readouterr().err

    def test_foreign_keys_reported_not_crashed(self, tmp_path, capsys):
        """Rows under an unknown key format must show up as unparseable."""
        path = str(tmp_path / "mixed.sqlite")
        store = SqliteCellCache(path)
        assert len(store) == 0  # creates the file and its table
        store.close()
        with closing(sqlite3.connect(path)) as db:
            for key_text, row in [
                ('v3:["full","batch","w",[1],0,"m","i","",null,[]]', {"a": 1}),
                ("v99:not json at all", {"a": 2}),
            ]:
                db.execute(
                    "INSERT INTO cells (key, row) VALUES (?, ?)", (key_text, pickle.dumps(row))
                )
            db.commit()
        assert main(["cache", "stats", "--cache-file", path, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["total_rows"] == 2
        assert stats["unparseable_keys"] == 1
        assert stats["rows_by_key_version"] == {"v3": 1}

    def test_python_dash_m_entry_point(self, cache_file):
        """``python -m repro`` must reach the same CLI (console-script twin)."""
        path, _ = cache_file
        result = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "stats", "--cache-file", path],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "rows       :" in result.stdout
