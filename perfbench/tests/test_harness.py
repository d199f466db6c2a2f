"""Tests of the benchmark's own harness (not of the library it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from repro.api.registry import MECHANISMS, register_mechanism
from repro.experiments import ExperimentSpec
from spans import Tracer, instrument
from workloads import WORKLOADS, Workload, build

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = "standard:scale=tiny,seed=3"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return env


def _tiny_workload(mechanisms, workers=1) -> Workload:
    spec = ExperimentSpec(
        name="tiny",
        mechanisms=mechanisms,
        metrics=["point-retention", "spatial-distortion:match_by_user=true"],
        worlds=[TINY],
    )
    return Workload("tiny", "test", (TINY,), (spec,), workers=workers)


def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)
    declared_e2e = {m["name"]: m["unit"] for m in config["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert declared_e2e == harness.END_TO_END
    assert declared_layers == harness.PER_LAYER
    for name in [*declared_e2e, *declared_layers, *(w["name"] for w in config["workloads"])]:
        assert NAME.match(name), name
    assert {w["name"]: w["why"] for w in config["workloads"]} == {
        name: build(name, 42).why for name in WORKLOADS
    }


def test_pinned_stream_digests_equal_batch_e4_prime():
    pinned = harness.load_pinned()
    batch = build("privacy-batch", 42)
    e1_cells = len(batch.specs[0].cells())
    e4_cells = len(batch.specs[1].cells())
    assert pinned["privacy-stream"] == pinned["privacy-batch"][e1_cells : e1_cells + e4_cells]


def _pass(name, rows):
    cells = [(r["world"], r["seed"], r["mechanism"], r["attack"]) for r in rows]
    return harness.Pass(name, cells, rows, {}, 1.0)


def _rows():
    return [
        {"world": "w", "seed": 0, "mechanism": m, "attack": None, "mean_m": 12.5 + i,
         "point_retention": 0.25 * i}
        for i, m in enumerate(["raw", "geo", "promesse"])
    ]


def test_perturbed_row_trips_the_pinned_digest():
    pinned = _pass("pin", _rows()).digests(harness.PINNED_DIGITS)
    rows = _rows()
    rows[1]["mean_m"] *= 1 + 1e-6
    ledger = harness.Ledger()
    harness.check_passes(ledger, [_pass("sweep0", rows)], pinned)
    assert ledger.attempted == 3
    assert list(ledger.failures) == [("sweep0", 1)]
    assert "pinned" in ledger.failures[("sweep0", 1)]


def test_last_bit_change_passes_the_pin_but_not_the_run_identity():
    pinned = _pass("pin", _rows()).digests(harness.PINNED_DIGITS)
    rows = _rows()
    rows[2]["mean_m"] = math.nextafter(rows[2]["mean_m"], math.inf)
    ledger = harness.Ledger()
    harness.check_passes(ledger, [_pass("sweep0", _rows()), _pass("sweep1", rows)], pinned)
    assert list(ledger.failures) == [("sweep1", 2)]
    assert "differs from sweep0" in ledger.failures[("sweep1", 2)]


def test_row_checks_catch_out_of_range_values():
    rows = _rows()
    rows[0]["point_retention"] = 1.5
    rows[1]["mean_m"] = float("nan")
    rows[2]["attack"] = "reident"
    ledger = harness.Ledger()
    harness.check_passes(ledger, [_pass("sweep0", _rows()), _pass("sweep1", rows)], None)
    assert sorted(ledger.failures) == [("sweep1", 0), ("sweep1", 1), ("sweep1", 2)]


class _Boom:
    name = "perfbench-boom"

    def publish(self, dataset):
        raise RuntimeError("boom")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_raising_group_fails_only_its_cells(tmp_path, workers):
    register_mechanism("perfbench-boom", lambda: _Boom())
    try:
        workload = _tiny_workload([("raw", "identity"), ("boom", "perfbench-boom")], workers)
        worlds, _ = harness.build_worlds(workload, Tracer())
        sweep = harness.run_sweep("sweep0", workload, worlds, Tracer(), tmp_path)
    finally:
        MECHANISMS.unregister("perfbench-boom")
    ledger = harness.Ledger()
    harness.check_passes(ledger, [sweep.cold], None)
    assert ledger.attempted == 4
    assert sorted(ledger.failures) == [("sweep0", 2), ("sweep0", 3)]
    assert all("RuntimeError: boom" in r for r in ledger.failures.values())
    assert sweep.cold.rows[0]["mechanism"] == "raw"


def test_peak_rss_counts_worker_children():
    script = (
        "import subprocess, sys, resource, harness\n"
        "subprocess.run([sys.executable, '-c', 'b = b\"x\" * (300 << 20)'], check=True)\n"
        "own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(own, harness.peak_rss_mb())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=_env(), capture_output=True, text=True, check=True
    )
    own, peak = map(float, out.stdout.split())
    assert own < 300 <= peak


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_rows_equal_untraced_and_self_times_sum_to_groups(tmp_path, workers):
    workload = _tiny_workload([("raw", "identity"), ("paper-full", "promesse")], workers)
    worlds, _ = harness.build_worlds(workload, Tracer())
    plain = harness.run_sweep("plain", workload, worlds, Tracer(), tmp_path)
    spool = tmp_path / "spool"
    spool.mkdir()
    tracer = Tracer(enabled=True, spool_dir=spool)
    with instrument(tracer):
        traced = harness.run_sweep("traced", workload, worlds, tracer, tmp_path)
    assert traced.cold.digests() == plain.cold.digests()
    ids = [span["id"] for span in tracer.spans]
    assert len(ids) == len(set(ids))
    gets = [span for span in tracer.spans if span["name"] == "cache.get"]
    assert len(gets) == traced.cache.gets
    names = {span["name"] for span in tracer.spans}
    assert {"engine.group", "publish.promesse", "core.speed_smoothing", "mixzones.detect",
            "mixzones.swap", "metric.point_retention", "cache.get"} <= names
    metrics = harness.layer_metrics(tracer, traced, plain.cold.seconds, workers)
    inside, _ = harness.self_times([s for s in tracer.spans if s["trace"] == "sweep"])
    assert sum(inside.values()) == pytest.approx(metrics["backend.busy_s"], rel=1e-9)
    assert metrics["engine.groups"] == 2 and metrics["engine.cells"] == 4
    assert set(metrics) == set(harness.PER_LAYER)


def test_promesse_stages_compose_to_the_published_dataset():
    spec = ExperimentSpec(name="c", mechanisms=[("p", "promesse:swap=always")],
                          worlds=["crossing:scale=tiny,seed=5"])
    workload = Workload("c", "test", tuple(spec.worlds), (spec,))
    worlds, _ = harness.build_worlds(workload, Tracer())
    one = harness.Pass("traced", harness.cell_ids([spec]), [None], {}, 0.0)
    ledger = harness.Ledger()
    harness.check_composition(ledger, one, workload, worlds)
    assert not ledger.failures


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "privacy-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_new_files_are_lint_clean():
    reprolint = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "perfbench"],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
    )
    assert reprolint.returncode == 0, reprolint.stdout + reprolint.stderr
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed; reprolint ran")
    result = subprocess.run([ruff, "check", "perfbench"], cwd=ROOT, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stdout
