"""Tests for the CI benchmark-regression gate (benchmarks/compare_artifacts.py).

The gate must pass on the committed baselines compared against themselves,
fail (exit non-zero) on an artificially slowed artifact, and fail loudly on
an empty comparison — a gate that can silently compare nothing guards
nothing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import compare_artifacts  # noqa: E402

COMMITTED = REPO_ROOT / "benchmarks" / "artifacts"


def _write_artifact(
    directory: Path,
    name: str,
    scale: str,
    cells: dict,
    calibration: float = None,
    samples: dict = None,
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.{scale}.json"
    timings = {cell: {"wall_s": wall} for cell, wall in cells.items()}
    for cell, values in (samples or {}).items():
        timings[cell]["wall_s_samples"] = values
    payload = {
        "schema_version": 1,
        "name": name,
        "scale": scale,
        "python": "3.11.0",
        "timings": timings,
        "rows": [],
    }
    if calibration is not None:
        payload["calibration_wall_s"] = calibration
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def baseline_dir(tmp_path):
    directory = tmp_path / "baseline"
    _write_artifact(
        directory, "hot", "small", {"detect": 1.0, "publish": 0.5, "extract": 2.0}
    )
    return directory


def _candidate(tmp_path, cells):
    directory = tmp_path / "candidate"
    _write_artifact(directory, "hot", "small", cells)
    return directory


class TestGateVerdicts:
    def test_identical_artifacts_pass(self, tmp_path, baseline_dir):
        candidate = _candidate(tmp_path, {"detect": 1.0, "publish": 0.5, "extract": 2.0})
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(candidate)]
        ) == 0

    def test_slowed_artifact_fails(self, tmp_path, baseline_dir):
        candidate = _candidate(tmp_path, {"detect": 2.0, "publish": 1.0, "extract": 4.0})
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(candidate)]
        ) != 0

    def test_median_tolerates_one_noisy_cell(self, tmp_path, baseline_dir):
        # One cell doubled, the other two on baseline: median ratio is 1.0.
        candidate = _candidate(tmp_path, {"detect": 2.0, "publish": 0.5, "extract": 2.0})
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(candidate)]
        ) == 0

    def test_majority_regression_fails_despite_median(self, tmp_path, baseline_dir):
        candidate = _candidate(tmp_path, {"detect": 1.4, "publish": 0.7, "extract": 2.0})
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(candidate)]
        ) != 0

    def test_threshold_is_configurable(self, tmp_path, baseline_dir):
        candidate = _candidate(tmp_path, {"detect": 1.4, "publish": 0.7, "extract": 2.8})
        args = ["--baseline", str(baseline_dir), "--candidate", str(candidate)]
        assert compare_artifacts.main(args) != 0
        assert compare_artifacts.main(args + ["--threshold", "0.50"]) == 0

    def test_speedup_passes(self, tmp_path, baseline_dir):
        candidate = _candidate(tmp_path, {"detect": 0.2, "publish": 0.1, "extract": 0.4})
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(candidate)]
        ) == 0


class TestGateEdgeCases:
    def test_empty_comparison_fails(self, tmp_path, baseline_dir):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(empty)]
        ) != 0

    def test_disjoint_artifact_names_fail(self, tmp_path, baseline_dir):
        candidate = tmp_path / "candidate"
        _write_artifact(candidate, "other", "small", {"detect": 1.0})
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(candidate)]
        ) != 0

    def test_no_shared_cells_fails(self, tmp_path, baseline_dir):
        candidate = _candidate(tmp_path, {"renamed_cell": 1.0})
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(candidate)]
        ) != 0

    def test_extra_candidate_artifact_is_ignored(self, tmp_path, baseline_dir):
        candidate = _candidate(tmp_path, {"detect": 1.0, "publish": 0.5, "extract": 2.0})
        _write_artifact(candidate, "fresh", "small", {"new_cell": 1.0})
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(candidate)]
        ) == 0


class TestCalibration:
    """--calibrate cancels machine speed via the calibration_wall_s stamps."""

    def test_slower_runner_passes_when_calibrated(self, tmp_path):
        # Candidate runner is 2x slower (calibration 0.1 -> 0.2); every cell
        # is 2x the baseline wall time.  Raw: FAIL; calibrated: x1.00 ok.
        baseline = tmp_path / "baseline"
        _write_artifact(baseline, "hot", "small", {"detect": 1.0, "extract": 2.0}, 0.1)
        candidate = tmp_path / "candidate"
        _write_artifact(candidate, "hot", "small", {"detect": 2.0, "extract": 4.0}, 0.2)
        args = ["--baseline", str(baseline), "--candidate", str(candidate)]
        assert compare_artifacts.main(args) != 0
        assert compare_artifacts.main(args + ["--calibrate"]) == 0
        # The tightened CI threshold also holds once speed is cancelled.
        assert compare_artifacts.main(args + ["--calibrate", "--threshold", "0.20"]) == 0

    def test_true_regression_fails_even_calibrated(self, tmp_path):
        # Same machine speed, genuinely 1.5x slower cells: calibration must
        # not excuse it.
        baseline = tmp_path / "baseline"
        _write_artifact(baseline, "hot", "small", {"detect": 1.0, "extract": 2.0}, 0.1)
        candidate = tmp_path / "candidate"
        _write_artifact(candidate, "hot", "small", {"detect": 1.5, "extract": 3.0}, 0.1)
        assert compare_artifacts.main(
            ["--baseline", str(baseline), "--candidate", str(candidate), "--calibrate"]
        ) != 0

    def test_fast_runner_cannot_hide_regression(self, tmp_path):
        # Candidate runner is 2x faster, so raw wall times look flat — but
        # normalized they are a 2x regression.
        baseline = tmp_path / "baseline"
        _write_artifact(baseline, "hot", "small", {"detect": 1.0, "extract": 2.0}, 0.2)
        candidate = tmp_path / "candidate"
        _write_artifact(candidate, "hot", "small", {"detect": 1.0, "extract": 2.0}, 0.1)
        args = ["--baseline", str(baseline), "--candidate", str(candidate)]
        assert compare_artifacts.main(args) == 0
        assert compare_artifacts.main(args + ["--calibrate"]) != 0

    def test_missing_calibration_falls_back_to_raw(self, tmp_path, baseline_dir, capsys):
        # baseline_dir artifacts carry no stamp: --calibrate must not crash
        # nor change the verdict, and must say why.
        candidate = _candidate(tmp_path, {"detect": 1.0, "publish": 0.5, "extract": 2.0})
        assert compare_artifacts.main(
            ["--baseline", str(baseline_dir), "--candidate", str(candidate), "--calibrate"]
        ) == 0
        assert "missing" in capsys.readouterr().out


class TestNoiseReport:
    """Per-cell coefficients of variation are reported; verdicts do not move."""

    def _lines(self, tmp_path, capsys, samples):
        baseline = tmp_path / "baseline"
        _write_artifact(baseline, "hot", "small", {"detect": 1.0, "extract": 2.0})
        candidate = tmp_path / "candidate"
        _write_artifact(
            candidate, "hot", "small", {"detect": 1.0, "extract": 2.0}, samples=samples
        )
        code = compare_artifacts.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        )
        out = capsys.readouterr().out
        return code, {
            cell: next(line for line in out.splitlines() if line.strip().startswith(cell + ":"))
            for cell in ("detect", "extract")
        }

    def test_noisy_cell_is_flagged(self, tmp_path, capsys):
        # 0.022 s .. 0.416 s: the spread BENCH_hotpaths recorded for one cell.
        code, lines = self._lines(
            tmp_path, capsys,
            {"detect": [1.0, 19.0, 1.2], "extract": [2.0, 2.02, 2.01]},
        )
        assert code == 0, "noise is reported, never a failure"
        assert lines["detect"].endswith("noisy")
        assert "cv n/a/" in lines["detect"]

    def test_quiet_cell_is_not_flagged(self, tmp_path, capsys):
        code, lines = self._lines(
            tmp_path, capsys, {"detect": [1.0, 1.01, 1.02], "extract": [2.0, 2.02, 2.01]}
        )
        assert code == 0
        assert "noisy" not in lines["detect"] and "noisy" not in lines["extract"]
        cv = float(lines["detect"].split("cv n/a/")[1])
        assert cv == pytest.approx(0.01, abs=0.005)

    def test_artifact_without_samples_reports_na(self, tmp_path, capsys):
        code, lines = self._lines(tmp_path, capsys, None)
        assert code == 0
        assert lines["detect"].endswith("cv n/a")

    def test_noise_does_not_change_the_verdict(self, tmp_path):
        baseline = tmp_path / "baseline"
        _write_artifact(baseline, "hot", "small", {"detect": 1.0})
        candidate = tmp_path / "candidate"
        _write_artifact(
            candidate, "hot", "small", {"detect": 3.0}, samples={"detect": [3.0, 60.0]}
        )
        assert compare_artifacts.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        ) != 0
        assert compare_artifacts.load_cvs(candidate / "BENCH_hot.small.json")["detect"] > 1.0


class TestUpdateBaselines:
    def test_passing_candidates_replace_baselines(self, tmp_path, baseline_dir):
        candidate = _candidate(tmp_path, {"detect": 0.5, "publish": 0.25, "extract": 1.0})
        assert compare_artifacts.main(
            [
                "--baseline", str(baseline_dir),
                "--candidate", str(candidate),
                "--update-baselines",
            ]
        ) == 0
        refreshed = json.loads((baseline_dir / "BENCH_hot.small.json").read_text())
        assert refreshed["timings"]["detect"]["wall_s"] == 0.5

    def test_regressing_candidates_leave_baselines_untouched(self, tmp_path, baseline_dir):
        candidate = _candidate(tmp_path, {"detect": 9.0, "publish": 9.0, "extract": 9.0})
        assert compare_artifacts.main(
            [
                "--baseline", str(baseline_dir),
                "--candidate", str(candidate),
                "--update-baselines",
            ]
        ) != 0
        untouched = json.loads((baseline_dir / "BENCH_hot.small.json").read_text())
        assert untouched["timings"]["detect"]["wall_s"] == 1.0

    def test_same_directory_rejected(self, baseline_dir):
        with pytest.raises(SystemExit):
            compare_artifacts.main(
                [
                    "--baseline", str(baseline_dir),
                    "--candidate", str(baseline_dir),
                    "--update-baselines",
                ]
            )


class TestCommittedBaselines:
    def test_committed_baselines_pass_against_themselves(self):
        """The exact comparison CI bootstraps from must hold on the checkout."""
        assert sorted(COMMITTED.glob("BENCH_*.json")), "no committed artifacts"
        assert compare_artifacts.main(
            ["--baseline", str(COMMITTED), "--candidate", str(COMMITTED)]
        ) == 0

    def test_committed_baselines_carry_calibration_and_pass_calibrated_gate(self):
        """The exact CI gate invocation: every committed baseline must carry
        a machine-speed stamp and self-compare clean at the 0.20 threshold."""
        for path in COMMITTED.glob("BENCH_*.json"):
            assert compare_artifacts.load_calibration(path) is not None, (
                f"{path.name} lacks calibration_wall_s; regenerate it with the "
                "bench suite and refresh via --update-baselines"
            )
        assert compare_artifacts.main(
            [
                "--baseline", str(COMMITTED),
                "--candidate", str(COMMITTED),
                "--calibrate", "--threshold", "0.20",
            ]
        ) == 0

    def test_slowed_committed_artifact_fails(self, tmp_path):
        """Demonstrably non-vacuous: a 2x-slowed copy of every committed
        artifact must trip the gate."""
        slowed = tmp_path / "slowed"
        slowed.mkdir()
        for path in COMMITTED.glob("BENCH_*.json"):
            payload = json.loads(path.read_text())
            for values in payload.get("timings", {}).values():
                if not isinstance(values, dict):
                    continue
                if isinstance(values.get("wall_s"), (int, float)):
                    values["wall_s"] = values["wall_s"] * 2.0
                # The gate prefers min(wall_s_samples) when present, so a
                # genuinely slowed run must slow the samples too.
                if isinstance(values.get("wall_s_samples"), list):
                    values["wall_s_samples"] = [
                        s * 2.0 if isinstance(s, (int, float)) else s
                        for s in values["wall_s_samples"]
                    ]
            (slowed / path.name).write_text(json.dumps(payload))
        assert compare_artifacts.main(
            ["--baseline", str(COMMITTED), "--candidate", str(slowed)]
        ) != 0


def _load_bench_conftest():
    """benchmarks/conftest.py under its own name (``conftest`` is taken)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBestOfWarmUp:
    """The benches' min-of-k timer: one untimed call before k > 1 samples."""

    def test_repeats_above_one_warm_up_first(self):
        calls = []
        result, samples = _load_bench_conftest().best_of(lambda: calls.append(1) or len(calls), 3)
        assert len(calls) == 4, "one warm-up call plus three timed calls"
        assert len(samples) == 3
        assert result == 4

    def test_single_repeat_stays_cold(self):
        # Memoizing benches pass repeats=1: a warm-up would fill their cache.
        calls = []
        _, samples = _load_bench_conftest().best_of(lambda: calls.append(1), 1)
        assert len(calls) == 1
        assert len(samples) == 1
