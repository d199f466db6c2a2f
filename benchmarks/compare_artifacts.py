#!/usr/bin/env python
"""Benchmark-regression gate: diff fresh ``BENCH_*.json`` artifacts against
the committed baselines and fail on large slowdowns.

Usage::

    python benchmarks/compare_artifacts.py \
        [--baseline benchmarks/artifacts] [--candidate DIR] \
        [--threshold 0.30] [--calibrate] [--update-baselines]

Every candidate artifact whose file name also exists under the baseline
directory is compared cell by cell: each timing cell present in both files
contributes the ratio ``candidate wall_s / baseline wall_s``.  An artifact
*regresses* when the **median** of its cell ratios exceeds
``1 + threshold`` (default: a 30 % median slowdown) — the median tolerates
one noisy cell while still catching a hot path that genuinely slowed down.
The exit status is non-zero when any compared artifact regresses, or when
the two directories share no artifact at all (an empty comparison must not
pass silently).

``--calibrate`` divides every cell ratio by the artifacts' machine-speed
ratio (``candidate calibration_wall_s / baseline calibration_wall_s``, the
fixed synthetic-kernel timing the bench conftest stamps into each artifact).
Machine speed cancels out, so one committed baseline serves heterogeneous
runners at a tighter threshold — the CI gate runs
``--calibrate --threshold 0.20``.  Artifact pairs missing a calibration
stamp on either side fall back to raw ratios (with a note).

``--update-baselines`` copies every *passing* candidate artifact over its
committed baseline, so refreshing baselines after a hardware-independent
speedup is one command::

    python benchmarks/compare_artifacts.py --candidate DIR --update-baselines

Every compared cell also reports its *coefficient of variation* (sample
standard deviation / mean of ``wall_s_samples``) on the baseline and the
candidate side, and is marked ``noisy`` when either exceeds
:data:`NOISY_CV`.  This is reporting only: the minimum sample still drives
the verdict, so a noisy cell tells the reader which ratios to distrust
without changing what passes.  Cells without samples report ``cv n/a``.

Artifacts only present on one side are reported but never fail the gate:
baselines are committed at specific scales, and a quick local run at another
scale should not trip CI.  Median speedups are reported too, as a nudge to
refresh the committed baselines when the hot paths got faster.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from statistics import mean, median, stdev
from typing import Dict, List, Optional, Tuple

#: Coefficient of variation above which a cell's samples are called noisy.
NOISY_CV = 0.25


def _load_payload(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def _valid_samples(values: dict) -> List[float]:
    samples = values.get("wall_s_samples")
    if not isinstance(samples, list):
        return []
    return [
        float(s)
        for s in samples
        if isinstance(s, (int, float)) and not isinstance(s, bool) and s > 0
    ]


def load_cvs(path: Path) -> Dict[str, float]:
    """Map of timing cell -> coefficient of variation of its samples.

    Cells with fewer than two valid ``wall_s_samples`` are left out.
    """
    timings = _load_payload(path).get("timings")
    if not isinstance(timings, dict):
        return {}
    cvs: Dict[str, float] = {}
    for cell, values in timings.items():
        samples = _valid_samples(values) if isinstance(values, dict) else []
        if len(samples) >= 2:
            cvs[str(cell)] = stdev(samples) / mean(samples)
    return cvs


def _cv_note(base_cv: Optional[float], cand_cv: Optional[float]) -> str:
    if base_cv is None and cand_cv is None:
        return "cv n/a"
    shown = "/".join("n/a" if cv is None else f"{cv:.2f}" for cv in (base_cv, cand_cv))
    noisy = any(cv is not None and cv > NOISY_CV for cv in (base_cv, cand_cv))
    return f"cv {shown}" + (" noisy" if noisy else "")


def load_wall_times(path: Path) -> Dict[str, float]:
    """Map of timing cell -> wall seconds for one artifact (empty on error).

    A cell may carry ``wall_s_samples`` — the individual repeat wall times,
    an additive schema field newer benches record next to ``wall_s``.  When
    present and valid, the *minimum* sample is compared (the least noisy
    location estimate, robust to one slow repeat on a shared runner);
    otherwise ``wall_s`` is used, so baselines without samples keep working
    unregenerated.
    """
    timings = _load_payload(path).get("timings")
    if not isinstance(timings, dict):
        return {}
    cells: Dict[str, float] = {}
    for cell, values in timings.items():
        if not isinstance(values, dict):
            continue
        wall = values.get("wall_s")
        valid = _valid_samples(values)
        if valid:
            wall = min(valid)
        if isinstance(wall, (int, float)) and not isinstance(wall, bool) and wall > 0:
            cells[str(cell)] = float(wall)
    return cells


def load_calibration(path: Path) -> Optional[float]:
    """The artifact's machine-speed stamp, or ``None`` when absent/invalid."""
    value = _load_payload(path).get("calibration_wall_s")
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0:
        return float(value)
    return None


def compare_artifact(
    baseline: Path, candidate: Path, calibrate: bool = False
) -> Tuple[Optional[float], List[str]]:
    """``(median ratio, per-cell lines)`` for one artifact pair.

    Each cell line carries the baseline/candidate coefficients of variation
    of its samples, marked ``noisy`` above :data:`NOISY_CV`.

    The ratio is ``None`` when the two files share no timed cell (schema
    drift or a renamed cell set — reported, not silently skipped).  With
    ``calibrate``, every cell ratio is divided by the candidate/baseline
    machine-speed ratio so runner speed cancels; pairs missing a stamp on
    either side fall back to raw ratios with a note.
    """
    base_cells = load_wall_times(baseline)
    cand_cells = load_wall_times(candidate)
    shared = sorted(set(base_cells) & set(cand_cells))
    lines = []
    speed = 1.0
    if calibrate:
        base_calibration = load_calibration(baseline)
        cand_calibration = load_calibration(candidate)
        if base_calibration is not None and cand_calibration is not None:
            speed = cand_calibration / base_calibration
            lines.append(
                f"    calibration: {base_calibration:.4f}s -> {cand_calibration:.4f}s"
                f"  (runner speed x{speed:.2f}, ratios normalized)"
            )
        else:
            side = "baseline" if base_calibration is None else "candidate"
            lines.append(
                f"    calibration: missing in {side} — raw (uncalibrated) ratios"
            )
    base_cvs = load_cvs(baseline)
    cand_cvs = load_cvs(candidate)
    ratios = []
    for cell in shared:
        ratio = cand_cells[cell] / base_cells[cell] / speed
        ratios.append(ratio)
        lines.append(
            f"    {cell}: {base_cells[cell]:.4f}s -> {cand_cells[cell]:.4f}s"
            f"  (x{ratio:.2f})  {_cv_note(base_cvs.get(cell), cand_cvs.get(cell))}"
        )
    for cell in sorted(set(base_cells) ^ set(cand_cells)):
        side = "baseline" if cell in base_cells else "candidate"
        lines.append(f"    {cell}: only in {side} (not compared)")
    return (median(ratios) if ratios else None), lines


def main(argv: Optional[List[str]] = None) -> int:
    default_dir = Path(__file__).resolve().parent / "artifacts"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=default_dir,
        help="directory holding the committed baseline artifacts",
    )
    parser.add_argument(
        "--candidate",
        type=Path,
        default=default_dir,
        help="directory holding the freshly generated artifacts",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_GATE_THRESHOLD", "0.30")),
        help="maximum tolerated fractional median slowdown (default 0.30)",
    )
    parser.add_argument(
        "--calibrate",
        action="store_true",
        help="normalize cell ratios by the artifacts' calibration_wall_s "
        "machine-speed stamps (cancels runner speed; enables a tighter threshold)",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="copy every passing candidate artifact over its committed baseline",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 0.0:
        parser.error(f"--threshold must be positive, got {args.threshold}")
    if args.update_baselines and args.baseline.resolve() == args.candidate.resolve():
        parser.error("--update-baselines needs distinct --baseline and --candidate dirs")

    baseline_files = {p.name: p for p in sorted(args.baseline.glob("BENCH_*.json"))}
    candidate_files = {p.name: p for p in sorted(args.candidate.glob("BENCH_*.json"))}
    shared_names = sorted(set(baseline_files) & set(candidate_files))
    if not shared_names:
        print(
            f"FAIL: no artifact names shared between {args.baseline} "
            f"({len(baseline_files)} artifacts) and {args.candidate} "
            f"({len(candidate_files)} artifacts)"
        )
        return 2

    limit = 1.0 + args.threshold
    regressions = 0
    passing: List[str] = []
    for name in shared_names:
        ratio, lines = compare_artifact(
            baseline_files[name], candidate_files[name], calibrate=args.calibrate
        )
        if ratio is None:
            regressions += 1
            verdict = "FAIL (no comparable timing cells)"
        elif ratio > limit:
            regressions += 1
            verdict = f"FAIL (median x{ratio:.2f} > x{limit:.2f})"
        elif ratio < 1.0 / limit:
            passing.append(name)
            verdict = (
                f"ok   (median x{ratio:.2f} — consider refreshing the baseline: "
                "rerun with --update-baselines)"
            )
        else:
            passing.append(name)
            verdict = f"ok   (median x{ratio:.2f})"
        print(f"{name}: {verdict}")
        for line in lines:
            print(line)
    for name in sorted(set(baseline_files) ^ set(candidate_files)):
        side = "baseline" if name in baseline_files else "candidate"
        print(f"{name}: only in {side} (not compared)")

    print(
        f"{len(shared_names) - regressions}/{len(shared_names)} compared artifacts "
        f"within x{limit:.2f} of baseline"
        + (" (calibrated)" if args.calibrate else "")
    )
    if args.update_baselines:
        for name in passing:
            shutil.copyfile(candidate_files[name], baseline_files[name])
            print(f"updated baseline {baseline_files[name]} <- {candidate_files[name]}")
        skipped = len(shared_names) - len(passing)
        if skipped:
            print(f"left {skipped} regressing baseline(s) untouched")
        print(f"refreshed {len(passing)}/{len(shared_names)} baselines")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
