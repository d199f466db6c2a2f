"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the evaluation (E1-E8,
listed in README "Running the evaluation").  Workloads are generated once per
session; every bench prints the rows it measured so the pytest output doubles
as the reproduced evaluation tables.

Benchmarks also persist machine-readable ``BENCH_<name>.json`` artifacts
(under ``benchmarks/artifacts/``) through the ``bench_artifact`` fixture, so
the performance trajectory of the hot paths is tracked across commits.  The
artifact schema is validated by ``benchmarks/validate_artifacts.py`` (also run
as a CI smoke step at a small scale).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Mapping, Optional, Sequence

import pytest

from repro.experiments.workloads import crossing_rich_world, standard_world

#: Scale used by the evaluation benches.  "medium" (40 users x 7 days) is the
#: scale of the README's E1-E8 tables; override with REPRO_BENCH_SCALE
#: (e.g. "small" for a quicker pass, as the CI smoke step does).
EVALUATION_SCALE = os.environ.get("REPRO_BENCH_SCALE", "medium")

#: Where BENCH_*.json artifacts are written.  REPRO_BENCH_ARTIFACT_DIR
#: redirects the writer, so CI can generate fresh artifacts into a scratch
#: directory and diff them against the committed baselines
#: (benchmarks/compare_artifacts.py) without touching the checkout.
ARTIFACT_DIR = Path(
    os.environ.get("REPRO_BENCH_ARTIFACT_DIR")
    or Path(__file__).resolve().parent / "artifacts"
)

#: Version of the artifact schema (checked by validate_artifacts.py).
BENCH_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Min-of-k timing
# ---------------------------------------------------------------------------


def best_of(fn, repeats: int = 3):
    """Run ``fn`` ``repeats`` times; ``(last result, per-repeat wall seconds)``.

    Benches record the full sample list as ``wall_s_samples`` next to
    ``wall_s = min(samples)``: the minimum is the least-noisy location
    estimate on a shared runner (``compare_artifacts.py`` compares it when
    samples are present), and the spread lets a reader of the artifact judge
    how noisy the run was.  When ``repeats > 1`` one untimed warm-up call
    runs first, so no sample pays one-off costs such as a lazy import (the
    first ``detect_mix_zones`` call imports scipy).  Callers whose workload
    memoizes across calls (e.g. a caching engine) must pass ``repeats=1`` —
    a warm repeat would measure the cache, not the work — and that single
    sample stays cold.
    """
    if repeats > 1:
        fn()
    result, samples = None, []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return result, samples


@pytest.fixture(scope="session")
def bench_timer():
    """:func:`best_of` as a fixture (benches must not import conftest)."""
    return best_of


# ---------------------------------------------------------------------------
# Machine-speed calibration
# ---------------------------------------------------------------------------

_CALIBRATION_WALL_S: Optional[float] = None


def _measure_calibration(repeats: int = 3) -> float:
    """Wall time of a fixed synthetic numpy kernel (machine-speed proxy).

    Deliberately *not* built on repro's own kernels: optimising the repo must
    never move the yardstick.  The kernel mixes the operations the benches
    are dominated by (trig-heavy elementwise math, a sort, a reduction) on a
    fixed-size, fixed-seed input; the *minimum* over a few repeats is the
    least noisy location estimate.  ~100 ms per repeat, so stamping costs a
    fraction of a second per session.

    ``compare_artifacts.py --calibrate`` divides every candidate/baseline
    cell ratio by the calibration ratio, which cancels machine speed and
    lets one committed baseline serve heterogeneous CI runners at a tighter
    threshold than raw wall times could.
    """
    import numpy as np

    rng = np.random.default_rng(20260715)
    lat = rng.uniform(-1.0, 1.0, 300_000)
    lon = rng.uniform(-1.0, 1.0, 300_000)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        half = (
            np.sin((lat - lon) * 0.5) ** 2
            + np.cos(lat) * np.cos(lon) * np.sin(lon * 0.5) ** 2
        )
        arc = 2.0 * np.arcsin(np.sqrt(np.clip(half, 0.0, 1.0)))
        order = np.argsort(arc, kind="stable")
        checksum = float(np.cumsum(arc[order])[-1])
        assert checksum > 0.0
        best = min(best, time.perf_counter() - start)
    return best


def calibration_wall_s() -> float:
    """The session's calibration timing (measured once, cached).

    ``REPRO_BENCH_CALIBRATION_S`` overrides the measurement — for tests, and
    for reproducing a gate decision from a CI log.
    """
    global _CALIBRATION_WALL_S
    if _CALIBRATION_WALL_S is None:
        override = os.environ.get("REPRO_BENCH_CALIBRATION_S")
        _CALIBRATION_WALL_S = (
            float(override) if override else _measure_calibration()
        )
    return _CALIBRATION_WALL_S


def write_bench_artifact(
    name: str,
    *,
    timings: Mapping[str, Mapping[str, float]],
    rows: Sequence[Mapping[str, object]] = (),
    baseline: Optional[Mapping[str, object]] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write ``BENCH_<name>.<scale>.json`` and return its path.

    ``timings`` maps a measured cell (e.g. ``"detect_mix_zones"``) to numbers
    — at minimum ``wall_s``; throughput figures ride alongside.  ``rows`` are
    the printed table rows, ``baseline`` optional before/after context.  The
    scale is part of the file name so a quick small-scale pass (the CI smoke)
    never overwrites the committed medium-scale evidence.
    """
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "scale": EVALUATION_SCALE,
        "python": platform.python_version(),
        # Machine-speed stamp: lets the regression gate normalize this
        # artifact's wall times against a baseline from a different runner.
        "calibration_wall_s": calibration_wall_s(),
        "timings": {cell: dict(values) for cell, values in timings.items()},
        "rows": [dict(row) for row in rows],
    }
    if baseline is not None:
        payload["baseline"] = dict(baseline)
    if extra:
        # Nested, not merged: a caller key must not shadow a schema field.
        payload["extra"] = dict(extra)
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / f"BENCH_{name}.{EVALUATION_SCALE}.json"
    with open(path, "w", encoding="utf-8") as handle:
        # _sanitize maps non-finite floats to None and allow_nan=False
        # backstops it: the artifact must stay strict JSON (bare NaN/Infinity
        # tokens are rejected by most consumers).
        json.dump(
            _sanitize(payload), handle, indent=1, sort_keys=False, allow_nan=False
        )
        handle.write("\n")
    return path


def _sanitize(value):
    """Make a payload strict-JSON-safe: finite numbers, plain containers."""
    import math

    import numpy as np

    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return str(value)


@pytest.fixture(scope="session")
def bench_artifact():
    """The artifact writer as a fixture (see :func:`write_bench_artifact`)."""
    return write_bench_artifact


@pytest.fixture(scope="session")
def evaluation_scale() -> str:
    """The session's workload scale (benches must not import conftest)."""
    return EVALUATION_SCALE


@pytest.fixture(scope="session")
def eval_world():
    """The standard evaluation workload (experiments E1-E3, E6)."""
    return standard_world(EVALUATION_SCALE, seed=42)


@pytest.fixture(scope="session")
def crossing_eval_world():
    """The crossing-rich workload (experiments E4, E5, E8)."""
    return crossing_rich_world(EVALUATION_SCALE, seed=42)
