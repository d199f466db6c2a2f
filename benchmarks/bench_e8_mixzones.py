"""E8 — natural mix-zone statistics versus zone radius.

Regenerates the E8 mix-zone statistics table (README "Running the
evaluation"): how many natural crossings the detector finds at each radius,
how many users they gather and how much mixing entropy they provide.  The
point of the experiment is the paper's premise that *natural* meetings are
frequent enough to be exploited — no artificial distortion is needed to create
them.
"""

from __future__ import annotations

import time

from repro.experiments.formatting import format_table
from repro.experiments.runner import run_mixzone_stats

HEADERS = ["zone_radius_m", "n_zones", "mean_participants", "max_participants", "mean_entropy_bits"]
RADII = (50.0, 100.0, 200.0, 400.0)


def test_e8_mixzone_statistics(benchmark, crossing_eval_world, bench_artifact):
    timer = {}

    def timed():
        start = time.perf_counter()
        rows = run_mixzone_stats(crossing_eval_world, zone_radii_m=RADII)
        timer["wall_s"] = time.perf_counter() - start
        return rows

    rows = benchmark.pedantic(timed, rounds=1, iterations=1)
    print()
    print(format_table(HEADERS, [[r[h] for h in HEADERS] for r in rows],
                       title="E8 - natural mix-zones vs radius (crossing-rich workload)"))
    n_points = crossing_eval_world.dataset.n_points
    bench_artifact(
        "e8_mixzones",
        # Singleton sample: the run goes through the shared default engine,
        # whose per-cell cache would turn any warm repeat into a cache-hit
        # measurement.
        timings={
            "run_mixzone_stats": {
                "wall_s": timer["wall_s"],
                "wall_s_samples": [timer["wall_s"]],
                "points_per_s": len(RADII) * n_points / timer["wall_s"],
            }
        },
        rows=rows,
        extra={"radii_m": list(RADII), "workload_points": n_points},
    )

    assert all(r["n_zones"] > 0 for r in rows), "natural crossings must exist at every radius"
    assert all(r["mean_participants"] >= 2.0 for r in rows)
    assert all(r["mean_entropy_bits"] >= 1.0 for r in rows)


def test_e8_standard_workload_also_has_zones(benchmark, eval_world):
    """Even the non-engineered workload contains exploitable natural crossings."""
    rows = benchmark.pedantic(
        lambda: run_mixzone_stats(eval_world, zone_radii_m=(100.0,)), rounds=1, iterations=1
    )
    print()
    print(format_table(HEADERS, [[r[h] for h in HEADERS] for r in rows],
                       title="E8 (secondary) - natural mix-zones in the standard workload"))
    assert rows[0]["n_zones"] > 0
