"""Hot-path benchmark: mix-zone detection, Wait-For-Me publication and the
per-user spatial-distortion metric.

Cells of an engine run rewritten on the columnar kernel layer.  This bench
times them directly — no engine overhead — and records throughput plus the
speedup against the committed pre-refactor baselines in
``BENCH_hotpaths.json``.  The spatial-distortion cell times the columnar
kernel against its scalar reference oracle on the same Geo-I publication
(far-off fixes: the kernel's hardest case) in the same run, and fails unless
the two agree bitwise.

The pre-PR numbers below were measured on the implementation at commit
63d6381 (Python double loops over spatial bins for detection; per-pair
synchronized-distance reductions for W4M clustering), best of several runs on
the same workloads this bench generates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.geo_indistinguishability import GeoIndConfig, GeoIndistinguishabilityMechanism
from repro.baselines.wait4me import Wait4MeConfig, Wait4MeMechanism
from repro.experiments.formatting import format_table
from repro.metrics.utility import (
    DistortionSummary,
    dataset_spatial_distortion,
    trajectory_spatial_distortion,
    trajectory_spatial_distortion_reference,
)
from repro.mixzones.detection import detect_mix_zones

#: Pre-refactor wall seconds, by (cell, scale).  Scales not measured before
#: the refactor have no baseline and report speedup None.
PRE_REFACTOR_S = {
    ("detect_mix_zones", "medium"): 0.977,
    ("detect_mix_zones", "large"): 19.54,
    ("wait4me_publish", "medium"): 0.0402,
    ("wait4me_publish", "large"): 0.223,
}


def _reference_distances(original, published) -> np.ndarray:
    """Per-fix distances of the matched users, by the scalar oracle."""
    return np.concatenate([
        trajectory_spatial_distortion_reference(original[t.user_id], t)
        for t in published
        if len(t)
    ])


def _cell_timing(
    cell: str, scale: str, samples: list, points: int, before: Optional[float] = None
) -> dict:
    before = before or PRE_REFACTOR_S.get((cell, scale))
    wall_s = min(samples)
    return {
        "wall_s": wall_s,
        "wall_s_samples": list(samples),
        # None (not inf/NaN) when the timer under-resolves: the artifact
        # writer emits strict JSON only.
        "points_per_s": points / wall_s if wall_s > 0 else None,
        "pre_refactor_wall_s": before,
        "speedup": (before / wall_s) if before and wall_s > 0 else None,
    }


def test_hotpaths(
    eval_world, crossing_eval_world, bench_artifact, bench_timer, evaluation_scale
):
    crossing = crossing_eval_world.dataset
    standard = eval_world.dataset

    zones, mixzone_samples = bench_timer(
        lambda: detect_mix_zones(crossing, radius_m=100.0)
    )
    mechanism = Wait4MeMechanism(Wait4MeConfig(k=4, delta_m=500.0))
    published, wait4me_samples = bench_timer(
        lambda: mechanism.publish(standard).dataset, repeats=5
    )

    noisy = GeoIndistinguishabilityMechanism(GeoIndConfig(seed=0)).publish(standard).dataset
    summary, kernel_samples = bench_timer(
        lambda: dataset_spatial_distortion(standard, noisy, match_by_user=True)
    )
    reference, reference_samples = bench_timer(
        lambda: _reference_distances(standard, noisy), repeats=1
    )
    kernel = np.concatenate([
        trajectory_spatial_distortion(standard[t.user_id], t) for t in noisy if len(t)
    ])
    assert np.array_equal(kernel.view(np.int64), reference.view(np.int64))
    assert summary == DistortionSummary.from_distances(reference)

    timings = {
        "detect_mix_zones": _cell_timing(
            "detect_mix_zones", evaluation_scale, mixzone_samples, crossing.n_points
        ),
        "wait4me_publish": _cell_timing(
            "wait4me_publish", evaluation_scale, wait4me_samples, standard.n_points
        ),
        # Speedup here is against the scalar oracle, timed in the same run.
        "spatial_distortion_by_user": _cell_timing(
            "spatial_distortion_by_user", evaluation_scale, kernel_samples,
            noisy.n_points, before=min(reference_samples),
        ),
    }
    rows = [
        {
            "cell": cell,
            "wall_s": values["wall_s"],
            "points_per_s": values["points_per_s"],
            "speedup_vs_pre_refactor": values["speedup"],
        }
        for cell, values in timings.items()
    ]
    path = bench_artifact(
        "hotpaths",
        timings=timings,
        rows=rows,
        baseline={
            "pre_refactor": {
                cell: seconds
                for (cell, scale), seconds in PRE_REFACTOR_S.items()
                if scale == evaluation_scale
            },
            "measured_at_commit": "pre-PR (63d6381)",
        },
        extra={
            "workload": {
                "crossing_points": crossing.n_points,
                "standard_points": standard.n_points,
                "distortion_mechanism": "geo-ind (GeoIndConfig(seed=0))",
                "distortion_reference_wall_s": min(reference_samples),
            }
        },
    )
    print()
    print(format_table(
        ["cell", "wall_s", "points_per_s", "speedup_vs_pre_refactor"],
        [[r[h] for h in ("cell", "wall_s", "points_per_s", "speedup_vs_pre_refactor")] for r in rows],
        title=f"Hot paths at scale={evaluation_scale} (artifact: {path})",
    ))

    # Output sanity at any scale; zone existence needs enough users to cross.
    if evaluation_scale not in ("tiny",):
        assert zones, "the crossing-rich workload must contain mix-zones"
        assert len(published) > 0, "wait4me must publish at least one group"
