"""Hot-path benchmark: mix-zone detection, Wait-For-Me publication, the
per-user spatial-distortion metric, speed smoothing, mix-zone swapping and
DJ-Cluster.

Cells of an engine run rewritten on the columnar kernel layer.  This bench
times them directly — no engine overhead — and records throughput plus the
speedup against the committed pre-refactor baselines in
``BENCH_hotpaths.json``.  Four cells time the kernel against its scalar
reference oracle in the same run, and fail unless the two agree bitwise:

* ``spatial_distortion_by_user`` — on the same Geo-I publication (far-off
  fixes: the kernel's hardest case);
* ``speed_smoothing`` — ``smooth_dataset`` against
  ``smooth_dataset_reference`` on the standard world;
* ``mixzone_swap`` — ``MixZoneSwapper.apply`` against ``apply_reference``
  on the smoothed crossing world and its detected zones;
* ``djcluster`` — ``DjCluster.extract_dataset`` (the grid DBSCAN kernel)
  against ``extract_dataset_reference`` on the raw standard world.

``detect_mix_zones`` has no scalar oracle at evaluation scale (the reference
crossing search is O(n^2)); its zones must instead equal
``replay_detect_mix_zones`` on the same world, the streaming detector's
independent sliding-window join.

The pre-PR numbers below were measured on the implementation at commit
63d6381 (Python double loops over spatial bins for detection; per-pair
synchronized-distance reductions for W4M clustering), best of several runs on
the same workloads this bench generates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.djcluster import DjCluster
from repro.baselines.geo_indistinguishability import GeoIndConfig, GeoIndistinguishabilityMechanism
from repro.baselines.wait4me import Wait4MeConfig, Wait4MeMechanism
from repro.core.speed_smoothing import SpeedSmoother
from repro.experiments.formatting import format_table
from repro.metrics.utility import (
    DistortionSummary,
    dataset_spatial_distortion,
    trajectory_spatial_distortion,
    trajectory_spatial_distortion_reference,
)
from repro.mixzones.detection import MixZoneDetectionConfig, detect_mix_zones
from repro.mixzones.swapping import MixZoneSwapper
from repro.streaming.mixzones import replay_detect_mix_zones

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


def _same_bits(published, reference) -> bool:
    """Same users in the same order, every column equal bit for bit."""
    return published.user_ids == reference.user_ids and all(
        np.array_equal(mine.view(np.int64), theirs.view(np.int64))
        for trajectory in published
        for mine, theirs in zip(trajectory.to_arrays(), reference[trajectory.user_id].to_arrays())
    )


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
    assert zones == replay_detect_mix_zones(crossing, MixZoneDetectionConfig(radius_m=100.0))
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

    smoother = SpeedSmoother()
    smoothed, smoothing_samples = bench_timer(lambda: smoother.smooth_dataset(standard))
    smoothed_ref, smoothing_ref_samples = bench_timer(
        lambda: smoother.smooth_dataset_reference(standard)
    )
    assert _same_bits(smoothed, smoothed_ref)

    crossing_smoothed = smoother.smooth_dataset(crossing)
    swapper = MixZoneSwapper()
    swapped, swap_samples = bench_timer(lambda: swapper.apply(crossing_smoothed, zones))
    swapped_ref, swap_ref_samples = bench_timer(
        lambda: swapper.apply_reference(crossing_smoothed, zones)
    )
    assert _same_bits(swapped.dataset, swapped_ref.dataset)
    assert swapped.records == swapped_ref.records
    assert swapped.segment_ownership == swapped_ref.segment_ownership
    assert swapped.suppressed_points == swapped_ref.suppressed_points

    djcluster = DjCluster()
    standard.columnar()  # shared cache: time the attack, not the flattening
    pois, djcluster_samples = bench_timer(lambda: djcluster.extract_dataset(standard))
    pois_ref, djcluster_ref_samples = bench_timer(
        lambda: djcluster.extract_dataset_reference(standard), repeats=1
    )
    assert pois == pois_ref

    timings = {
        "detect_mix_zones": _cell_timing(
            "detect_mix_zones", evaluation_scale, mixzone_samples, crossing.n_points
        ),
        "wait4me_publish": _cell_timing(
            "wait4me_publish", evaluation_scale, wait4me_samples, standard.n_points
        ),
        # Speedups of the last four cells are against the scalar oracle,
        # timed in the same run.
        "spatial_distortion_by_user": _cell_timing(
            "spatial_distortion_by_user", evaluation_scale, kernel_samples,
            noisy.n_points, before=min(reference_samples),
        ),
        "speed_smoothing": _cell_timing(
            "speed_smoothing", evaluation_scale, smoothing_samples,
            standard.n_points, before=min(smoothing_ref_samples),
        ),
        "mixzone_swap": _cell_timing(
            "mixzone_swap", evaluation_scale, swap_samples,
            crossing_smoothed.n_points, before=min(swap_ref_samples),
        ),
        "djcluster": _cell_timing(
            "djcluster", evaluation_scale, djcluster_samples,
            standard.n_points, before=min(djcluster_ref_samples),
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
                "smoothing_reference_wall_s": min(smoothing_ref_samples),
                "swap_reference_wall_s": min(swap_ref_samples),
                "swap_zones": len(zones),
                "djcluster_reference_wall_s": min(djcluster_ref_samples),
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
