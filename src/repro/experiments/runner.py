"""Experiment runners: the logic behind the E1-E8 benchmarks.

Each ``run_*`` function is a *thin declarative spec*: it names the
mechanisms, attacks and metrics of one experiment (the E1-E8 table in README
"Running the evaluation") as registry spec strings, hands the cross product
to the shared :class:`~repro.experiments.engine.EvaluationEngine`, and
projects the engine rows onto the experiment's historical row schema.
Benchmarks stay thin: they build the workload, call the runner inside
``benchmark(...)`` and print the rows with :mod:`repro.experiments.formatting`.

Adding a mechanism to every experiment is now one registry entry plus one
line in :data:`DEFAULT_MECHANISM_SPECS`; adding a whole experiment is one
:class:`~repro.experiments.engine.ExperimentSpec`.  Runners take their
mechanisms as a ``{label: spec}`` mapping; a single mechanism is built with
:func:`repro.api.make_mechanism`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..api.evaluators import ground_truth_pois
from ..datagen.mobility import SyntheticWorld
from ..mixzones.swapping import SwapPolicy
from .engine import EvaluationEngine, ExperimentSpec

__all__ = [
    "DEFAULT_MECHANISM_SPECS",
    "DEFAULT_SEED_SWEEP",
    "seed_sweep",
    "ground_truth_pois",
    "run_poi_retrieval",
    "run_spatial_distortion",
    "run_area_coverage",
    "run_reidentification",
    "run_tracking",
    "run_tradeoff_frontier",
    "run_mixzone_stats",
]


def seed_sweep(n: int = 5) -> Tuple[int, ...]:
    """The ``seeds=range(n)`` sweep preset for variance-reporting runs.

    Pass the result as the ``seeds`` argument of a runner (or an
    :class:`~repro.experiments.engine.ExperimentSpec`) and summarise the
    per-seed rows with
    :func:`~repro.experiments.formatting.summarize_over_seeds`; the per-cell
    engine cache makes repeated sweeps incremental.
    """
    if n < 1:
        raise ValueError(f"seed sweep needs at least one seed, got {n}")
    return tuple(range(n))


#: The standard five-seed sweep (mean ± 95 % CI in the benchmarks).
DEFAULT_SEED_SWEEP: Tuple[int, ...] = seed_sweep(5)


# ---------------------------------------------------------------------------
# Mechanism suites
# ---------------------------------------------------------------------------

#: The standard comparison suite used by E1-E3 and E6, as registry specs:
#: the raw-publication anchor, the paper's smoothing at two spacing values,
#: the full pipeline, Geo-Indistinguishability at two privacy levels,
#: Wait-For-Me, and naive down-sampling.  Seeds are injected per experiment
#: by the engine's ``seeds`` axis.
DEFAULT_MECHANISM_SPECS: Dict[str, str] = {
    "raw": "identity",
    "smoothing-eps100": "smoothing:epsilon_m=100.0",
    "smoothing-eps200": "smoothing:epsilon_m=200.0",
    "paper-full": "promesse:swap=coin_flip",
    "geo-ind-strong": f"geo-ind:epsilon_per_m={math.log(2.0) / 200.0!r}",
    "geo-ind-weak": f"geo-ind:epsilon_per_m={math.log(10.0) / 200.0!r}",
    "wait4me-k4-d500": "wait4me:k=4,delta_m=500.0",
    "downsample-x10": "downsampling:factor=10",
}


#: The engine every ``run_*`` runner shares: serial, with an in-memory cell
#: cache, so repeated runner calls on the same world (e.g. a benchmark
#: re-run) are incremental.  To pick a backend or a persistent cache, run the
#: spec directly: ``EvaluationEngine(backend=..., cache=...).run(spec)``.
_ENGINE = EvaluationEngine()


#: A runner's mechanism axis: row label -> mechanism spec.
MechanismMap = Mapping[str, str]


def _mechanism_axis(mechanisms: Optional[MechanismMap]) -> List[Tuple[str, str]]:
    return list((DEFAULT_MECHANISM_SPECS if mechanisms is None else mechanisms).items())


#: One legacy row column: its key and how to read it off an engine row.
RowColumn = Tuple[str, Callable[[Dict[str, object]], object]]


def _project(
    rows: Sequence[Dict[str, object]], mapping: Iterable[RowColumn]
) -> List[Dict[str, object]]:
    """Project engine rows onto a legacy row schema (ordered key -> source)."""
    return [{key: source(row) for key, source in mapping} for row in rows]


def _with_seed_column(
    mapping: Iterable[RowColumn], seeds: Sequence[int]
) -> List[RowColumn]:
    """Prefix the row schema with the seed column on multi-seed sweeps.

    Single-seed runs keep the exact legacy schema; a sweep needs the seed in
    the row so variance summaries can group on the remaining columns.
    """
    if len(tuple(seeds)) <= 1:
        return list(mapping)
    return [("seed", _col("seed"))] + list(mapping)


def _col(name: str) -> Callable[[Dict[str, object]], object]:
    return lambda row: row[name]


# ---------------------------------------------------------------------------
# E1 — POI retrieval
# ---------------------------------------------------------------------------


def run_poi_retrieval(
    world: SyntheticWorld,
    mechanisms: Optional[MechanismMap] = None,
    attack: str = "staypoint",
    match_distance_m: float = 250.0,
    min_stay_s: float = 900.0,
    adaptive_attacker: bool = True,
    seeds: Sequence[int] = (0,),
) -> List[Dict[str, object]]:
    """Experiment E1: POI retrieval precision / recall / F-score per mechanism.

    ``attack`` selects the extraction algorithm (``"staypoint"`` or
    ``"djcluster"``).  POIs are pooled across users before scoring because published identifiers may
    be pseudonymous or swapped.

    When ``adaptive_attacker`` is true (default), the attack parameters are
    scaled to each mechanism's *announced* noise level
    (``PublicationResult.properties``): a Geo-Indistinguishability release
    announces its ``epsilon``, so a realistic attacker widens the clustering
    diameter to a few times the expected noise radius before searching for
    stays — this is how Primault et al. (MOST'14) showed that the mechanism
    leaves the majority of POIs recoverable.
    """
    if attack not in ("staypoint", "djcluster"):
        raise ValueError(f"unknown attack {attack!r}; choose 'staypoint' or 'djcluster'")
    attack_spec = (
        f"poi-retrieval:algorithm={attack},match_distance_m={match_distance_m!r},"
        f"min_stay_s={min_stay_s!r},adaptive={str(bool(adaptive_attacker)).lower()}"
    )
    spec = ExperimentSpec(
        name="e1-poi-retrieval",
        mechanisms=_mechanism_axis(mechanisms),
        attacks=[(attack, attack_spec)],
        worlds=["world"],
        seeds=tuple(seeds),
    )
    rows = _ENGINE.run(spec, worlds={"world": world})
    return _project(
        rows,
        _with_seed_column(
            [
                ("mechanism", _col("mechanism")),
                ("attack", _col("attack")),
                ("precision", _col("precision")),
                ("recall", _col("recall")),
                ("f_score", _col("f_score")),
                ("n_true_pois", _col("n_true_pois")),
                ("n_extracted", _col("n_extracted")),
            ],
            seeds,
        ),
    )


# ---------------------------------------------------------------------------
# E2 — spatial distortion
# ---------------------------------------------------------------------------


def run_spatial_distortion(
    world: SyntheticWorld,
    mechanisms: Optional[MechanismMap] = None,
    seeds: Sequence[int] = (0,),
) -> List[Dict[str, object]]:
    """Experiment E2: spatial distortion and point retention per mechanism.

    Pass ``seeds=seed_sweep(5)`` to sweep the mechanism seeds and report
    variance (the rows then carry a leading ``seed`` column; summarise with
    :func:`~repro.experiments.formatting.summarize_over_seeds`).
    """
    spec = ExperimentSpec(
        name="e2-spatial-distortion",
        mechanisms=_mechanism_axis(mechanisms),
        metrics=[
            (
                "spatial-distortion:match_by_user=false",
                "point-retention",
                "trip-length-error",
            )
        ],
        worlds=["world"],
        seeds=tuple(seeds),
    )
    rows = _ENGINE.run(spec, worlds={"world": world})
    return _project(
        rows,
        _with_seed_column(
            [
                ("mechanism", _col("mechanism")),
                ("mean_m", _col("mean_m")),
                ("median_m", _col("median_m")),
                ("p95_m", _col("p95_m")),
                ("max_m", _col("max_m")),
                ("point_retention", _col("point_retention")),
                ("trip_length_error", _col("trip_length_error")),
            ],
            seeds,
        ),
    )


# ---------------------------------------------------------------------------
# E3 — area coverage
# ---------------------------------------------------------------------------


def run_area_coverage(
    world: SyntheticWorld,
    mechanisms: Optional[MechanismMap] = None,
    cell_sizes_m: Sequence[float] = (100.0, 200.0, 400.0, 800.0),
) -> List[Dict[str, object]]:
    """Experiment E3: cell-cover F-score per mechanism and cell size."""
    spec = ExperimentSpec(
        name="e3-area-coverage",
        mechanisms=_mechanism_axis(mechanisms),
        metrics=[f"area-coverage:cell_size_m={float(size)!r}" for size in cell_sizes_m],
        worlds=["world"],
    )
    rows = _ENGINE.run(spec, worlds={"world": world})
    return _project(
        rows,
        [
            ("mechanism", _col("mechanism")),
            ("cell_size_m", _col("cell_size_m")),
            ("precision", _col("precision")),
            ("recall", _col("recall")),
            ("f_score", _col("f_score")),
        ],
    )


# ---------------------------------------------------------------------------
# E4 — re-identification
# ---------------------------------------------------------------------------


def run_reidentification(
    world: SyntheticWorld,
    train_fraction: float = 0.5,
    match_distance_m: float = 250.0,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Experiment E4: re-identification rate with and without swapping.

    The attacker's knowledge comes from the first (raw) half of the data; the
    second half is published through each variant.  Variants compare plain
    pseudonymisation, smoothing, and the full pipeline under the three swap
    policies, isolating the contribution of trajectory swapping.

    Two attackers are reported: the POI-matching attacker (defeated as soon as
    POIs are hidden) and the spatial-footprint attacker (only defeated when
    user segments are actually mixed by the swapping step).
    """
    variants: List[Tuple[str, str]] = [
        ("pseudonyms-only", f"pseudonyms:seed={seed}"),
        ("smoothing+pseudonyms", f"smoothing:epsilon_m=100.0|pseudonyms:seed={seed}"),
    ]
    for policy in (SwapPolicy.NEVER, SwapPolicy.COIN_FLIP, SwapPolicy.ALWAYS):
        variants.append(
            (
                f"paper-full(swap={policy.value})",
                f"promesse:swap={policy.value},seed={seed}",
            )
        )
    attack_spec = (
        f"reident:train_fraction={train_fraction!r},"
        f"match_distance_m={match_distance_m!r}"
    )
    spec = ExperimentSpec(
        name="e4-reidentification",
        mechanisms=variants,
        attacks=[("reident", attack_spec)],
        worlds=["world"],
        input=f"publish-half:train_fraction={train_fraction!r}",
    )
    rows = _ENGINE.run(spec, worlds={"world": world})
    return _project(
        rows,
        [
            ("variant", _col("mechanism")),
            ("poi_attack_rate", _col("poi_attack_rate")),
            ("footprint_attack_rate", _col("footprint_attack_rate")),
            ("published_users", _col("published_users")),
            ("n_zones", _col("n_zones")),
            ("n_swaps", _col("n_swaps")),
        ],
    )


# ---------------------------------------------------------------------------
# E5 / E8 — tracking confusion and mix-zone statistics
# ---------------------------------------------------------------------------


def run_tracking(
    world: SyntheticWorld,
    zone_radii_m: Sequence[float] = (50.0, 100.0, 200.0),
    policy: SwapPolicy = SwapPolicy.ALWAYS,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Experiment E5: multi-target tracking success versus mix-zone radius."""
    radii = [float(radius) for radius in zone_radii_m]
    spec = ExperimentSpec(
        name="e5-tracking",
        mechanisms=[
            (
                f"promesse-r{int(radius)}",
                f"promesse:zone_radius_m={radius!r},swap={policy.value},seed={seed}",
            )
            for radius in radii
        ],
        attacks=[("tracking", "tracking")],
        metrics=[("swap-stats", "mixing-entropy")],
        worlds=["world"],
    )
    rows = _ENGINE.run(spec, worlds={"world": world})
    return [
        {
            "zone_radius_m": radius,
            "swap_policy": policy.value,
            "n_zones": row["n_zones"],
            "n_swapped_zones": row["n_swaps"],
            "tracking_success": row["tracking_success"],
            "mixing_entropy_bits": row["mixing_entropy_bits"],
            "suppressed_points": row["suppressed_points"],
        }
        for radius, row in zip(radii, rows)
    ]


def run_mixzone_stats(
    world: SyntheticWorld,
    zone_radii_m: Sequence[float] = (50.0, 100.0, 200.0, 400.0),
) -> List[Dict[str, object]]:
    """Experiment E8: how many natural mix-zones exist at each radius."""
    spec = ExperimentSpec(
        name="e8-mixzone-stats",
        mechanisms=["identity"],
        attacks=[
            (f"zone-census-r{int(radius)}", f"zone-census:radius_m={float(radius)!r}")
            for radius in zone_radii_m
        ],
        worlds=["world"],
    )
    rows = _ENGINE.run(spec, worlds={"world": world})
    return _project(
        rows,
        [
            ("zone_radius_m", _col("zone_radius_m")),
            ("n_zones", _col("n_zones")),
            ("mean_participants", _col("mean_participants")),
            ("max_participants", _col("max_participants")),
            ("mean_entropy_bits", _col("mean_entropy_bits")),
        ],
    )


# ---------------------------------------------------------------------------
# E6 — privacy/utility trade-off frontier
# ---------------------------------------------------------------------------


def run_tradeoff_frontier(
    world: SyntheticWorld,
    match_distance_m: float = 250.0,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Experiment E6: (POI F-score, median distortion) per mechanism and parameter.

    Sweeps the main knob of each mechanism family and reports, for every
    setting, the privacy achieved (POI retrieval F-score, lower is better) and
    the utility cost (median spatial distortion in meters plus area coverage).
    """
    sweeps: List[Tuple[str, str]] = []
    for epsilon_m in (50.0, 100.0, 200.0, 400.0):
        sweeps.append(
            (f"smoothing-eps{int(epsilon_m)}", f"smoothing:epsilon_m={epsilon_m!r}")
        )
    for label, ratio in (
        ("l2-200m", math.log(2.0) / 200.0),
        ("l4-200m", math.log(4.0) / 200.0),
        ("l10-200m", math.log(10.0) / 200.0),
    ):
        sweeps.append(
            (f"geo-ind-{label}", f"geo-ind:epsilon_per_m={ratio!r},seed={seed}")
        )
    for k, delta in ((2, 250.0), (4, 500.0), (8, 1000.0)):
        sweeps.append(
            (f"wait4me-k{k}-d{int(delta)}", f"wait4me:k={k},delta_m={delta!r},seed={seed}")
        )
    sweeps.append(("paper-full", f"promesse:swap=coin_flip,seed={seed}"))
    sweeps.append(("raw", "identity"))

    attack_spec = (
        f"poi-retrieval:algorithm=staypoint,match_distance_m={match_distance_m!r},"
        "adaptive=false,prefix=poi_"
    )
    spec = ExperimentSpec(
        name="e6-tradeoff-frontier",
        mechanisms=sweeps,
        attacks=[("staypoint", attack_spec)],
        metrics=[
            (
                "spatial-distortion:match_by_user=false",
                "area-coverage:cell_size_m=200.0,prefix=cov_",
                "point-retention",
                f"range-query:n_queries=100,seed={seed}",
            )
        ],
        worlds=["world"],
    )
    rows = _ENGINE.run(spec, worlds={"world": world})
    return _project(
        rows,
        [
            ("mechanism", _col("mechanism")),
            ("poi_f_score", _col("poi_f_score")),
            ("poi_recall", _col("poi_recall")),
            ("median_distortion_m", _col("median_m")),
            ("area_coverage_f", _col("cov_f_score")),
            ("point_retention", _col("point_retention")),
            ("range_query_error", _col("range_query_error")),
        ],
    )
