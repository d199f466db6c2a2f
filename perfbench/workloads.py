"""The benchmark's three workloads: what each sweep runs, and why.

Every workload is a function of the workload seed, which seeds the worlds;
the mechanism seed axis stays ``(0,)``.  The program receives only the
generated inputs: world spec strings and :class:`ExperimentSpec` values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments import DEFAULT_MECHANISM_SPECS, ExperimentSpec

DEFAULT_SEED = 42

#: The E4 variants of ``run_reidentification`` at mechanism seed 0.
REIDENT_VARIANTS: List[Tuple[str, str]] = [
    ("pseudonyms-only", "pseudonyms:seed=0"),
    ("smoothing+pseudonyms", "smoothing:epsilon_m=100.0|pseudonyms:seed=0"),
] + [
    (f"paper-full(swap={policy})", f"promesse:swap={policy},seed=0")
    for policy in ("never", "coin_flip", "always")
]

PUBLISH_HALF = "publish-half:train_fraction=0.5"

UTILITY_GROUP = (
    "spatial-distortion:match_by_user=false",
    "spatial-distortion:match_by_user=true,prefix=user_",
    "point-retention",
    "trip-length-error",
    "range-query:n_queries=100,seed=0",
)


@dataclass(frozen=True)
class Workload:
    """One named set of inputs: worlds, specs and the engine a user would type."""

    name: str
    why: str
    worlds: Tuple[str, ...]
    specs: Tuple[ExperimentSpec, ...]
    workers: int = 1
    sqlite_cache: bool = False


def _e4_prime(crossing: str) -> ExperimentSpec:
    return ExperimentSpec(
        name="e4-prime",
        mechanisms=REIDENT_VARIANTS,
        attacks=["reident", "zone-census:radius_m=100.0", "poi-retrieval:algorithm=djcluster"],
        worlds=[crossing],
        input=PUBLISH_HALF,
    )


def privacy_batch(seed: int, scale: str = "medium") -> Workload:
    standard = f"standard:scale={scale},seed={seed}"
    crossing = f"crossing:scale={scale},seed={seed}"
    e1 = ExperimentSpec(
        name="e1",
        mechanisms=list(DEFAULT_MECHANISM_SPECS.items()),
        attacks=["poi-retrieval:algorithm=staypoint", "poi-retrieval:algorithm=djcluster"],
        worlds=[standard],
    )
    e5 = ExperimentSpec(
        name="e5",
        mechanisms=[
            (f"promesse-r{int(radius)}", f"promesse:zone_radius_m={radius!r},swap=always")
            for radius in (50.0, 100.0, 200.0)
        ],
        attacks=["tracking"],
        metrics=[("swap-stats", "mixing-entropy")],
        worlds=[crossing],
    )
    return Workload(
        name="privacy-batch",
        why=(
            "serial batch publish and attacks on two medium worlds; "
            "the publish and batch-attack layers do nearly all the work"
        ),
        worlds=(standard, crossing),
        specs=(e1, _e4_prime(crossing), e5),
    )


def privacy_stream(seed: int, scale: str = "medium") -> Workload:
    crossing = f"crossing:scale={scale},seed={seed}"
    return Workload(
        name="privacy-stream",
        why=(
            "the E4' inputs replayed through repro.streaming; "
            "batch attacks do no work, so a batch-kernel gain must not show"
        ),
        worlds=(crossing,),
        specs=(dataclasses.replace(_e4_prime(crossing), mode="stream"),),
    )


def utility_fanout(seed: int, scale: str = "small") -> Workload:
    world = f"standard:scale={scale},seed={seed}"
    spec = ExperimentSpec(
        name="utility",
        mechanisms=list(DEFAULT_MECHANISM_SPECS.items()),
        metrics=[UTILITY_GROUP]
        + [f"area-coverage:cell_size_m={size}" for size in (100, 200, 400, 800)],
        worlds=[world],
        seeds=(0, 1, 2),
    )
    return Workload(
        name="utility-fanout",
        why=(
            "metrics over a small world on workers=2 with a sqlite cell cache; "
            "the only workload where metrics, backend and cache do real work"
        ),
        worlds=(world,),
        specs=(spec,),
        workers=2,
        sqlite_cache=True,
    )


WORKLOADS = {
    "privacy-batch": privacy_batch,
    "privacy-stream": privacy_stream,
    "utility-fanout": utility_fanout,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def warmup(name: str) -> Workload:
    """The workload's specs on tiny worlds: loads every code path, measures nothing."""
    return WORKLOADS[name](DEFAULT_SEED, "tiny")
