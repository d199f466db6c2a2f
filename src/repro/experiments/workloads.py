"""Standard workloads used by the examples, tests and benchmarks.

Every experiment (E1-E8, README "Running the evaluation") runs on one of the
workloads defined here so that results are comparable across benchmarks and
reproducible from a single seed.  Three scales are provided:

* ``tiny``   — 2 users, 1 day: the Figure 1 scenario and fast unit tests;
* ``small``  — 12 users, 3 days: integration tests and quick local runs;
* ``medium`` — 40 users, 7 days: the default evaluation workload (E1-E8).

``crossing_rich_world`` builds a variant in which users share workplaces and
transit hubs aggressively, maximising natural path crossings; it is the
workload of the mix-zone experiments (E4, E5, E8).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.trajectory import MobilityDataset
from ..datagen.city import CityConfig
from ..datagen.mobility import SimulationConfig, SyntheticWorld, generate_world
from ..datagen.noise import GpsNoiseConfig
from ..datagen.schedule import ScheduleConfig

__all__ = [
    "WORKLOAD_SCALES",
    "standard_world",
    "crossing_rich_world",
    "figure1_world",
    "split_train_publish",
]


#: (n_users, n_days) per named scale.
WORKLOAD_SCALES: Dict[str, Tuple[int, int]] = {
    "tiny": (2, 1),
    "small": (12, 3),
    "medium": (40, 7),
    "large": (120, 7),
}


def standard_world(scale: str = "small", seed: int = 42) -> SyntheticWorld:
    """The standard evaluation workload at a named scale.

    Uses a mid-size city, 30-second sampling and consumer-GPS noise; these are
    the GeoLife-like characteristics the synthetic substitute for GeoLife
    commits to (README "Running the evaluation").
    """
    if scale not in WORKLOAD_SCALES:
        raise ValueError(f"unknown workload scale {scale!r}; choose from {sorted(WORKLOAD_SCALES)}")
    n_users, n_days = WORKLOAD_SCALES[scale]
    return generate_world(
        n_users=n_users,
        n_days=n_days,
        seed=seed,
        city_config=CityConfig(),
        schedule_config=ScheduleConfig(),
        simulation_config=SimulationConfig(sampling_interval_s=30.0),
        noise_config=GpsNoiseConfig(horizontal_error_m=5.0, dropout_probability=0.02, seed=seed),
    )


def crossing_rich_world(scale: str = "small", seed: int = 42) -> SyntheticWorld:
    """A workload engineered to contain many natural path crossings.

    The city has few workplaces and transit hubs relative to the population
    and every user commutes through a hub, so users constantly meet — the
    regime in which the mix-zone mechanism has material to work with.
    """
    if scale not in WORKLOAD_SCALES:
        raise ValueError(f"unknown workload scale {scale!r}; choose from {sorted(WORKLOAD_SCALES)}")
    n_users, n_days = WORKLOAD_SCALES[scale]
    return generate_world(
        n_users=n_users,
        n_days=n_days,
        seed=seed,
        city_config=CityConfig(
            size_m=5000.0,
            street_spacing_m=500.0,
            n_homes=max(n_users, 10),
            n_workplaces=3,
            n_leisure=6,
            n_transit_hubs=2,
        ),
        schedule_config=ScheduleConfig(transit_commuter_fraction=1.0),
        simulation_config=SimulationConfig(sampling_interval_s=30.0),
        noise_config=GpsNoiseConfig(horizontal_error_m=5.0, dropout_probability=0.02, seed=seed),
    )


def figure1_world(seed_search_range: int = 50) -> SyntheticWorld:
    """The Figure 1 scenario: two users whose commutes naturally cross.

    The city is configured with a single workplace and a single transit hub
    and both users commute through it, so their trajectories contain two POIs
    each and (at least) one natural meeting point — exactly the situation the
    paper's only figure illustrates.  A few seeds are tried because the
    schedule randomisation occasionally keeps the two commutes from
    overlapping in time; the first seed producing a detectable crossing wins,
    which keeps the function deterministic.
    """
    from ..mixzones.detection import MixZoneDetector

    city_config = CityConfig(
        size_m=4000.0,
        street_spacing_m=500.0,
        n_homes=6,
        n_workplaces=1,
        n_leisure=3,
        n_transit_hubs=1,
    )
    schedule_config = ScheduleConfig(
        transit_commuter_fraction=1.0, evening_leisure_probability=0.0
    )
    detector = MixZoneDetector()
    for seed in range(1, seed_search_range + 1):
        world = generate_world(
            n_users=2,
            n_days=1,
            seed=seed,
            city_config=city_config,
            schedule_config=schedule_config,
        )
        if detector.detect(world.dataset):
            return world
    raise RuntimeError(
        "no seed produced a natural crossing; increase seed_search_range"
    )


def split_train_publish(
    world: SyntheticWorld, train_fraction: float = 0.5
) -> Tuple[MobilityDataset, MobilityDataset]:
    """Split a world's dataset in time into (training, to-be-published) halves.

    The training half models the attacker's background knowledge (an earlier,
    non-anonymized release); the second half is what the mechanism under test
    publishes.  Used by the re-identification experiment (E4).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    t_min, t_max = world.dataset.time_span
    cut = t_min + train_fraction * (t_max - t_min)
    training = world.dataset.slice_time(t_min, cut).without_empty()
    publish = world.dataset.slice_time(cut, t_max).without_empty()
    return training, publish
