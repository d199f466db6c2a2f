"""Shared fixtures for the test suite.

The expensive synthetic worlds are session-scoped so the whole suite pays for
their generation once; tests must treat them as read-only (every library
transformation returns new objects, so this is the natural usage anyway).
"""

from __future__ import annotations

import contextlib
import importlib.util
import sys
from unittest import mock

import numpy as np
import pytest

from repro.core.trajectory import MobilityDataset, Trajectory
from repro.datagen.mobility import generate_world
from repro.experiments.workloads import crossing_rich_world, standard_world

#: Reference point used by hand-built trajectories (central Lyon).
LYON_LAT = 45.7640
LYON_LON = 4.8357


#: Both paths of a kernel with an optional scipy index: the scipy path, and
#: the numpy-only path pinned by hiding scipy (use with :func:`hidden_scipy`).
CANDIDATE_PATHS = [
    pytest.param(False, id="indexed", marks=pytest.mark.skipif(
        importlib.util.find_spec("scipy") is None, reason="scipy not installed")),
    pytest.param(True, id="numpy-only"),
]


def hidden_scipy(hide: bool):
    """A context in which ``import scipy.spatial`` fails when ``hide``.

    Not hiding is a null context: ``patch.dict`` restores ``sys.modules`` on
    exit, which would evict a scipy first imported inside the block.
    """
    if not hide:
        return contextlib.nullcontext()
    return mock.patch.dict(sys.modules, {"scipy": None, "scipy.spatial": None})


def assert_bitwise(actual, expected) -> None:
    """Float arrays equal bit for bit (not merely within a tolerance)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64)), (
        np.flatnonzero(actual != expected)
    )


def make_line_trajectory(
    user_id: str = "u1",
    n_points: int = 50,
    spacing_m: float = 50.0,
    interval_s: float = 10.0,
    start_time: float = 1_000_000.0,
    bearing_deg: float = 90.0,
) -> Trajectory:
    """A straight-line trajectory heading east with regular sampling."""
    from repro.geo.distance import destination_point

    lats, lons = [LYON_LAT], [LYON_LON]
    for _ in range(n_points - 1):
        lat, lon = destination_point(lats[-1], lons[-1], bearing_deg, spacing_m)
        lats.append(lat)
        lons.append(lon)
    times = start_time + np.arange(n_points) * interval_s
    return Trajectory(user_id, times, lats, lons)


def make_stop_and_go_trajectory(
    user_id: str = "u1",
    stop_minutes: float = 30.0,
    travel_points: int = 60,
    spacing_m: float = 50.0,
    interval_s: float = 30.0,
    start_time: float = 1_000_000.0,
) -> Trajectory:
    """Travel east, stop (with GPS jitter), then travel east again.

    The stop in the middle is a ground-truth POI that the extraction attack
    should find on this raw trace.
    """
    from repro.geo.distance import destination_point, meters_per_degree

    rng = np.random.default_rng(7)
    times, lats, lons = [], [], []
    t = start_time
    lat, lon = LYON_LAT, LYON_LON
    for _ in range(travel_points):
        times.append(t)
        lats.append(lat)
        lons.append(lon)
        lat, lon = destination_point(lat, lon, 90.0, spacing_m)
        t += interval_s
    stop_lat, stop_lon = lat, lon
    lat_m, lon_m = meters_per_degree(stop_lat)
    n_stop = int(stop_minutes * 60.0 / interval_s)
    for _ in range(n_stop):
        times.append(t)
        lats.append(stop_lat + rng.normal(0.0, 5.0) / lat_m)
        lons.append(stop_lon + rng.normal(0.0, 5.0) / lon_m)
        t += interval_s
    lat, lon = stop_lat, stop_lon
    for _ in range(travel_points):
        times.append(t)
        lats.append(lat)
        lons.append(lon)
        lat, lon = destination_point(lat, lon, 90.0, spacing_m)
        t += interval_s
    return Trajectory(user_id, times, lats, lons)


@pytest.fixture
def line_trajectory() -> Trajectory:
    return make_line_trajectory()


@pytest.fixture
def stop_and_go_trajectory() -> Trajectory:
    return make_stop_and_go_trajectory()


@pytest.fixture(scope="session")
def tiny_world():
    """Two users, one day — the Figure 1 scenario."""
    return generate_world(n_users=2, n_days=1, seed=3)


@pytest.fixture(scope="session")
def small_world():
    """The standard small evaluation workload (12 users, 3 days)."""
    return standard_world("small", seed=42)


@pytest.fixture(scope="session")
def crossing_world():
    """The crossing-rich workload used by mix-zone experiments."""
    return crossing_rich_world("small", seed=42)


@pytest.fixture
def small_dataset(small_world) -> MobilityDataset:
    return small_world.dataset
