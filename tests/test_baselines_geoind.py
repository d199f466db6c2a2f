"""Tests for the Geo-Indistinguishability baseline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.geo_indistinguishability import (
    GeoIndConfig,
    GeoIndistinguishabilityMechanism,
    planar_laplace_noise,
)
from repro.core.trajectory import Trajectory
from repro.geo.distance import haversine_array

from .conftest import make_line_trajectory


class TestPlanarLaplaceNoise:
    def test_invalid_epsilon_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            planar_laplace_noise(0.0, 10, rng)
        with pytest.raises(ValueError):
            GeoIndConfig(epsilon_per_m=-1.0)

    def test_shape(self):
        rng = np.random.default_rng(0)
        noise = planar_laplace_noise(0.01, 500, rng)
        assert noise.shape == (500, 2)

    def test_mean_radius_matches_theory(self):
        """The radial component of the planar Laplace has mean 2 / epsilon."""
        rng = np.random.default_rng(0)
        epsilon = 0.01
        noise = planar_laplace_noise(epsilon, 50_000, rng)
        radii = np.hypot(noise[:, 0], noise[:, 1])
        assert radii.mean() == pytest.approx(2.0 / epsilon, rel=0.03)

    def test_isotropic(self):
        rng = np.random.default_rng(1)
        noise = planar_laplace_noise(0.01, 50_000, rng)
        # Mean offset should be near zero in both axes.
        assert abs(noise[:, 0].mean()) < 5.0
        assert abs(noise[:, 1].mean()) < 5.0


class TestMechanism:
    def test_preserves_structure(self, line_trajectory):
        mechanism = GeoIndistinguishabilityMechanism(GeoIndConfig(seed=0))
        noisy = mechanism.publish_trajectory(line_trajectory)
        assert len(noisy) == len(line_trajectory)
        assert noisy.user_id == line_trajectory.user_id
        np.testing.assert_array_equal(noisy.timestamps, line_trajectory.timestamps)

    def test_moves_points_by_the_expected_amount(self, line_trajectory):
        epsilon = np.log(4.0) / 200.0
        mechanism = GeoIndistinguishabilityMechanism(GeoIndConfig(epsilon_per_m=epsilon, seed=0))
        noisy = mechanism.publish_trajectory(line_trajectory)
        displacement = haversine_array(
            np.asarray(line_trajectory.lats),
            np.asarray(line_trajectory.lons),
            np.asarray(noisy.lats),
            np.asarray(noisy.lons),
        )
        assert displacement.mean() == pytest.approx(2.0 / epsilon, rel=0.5)
        assert displacement.max() > 0.0

    @given(ratio=st.sampled_from([50.0, 100.0, 200.0, 400.0]))
    @settings(max_examples=4, deadline=None)
    def test_stronger_privacy_means_more_noise(self, ratio):
        traj = make_line_trajectory(n_points=400)
        strong = GeoIndistinguishabilityMechanism(
            GeoIndConfig(epsilon_per_m=np.log(2.0) / ratio, seed=0)
        ).publish_trajectory(traj)
        weak = GeoIndistinguishabilityMechanism(
            GeoIndConfig(epsilon_per_m=np.log(10.0) / ratio, seed=0)
        ).publish_trajectory(traj)
        d_strong = haversine_array(
            np.asarray(traj.lats), np.asarray(traj.lons), np.asarray(strong.lats), np.asarray(strong.lons)
        ).mean()
        d_weak = haversine_array(
            np.asarray(traj.lats), np.asarray(traj.lons), np.asarray(weak.lats), np.asarray(weak.lons)
        ).mean()
        assert d_strong > d_weak

    def test_whole_trace_budget_adds_more_noise(self, line_trajectory):
        per_point = GeoIndistinguishabilityMechanism(
            GeoIndConfig(per_point_budget=True, seed=0)
        ).publish_trajectory(line_trajectory)
        composed = GeoIndistinguishabilityMechanism(
            GeoIndConfig(per_point_budget=False, seed=0)
        ).publish_trajectory(line_trajectory)
        def mean_disp(noisy):
            return haversine_array(
                np.asarray(line_trajectory.lats),
                np.asarray(line_trajectory.lons),
                np.asarray(noisy.lats),
                np.asarray(noisy.lons),
            ).mean()
        assert mean_disp(composed) > mean_disp(per_point)

    def test_empty_trajectory_passthrough(self):
        mechanism = GeoIndistinguishabilityMechanism()
        empty = Trajectory.empty("u")
        assert mechanism.publish_trajectory(empty) is empty

    def test_dataset_publication(self, small_dataset):
        mechanism = GeoIndistinguishabilityMechanism(GeoIndConfig(seed=0))
        published = mechanism.publish(small_dataset).dataset
        assert len(published) == len(small_dataset)
        assert published.n_points == small_dataset.n_points

    def test_coordinates_stay_in_wgs84_bounds(self):
        # Extremely strong privacy produces kilometre-scale noise; outputs must stay valid.
        traj = make_line_trajectory(n_points=200)
        mechanism = GeoIndistinguishabilityMechanism(GeoIndConfig(epsilon_per_m=1e-5, seed=0))
        noisy = mechanism.publish_trajectory(traj)
        assert np.all(np.asarray(noisy.lats) <= 90.0)
        assert np.all(np.asarray(noisy.lats) >= -90.0)
