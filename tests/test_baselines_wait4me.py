"""Tests for the Wait-For-Me (k, delta)-anonymity baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.wait4me import Wait4MeConfig, Wait4MeMechanism
from repro.core.trajectory import MobilityDataset
from repro.geo.projection import LocalProjection

from .conftest import make_line_trajectory


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            Wait4MeConfig(k=1)
        with pytest.raises(ValueError):
            Wait4MeConfig(delta_m=0.0)
        with pytest.raises(ValueError):
            Wait4MeConfig(time_step_s=0.0)
        with pytest.raises(ValueError):
            Wait4MeConfig(max_cluster_radius_m=0.0)


def parallel_users(n: int, offset_m: float = 100.0) -> MobilityDataset:
    """n users walking the same eastward line, offset north by multiples of offset_m."""
    base = make_line_trajectory(user_id="u0", n_points=60, spacing_m=50.0, interval_s=30.0)
    trajectories = [base]
    for i in range(1, n):
        lats = np.asarray(base.lats) + i * offset_m / 111_195.0
        trajectories.append(
            base.with_user_id(f"u{i}").__class__(f"u{i}", base.timestamps, lats, base.lons)
        )
    return MobilityDataset(trajectories)


class TestAnonymization:
    def test_fewer_users_than_k_publishes_nothing(self):
        dataset = parallel_users(2)
        published = Wait4MeMechanism(Wait4MeConfig(k=4)).publish(dataset).dataset
        assert len(published) == 0

    def test_close_users_are_all_published(self):
        dataset = parallel_users(4, offset_m=100.0)
        published = Wait4MeMechanism(Wait4MeConfig(k=4, delta_m=500.0, time_step_s=60.0)).publish(dataset).dataset
        assert set(published.user_ids) == set(dataset.user_ids)

    def test_k_delta_property_holds(self):
        """At every synchronized instant, every published user has k-1 companions within delta."""
        dataset = parallel_users(4, offset_m=150.0)
        config = Wait4MeConfig(k=4, delta_m=400.0, time_step_s=60.0)
        published = Wait4MeMechanism(config).publish(dataset).dataset
        assert len(published) == 4
        # All published trajectories share the same synchronized grid, so the
        # i-th point of each user is simultaneous.
        lengths = {len(t) for t in published}
        assert len(lengths) == 1
        projection = LocalProjection.centered_on(*published.all_coordinates())
        coords = []
        for traj in published:
            xs, ys = projection.project_array(np.asarray(traj.lats), np.asarray(traj.lons))
            coords.append(np.stack([xs, ys], axis=1))
        stack = np.stack(coords, axis=0)  # (users, steps, 2)
        for step in range(stack.shape[1]):
            points = stack[:, step, :]
            pairwise = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
            assert pairwise.max() <= config.delta_m + 1.0

    def test_distant_outlier_is_trashed(self):
        dataset = parallel_users(4, offset_m=100.0)
        outlier = make_line_trajectory(user_id="far", n_points=60, spacing_m=50.0, interval_s=30.0)
        far_lats = np.asarray(outlier.lats) + 0.5  # ~55 km north
        outlier = outlier.__class__("far", outlier.timestamps, far_lats, outlier.lons)
        dataset = dataset.merge(MobilityDataset([outlier]))
        published = Wait4MeMechanism(
            Wait4MeConfig(k=4, delta_m=500.0, max_cluster_radius_m=5_000.0, time_step_s=60.0)
        ).publish(dataset).dataset
        assert "far" not in published
        assert len(published) == 4

    def test_published_points_move_at_most_toward_centroid(self):
        """Space translation shrinks the spread: no published user ends farther from the centroid."""
        dataset = parallel_users(4, offset_m=300.0)
        config = Wait4MeConfig(k=4, delta_m=200.0, time_step_s=60.0)
        published = Wait4MeMechanism(config).publish(dataset).dataset
        assert len(published) == 4
        projection = LocalProjection.centered_on(*published.all_coordinates())
        coords = []
        for traj in published:
            xs, ys = projection.project_array(np.asarray(traj.lats), np.asarray(traj.lons))
            coords.append(np.stack([xs, ys], axis=1))
        stack = np.stack(coords, axis=0)
        centroid = stack.mean(axis=0)
        radii = np.sqrt(((stack - centroid[None, :, :]) ** 2).sum(axis=2))
        assert radii.max() <= config.delta_m / 2.0 + 1.0

    def test_runs_on_realistic_workload(self, small_dataset):
        published = Wait4MeMechanism(Wait4MeConfig(k=3, delta_m=800.0)).publish(small_dataset).dataset
        assert 0 < len(published) <= len(small_dataset)
        assert published.n_points > 0
