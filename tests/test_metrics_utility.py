"""Tests for the utility metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.geo_indistinguishability import GeoIndConfig, GeoIndistinguishabilityMechanism
from repro.core.speed_smoothing import smooth_dataset
from repro.core.trajectory import MobilityDataset, Trajectory
from repro.geo.grid import Grid
from repro.metrics.utility import (
    CoverageScore,
    DistortionSummary,
    area_coverage,
    dataset_spatial_distortion,
    point_retention,
    range_query_distortion,
    trajectory_spatial_distortion,
    trajectory_spatial_distortion_reference,
    trip_length_error,
)

from .conftest import CANDIDATE_PATHS, LYON_LAT, LYON_LON, assert_bitwise, hidden_scipy



class TestDistortionSummary:
    def test_from_empty(self):
        summary = DistortionSummary.from_distances(np.array([]))
        assert summary.n_points == 0
        assert summary.mean == 0.0

    def test_statistics(self):
        summary = DistortionSummary.from_distances(np.array([0.0, 10.0, 20.0, 30.0]))
        assert summary.mean == 15.0
        assert summary.median == 15.0
        assert summary.max == 30.0
        assert summary.n_points == 4


class TestTrajectoryDistortion:
    def test_identical_trajectory_has_zero_distortion(self, line_trajectory):
        distances = trajectory_spatial_distortion(line_trajectory, line_trajectory)
        np.testing.assert_allclose(distances, 0.0, atol=1e-6)

    def test_offset_trajectory_measures_the_offset(self, line_trajectory):
        offset_deg = 300.0 / 111_195.0
        shifted = Trajectory(
            "u", line_trajectory.timestamps, np.asarray(line_trajectory.lats) + offset_deg, line_trajectory.lons
        )
        distances = trajectory_spatial_distortion(line_trajectory, shifted)
        np.testing.assert_allclose(distances, 300.0, rtol=0.02)

    def test_empty_original_raises(self, line_trajectory):
        with pytest.raises(ValueError):
            trajectory_spatial_distortion(Trajectory.empty("u"), line_trajectory)

    def test_empty_published_gives_empty(self, line_trajectory):
        assert trajectory_spatial_distortion(line_trajectory, Trajectory.empty("u")).size == 0


class TestDatasetDistortion:
    def test_smoothing_has_low_distortion(self, small_dataset):
        published = smooth_dataset(small_dataset, epsilon_m=100.0)
        summary = dataset_spatial_distortion(small_dataset, published)
        assert summary.median < 50.0

    def test_noise_has_high_distortion(self, small_dataset):
        noisy = GeoIndistinguishabilityMechanism(GeoIndConfig(seed=0)).publish(small_dataset).dataset
        noisy_summary = dataset_spatial_distortion(small_dataset, noisy)
        smooth_summary = dataset_spatial_distortion(small_dataset, smooth_dataset(small_dataset))
        assert noisy_summary.median > smooth_summary.median

    def test_match_by_user_variant(self, small_dataset):
        published = smooth_dataset(small_dataset, epsilon_m=100.0)
        summary = dataset_spatial_distortion(small_dataset, published, match_by_user=True)
        assert summary.n_points == published.n_points
        assert summary.median < 100.0

    def test_empty_original_raises(self, small_dataset):
        with pytest.raises(ValueError):
            dataset_spatial_distortion(MobilityDataset(), small_dataset)


@st.composite
def matched_worlds(draw):
    """(original, published) datasets exercising the per-user distortion edge cases.

    Originals random-walk with steps from centimetres to kilometres and may
    repeat vertices, hold one vertex, or jump a long gap.  Published fixes
    sit exactly on first, interior and last vertices, near the path, or far
    off it (Geo-I-like noise); some published users are absent from the
    original, some published trajectories are empty.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m_per_deg = 111_195.0
    originals, published = [], []
    for u in range(draw(st.integers(1, 4))):
        n = int(rng.choice([1, 2, int(rng.integers(3, 40))]))
        steps_m = rng.choice([0.05, 15.0, 400.0], size=n) * rng.standard_normal((2, n))
        if n > 2 and rng.random() < 0.5:
            steps_m[:, rng.integers(1, n)] += rng.uniform(-15_000.0, 15_000.0, 2)
        lats = LYON_LAT + np.cumsum(steps_m[0]) / m_per_deg
        lons = LYON_LON + np.cumsum(steps_m[1]) / (m_per_deg * np.cos(np.radians(LYON_LAT)))
        if n > 1 and rng.random() < 0.5:
            dup = rng.integers(0, n, size=rng.integers(1, n + 1))
            lats[dup[1:]], lons[dup[1:]] = lats[dup[0]], lons[dup[0]]
        originals.append(Trajectory(f"u{u}", np.arange(n) * 30.0, lats, lons))
    for u in range(len(originals) + 1):  # the last published user has no original
        ref = originals[min(u, len(originals) - 1)]
        k = int(rng.choice([0, int(rng.integers(1, 30))]))
        vertex = rng.choice([0, len(ref) - 1, int(rng.integers(0, len(ref)))], size=k)
        noise_m = rng.choice([0.0, 0.0, 2.0, 300.0, 20_000.0], size=k) * rng.standard_normal((2, k))
        lats = ref.lats[vertex] + noise_m[0] / m_per_deg
        lons = ref.lons[vertex] + noise_m[1] / m_per_deg
        published.append(Trajectory(f"u{u}", np.arange(k) * 10.0, lats, lons))
    return MobilityDataset(originals), MobilityDataset(published)


class TestDistortionKernelEquivalence:
    @pytest.mark.parametrize("hide_scipy", CANDIDATE_PATHS)
    @settings(max_examples=100, deadline=None)
    @given(world=matched_worlds())
    def test_per_user_distortion_matches_reference_bitwise(self, hide_scipy, world):
        original, published = world
        expected = [
            trajectory_spatial_distortion_reference(original[t.user_id], t)
            for t in published
            if t.user_id in original and len(t)
        ]
        with hidden_scipy(hide_scipy):
            summary = dataset_spatial_distortion(original, published, match_by_user=True)
            actual = [
                trajectory_spatial_distortion(original[t.user_id], t)
                for t in published
                if t.user_id in original and len(t)
            ]
        for got, want in zip(actual, expected):
            assert_bitwise(got, want)
        assert summary == DistortionSummary.from_distances(
            np.concatenate(expected) if expected else np.zeros(0)
        )

    @pytest.fixture(scope="class")
    def smoothed_world(self, small_world):
        """The smoothed small world and its scalar-oracle distances.

        The oracle is quadratic over the whole world, so it is computed once
        and shared by every candidate path below.
        """
        original = small_world.dataset
        published = smooth_dataset(original, epsilon_m=100.0)
        expected = np.concatenate([
            trajectory_spatial_distortion_reference(original[t.user_id], t)
            for t in published
            if len(t)
        ])
        return original, published, expected

    @pytest.mark.parametrize("hide_scipy", CANDIDATE_PATHS)
    def test_smoothed_world_matches_reference_bitwise(self, hide_scipy, smoothed_world):
        original, published, expected = smoothed_world
        with hidden_scipy(hide_scipy):
            summary = dataset_spatial_distortion(original, published, match_by_user=True)
        assert summary == DistortionSummary.from_distances(expected)


class TestAreaCoverage:
    def test_matches_the_set_of_cells_cover(self):
        rng = np.random.default_rng(3)
        original = MobilityDataset([
            Trajectory("a", np.arange(300.0), LYON_LAT + rng.normal(0, 0.01, 300),
                       LYON_LON + rng.normal(0, 0.01, 300)),
        ])
        for spread in (0.001, 0.01, 0.05):  # the widest lands far outside the grid
            published = MobilityDataset([
                Trajectory("a", np.arange(400.0), LYON_LAT + rng.normal(0, spread, 400),
                           LYON_LON + rng.normal(0, spread, 400)),
            ])
            for cell_size_m in (50.0, 200.0, 800.0):
                grid = Grid.covering(original.bbox.expanded(cell_size_m), cell_size_m)
                expected = CoverageScore.from_covers(
                    grid.cell_cover(*original.all_coordinates()),
                    grid.cell_cover(*published.all_coordinates()),
                )
                assert area_coverage(original, published, cell_size_m=cell_size_m) == expected

    def test_identical_datasets_have_perfect_coverage(self, small_dataset):
        score = area_coverage(small_dataset, small_dataset, cell_size_m=200.0)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.f_score == 1.0

    def test_empty_published_has_zero_recall(self, small_dataset):
        score = area_coverage(small_dataset, MobilityDataset(), cell_size_m=200.0)
        assert score.recall == 0.0
        assert score.f_score == 0.0

    def test_from_covers_edge_cases(self):
        assert CoverageScore.from_covers(set(), set()).f_score == 1.0
        assert CoverageScore.from_covers({(0, 0)}, set()).recall == 0.0
        assert CoverageScore.from_covers(set(), {(0, 0)}).precision == 0.0

    def test_smoothing_keeps_high_coverage(self, small_dataset):
        published = smooth_dataset(small_dataset, epsilon_m=100.0)
        score = area_coverage(small_dataset, published, cell_size_m=400.0)
        assert score.recall > 0.7

    def test_empty_original_raises(self, small_dataset):
        with pytest.raises(ValueError):
            area_coverage(MobilityDataset(), small_dataset)


class TestOtherMetrics:
    def test_point_retention(self, small_dataset):
        assert point_retention(small_dataset, small_dataset) == 1.0
        assert point_retention(small_dataset, MobilityDataset()) == 0.0
        assert point_retention(MobilityDataset(), MobilityDataset()) == 0.0

    def test_trip_length_error_zero_for_identity(self, small_dataset):
        assert trip_length_error(small_dataset, small_dataset) == 0.0

    def test_trip_length_error_for_empty_publication(self, small_dataset):
        assert trip_length_error(small_dataset, MobilityDataset()) == 1.0

    def test_range_query_distortion_zero_for_identity(self, small_dataset):
        error = range_query_distortion(small_dataset, small_dataset, n_queries=50, seed=1)
        assert error == 0.0

    def test_range_query_distortion_positive_for_noise(self, small_dataset):
        noisy = GeoIndistinguishabilityMechanism(GeoIndConfig(seed=0)).publish(small_dataset).dataset
        error = range_query_distortion(small_dataset, noisy, n_queries=50, seed=1)
        assert error > 0.0

    def test_range_query_requires_queries(self, small_dataset):
        with pytest.raises(ValueError):
            range_query_distortion(small_dataset, small_dataset, n_queries=0)
