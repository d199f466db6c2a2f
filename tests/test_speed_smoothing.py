"""Tests for the speed-smoothing mechanism (the paper's first contribution)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.poi_extraction import PoiExtractor
from repro.core.speed_smoothing import (
    SpeedSmoother,
    SpeedSmoothingConfig,
    smooth_dataset,
    smooth_trajectory,
    smooth_trajectory_naive,
)
from repro.core.trajectory import MobilityDataset, Trajectory
from repro.geo.distance import haversine

from .conftest import make_line_trajectory, make_stop_and_go_trajectory


def consecutive_distances(traj: Trajectory) -> np.ndarray:
    return traj.segment_distances()


class TestConfig:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SpeedSmoothingConfig(epsilon_m=0.0)
        with pytest.raises(ValueError):
            SpeedSmoothingConfig(trim_start_m=-1.0)
        with pytest.raises(ValueError):
            SpeedSmoothingConfig(min_points=1)
        with pytest.raises(ValueError):
            SpeedSmoothingConfig(session_gap_s=0.0)

    def test_session_gap_can_be_disabled(self):
        assert SpeedSmoothingConfig(session_gap_s=None).session_gap_s is None


class TestConstantSpeedInvariants:
    def test_constant_spacing(self, stop_and_go_trajectory):
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        gaps = consecutive_distances(smoothed)
        np.testing.assert_allclose(gaps, 100.0, rtol=1e-3)

    def test_constant_duration(self, stop_and_go_trajectory):
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        durations = smoothed.segment_durations()
        np.testing.assert_allclose(durations, durations[0], rtol=1e-9)

    def test_time_span_preserved(self, stop_and_go_trajectory):
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        assert smoothed.first.timestamp == stop_and_go_trajectory.first.timestamp
        assert smoothed.last.timestamp == stop_and_go_trajectory.last.timestamp

    def test_constant_speed(self, stop_and_go_trajectory):
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        speeds = smoothed.speeds()
        np.testing.assert_allclose(speeds, speeds[0], rtol=1e-3)

    def test_user_id_preserved(self, stop_and_go_trajectory):
        assert smooth_trajectory(stop_and_go_trajectory).user_id == stop_and_go_trajectory.user_id

    def test_original_not_modified(self, stop_and_go_trajectory):
        before = stop_and_go_trajectory.to_arrays()
        smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        after = stop_and_go_trajectory.to_arrays()
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    @given(epsilon=st.floats(min_value=40.0, max_value=400.0))
    @settings(max_examples=25, deadline=None)
    def test_spacing_equals_epsilon_for_any_epsilon(self, epsilon):
        traj = make_stop_and_go_trajectory()
        smoothed = smooth_trajectory(traj, epsilon_m=epsilon)
        if len(smoothed) >= 2:
            np.testing.assert_allclose(consecutive_distances(smoothed), epsilon, rtol=1e-3)

    def test_points_stay_close_to_recorded_path(self, line_trajectory):
        smoothed = smooth_trajectory(line_trajectory, epsilon_m=120.0)
        # On a straight east-bound line every published point keeps the latitude.
        np.testing.assert_allclose(np.asarray(smoothed.lats), line_trajectory.first.lat, atol=1e-5)


class TestPoiHiding:
    def test_stop_invisible_after_smoothing(self, stop_and_go_trajectory):
        """The central claim of the paper: the stop disappears from the output."""
        extractor = PoiExtractor()
        assert len(extractor.extract(stop_and_go_trajectory)) == 1
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        assert extractor.extract(smoothed) == []

    def test_naive_index_resampling_leaks_the_stop(self, stop_and_go_trajectory):
        """Ablation: index-based resampling does not hide the stop."""
        extractor = PoiExtractor()
        naive = smooth_trajectory_naive(stop_and_go_trajectory, keep_every=5)
        assert len(extractor.extract(naive)) >= 1

    def test_naive_parameters_validated(self, stop_and_go_trajectory):
        with pytest.raises(ValueError):
            smooth_trajectory_naive(stop_and_go_trajectory, keep_every=0)
        assert len(smooth_trajectory_naive(Trajectory.empty("u"), keep_every=2)) == 0


class TestEdgeCases:
    def test_too_short_trajectory_suppressed(self):
        single = Trajectory("u", [0.0], [45.0], [4.0])
        assert len(smooth_trajectory(single)) == 0

    def test_stationary_trajectory_suppressed(self):
        # 30 minutes sitting still: nothing can be published safely.
        times = np.arange(0.0, 1800.0, 30.0)
        still = Trajectory("u", times, np.full(times.size, 45.0), np.full(times.size, 4.0))
        assert len(smooth_trajectory(still, epsilon_m=100.0)) == 0

    def test_trimming_removes_endpoints(self, line_trajectory):
        plain = smooth_trajectory(line_trajectory, epsilon_m=100.0)
        trimmed = smooth_trajectory(
            line_trajectory, epsilon_m=100.0, trim_start_m=200.0, trim_end_m=200.0
        )
        assert len(trimmed) == len(plain) - 4
        # The trimmed trace starts away from the original departure point.
        d = haversine(
            trimmed.first.lat, trimmed.first.lon, line_trajectory.first.lat, line_trajectory.first.lon
        )
        assert d >= 199.0

    def test_trimming_past_the_end_suppresses_the_session(self):
        # Trimming more points than were emitted suppresses the session: a
        # wrapped negative end index would publish 4 and 3 points at 550 and
        # 650 m, more than the 0 published at 450 m.
        line = make_line_trajectory(n_points=6, spacing_m=99.9)
        smoother = SpeedSmoother(SpeedSmoothingConfig(epsilon_m=100.0))
        assert len(smoother.smooth(line)) == 5
        for trim_end_m in (450.0, 550.0, 650.0):
            smoother = SpeedSmoother(SpeedSmoothingConfig(epsilon_m=100.0, trim_end_m=trim_end_m))
            assert len(smoother.smooth(line)) == 0, trim_end_m
            assert len(smoother.smooth_reference(line)) == 0, trim_end_m

    def test_sessions_smoothed_independently(self):
        """A long recording gap keeps its two sides' time ranges separate."""
        first = make_line_trajectory(n_points=50, start_time=0.0, interval_s=10.0)
        second = make_line_trajectory(n_points=50, start_time=100_000.0, interval_s=10.0, bearing_deg=0.0)
        combined = first.append(second)
        smoothed = smooth_trajectory(combined, epsilon_m=100.0, session_gap_s=3600.0)
        gaps = smoothed.segment_durations()
        # One published gap spans the recording hole; all others are short.
        assert np.sum(gaps > 10_000.0) == 1
        assert smoothed.first.timestamp == 0.0
        assert smoothed.last.timestamp == combined.last.timestamp

    def test_empty_dataset_smoothing(self):
        assert len(smooth_dataset(MobilityDataset())) == 0


class TestDatasetSmoothing:
    def test_drop_empty_users(self):
        good = make_stop_and_go_trajectory(user_id="good")
        still_times = np.arange(0.0, 1800.0, 30.0)
        still = Trajectory("still", still_times, np.full(still_times.size, 45.0), np.full(still_times.size, 4.0))
        dataset = MobilityDataset([good, still])
        published = SpeedSmoother().smooth_dataset(dataset)
        assert published.user_ids == ["good"]
        kept = SpeedSmoother().smooth_dataset(dataset, drop_empty=False)
        assert len(kept) == 2
        assert len(kept["still"]) == 0

    def test_smooth_dataset_function(self, small_dataset):
        published = smooth_dataset(small_dataset, epsilon_m=150.0)
        assert len(published) > 0
        assert published.n_points < small_dataset.n_points
