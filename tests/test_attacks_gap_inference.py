"""Tests for the recording-gap inference attack (the documented residual leak)."""

from __future__ import annotations

import pytest

from repro.attacks.gap_inference import (
    GapInferenceAttack,
    GapInferenceConfig,
    infer_pois_from_gaps,
)
from repro.core.speed_smoothing import SpeedSmoothingConfig, SpeedSmoother, smooth_dataset
from repro.core.trajectory import Trajectory
from repro.experiments.runner import ground_truth_pois
from repro.geo.distance import haversine
from repro.metrics.privacy import poi_retrieval_pooled

from .conftest import LYON_LAT, LYON_LON, make_line_trajectory


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GapInferenceConfig(min_gap_s=0.0)
        with pytest.raises(ValueError):
            GapInferenceConfig(max_reappear_distance_m=0.0)
        with pytest.raises(ValueError):
            GapInferenceConfig(merge_distance_m=-1.0)


class TestGapInference:
    def test_vanish_and_reappear_is_inferred(self):
        """Trace disappears at a place and reappears there 8 hours later."""
        before = make_line_trajectory(user_id="u", n_points=20, start_time=0.0, interval_s=30.0)
        after = make_line_trajectory(
            user_id="u", n_points=20, start_time=8 * 3600.0, interval_s=30.0, bearing_deg=270.0
        )
        # `after` starts where `before` ended? It starts at the reference point:
        # shift it so both the disappearance and the reappearance sit at the
        # last point of `before`.
        last = before.last
        shifted = Trajectory(
            "u",
            after.timestamps,
            [last.lat + (lat - LYON_LAT) for lat in after.lats],
            [last.lon + (lon - LYON_LON) for lon in after.lons],
        )
        trace = before.append(shifted)
        pois = infer_pois_from_gaps(trace)
        assert len(pois) == 1
        assert haversine(pois[0].lat, pois[0].lon, last.lat, last.lon) < 50.0
        assert pois[0].duration >= 3600.0

    def test_gap_with_far_reappearance_not_inferred(self):
        before = make_line_trajectory(user_id="u", n_points=20, start_time=0.0)
        far = make_line_trajectory(user_id="u", n_points=20, start_time=8 * 3600.0)
        far = Trajectory("u", far.timestamps, [lat + 0.1 for lat in far.lats], far.lons)
        assert infer_pois_from_gaps(before.append(far)) == []

    def test_continuous_trace_yields_nothing(self, line_trajectory):
        assert infer_pois_from_gaps(line_trajectory) == []

    def test_short_trace(self):
        assert GapInferenceAttack().extract(Trajectory.empty("u")) == []

    def test_repeated_gaps_at_same_place_are_merged(self):
        pieces = []
        for day in range(3):
            pieces.append(
                make_line_trajectory(user_id="u", n_points=10, start_time=day * 86_400.0, interval_s=30.0)
            )
        trace = pieces[0]
        for piece in pieces[1:]:
            trace = trace.append(piece)
        # Every day starts at the same reference point, so the overnight gaps
        # all point to the same (home-like) location.
        pois = infer_pois_from_gaps(trace, max_reappear_distance_m=1000.0)
        assert len(pois) == 1


class TestResidualLeakOnProtectedData:
    def test_gap_attack_recovers_pois_that_staypoint_misses(self, small_world):
        """Quantifies the limitation documented in README "Running the evaluation"."""
        published = smooth_dataset(small_world.dataset, epsilon_m=100.0)
        truth = ground_truth_pois(small_world)
        gap_pois = [p for v in GapInferenceAttack().extract_dataset(published).values() for p in v]
        score = poi_retrieval_pooled(truth, gap_pois)
        # The gap attack recovers a substantial share of POIs from smoothed data...
        assert score.recall > 0.3

    def test_trimming_reduces_the_gap_leak(self, small_world):
        """...and session trimming is an effective mitigation."""
        truth = ground_truth_pois(small_world)

        def recall_with(config: SpeedSmoothingConfig) -> float:
            published = SpeedSmoother(config).smooth_dataset(small_world.dataset)
            pois = [p for v in GapInferenceAttack().extract_dataset(published).values() for p in v]
            return poi_retrieval_pooled(truth, pois).recall

        plain = recall_with(SpeedSmoothingConfig(epsilon_m=100.0))
        trimmed = recall_with(
            SpeedSmoothingConfig(epsilon_m=100.0, trim_start_m=400.0, trim_end_m=400.0)
        )
        assert trimmed <= plain
