"""Tests for the full anonymization pipeline."""

from __future__ import annotations

import pytest

from repro.api import make_mechanism
from repro.api.registry import RegistryError
from repro.core.pipeline import AnonymizationReport, Anonymizer, AnonymizerConfig
from repro.core.speed_smoothing import SpeedSmoothingConfig
from repro.core.trajectory import MobilityDataset
from repro.mixzones.swapping import SwapConfig, SwapPolicy


class TestReport:
    def test_point_retention(self):
        report = AnonymizationReport(
            input_users=10, input_points=1000, published_users=10, published_points=400
        )
        assert report.point_retention == 0.4
        empty = AnonymizationReport(input_users=0, input_points=0, published_users=0, published_points=0)
        assert empty.point_retention == 0.0

    def test_summary_mentions_key_figures(self, crossing_world):
        report = Anonymizer().publish(crossing_world.dataset).report
        summary = report.summary()
        assert str(report.input_users) in summary
        assert "mix-zones" in summary


class TestPipeline:
    def test_default_pipeline_protects_and_reports(self, crossing_world):
        result = Anonymizer().publish(crossing_world.dataset)
        published, report = result.dataset, result.report
        assert report.input_points == crossing_world.dataset.n_points
        assert report.published_points == published.n_points
        assert report.n_zones > 0
        assert 0.0 < report.point_retention < 1.0
        # Published labels are pseudonyms by default.
        assert set(published.user_ids).isdisjoint(set(crossing_world.dataset.user_ids))

    @pytest.mark.parametrize("stage", ["enable_smoothing", "enable_swapping"])
    def test_promesse_always_runs_both_stages(self, stage):
        # Ablations are the smoothing: mechanism and promesse:swap=never.
        with pytest.raises(RegistryError, match=stage):
            make_mechanism(f"promesse:{stage}=false")

    def test_custom_smoothing_spacing_changes_output_size(self, crossing_world):
        fine = Anonymizer(AnonymizerConfig(smoothing=SpeedSmoothingConfig(epsilon_m=50.0)))
        coarse = Anonymizer(AnonymizerConfig(smoothing=SpeedSmoothingConfig(epsilon_m=400.0)))
        fine_pub = fine.publish(crossing_world.dataset).dataset
        coarse_pub = coarse.publish(crossing_world.dataset).dataset
        assert fine_pub.n_points > coarse_pub.n_points

    def test_deterministic_given_seed(self, crossing_world):
        config = AnonymizerConfig(swapping=SwapConfig(policy=SwapPolicy.ALWAYS, seed=11))
        first = Anonymizer(config).publish(crossing_world.dataset).dataset
        second = Anonymizer(config).publish(crossing_world.dataset).dataset
        assert first == second

    def test_original_dataset_untouched(self, crossing_world):
        before_points = crossing_world.dataset.n_points
        before_users = list(crossing_world.dataset.user_ids)
        Anonymizer().publish(crossing_world.dataset)
        assert crossing_world.dataset.n_points == before_points
        assert crossing_world.dataset.user_ids == before_users

    def test_empty_dataset(self):
        result = Anonymizer().publish(MobilityDataset())
        published, report = result.dataset, result.report
        assert len(published) == 0
        assert report.input_users == 0
        assert report.n_zones == 0

    def test_segment_ownership_timespans_within_published_data(self, crossing_world):
        result = Anonymizer(
            AnonymizerConfig(swapping=SwapConfig(policy=SwapPolicy.ALWAYS, seed=0))
        ).publish(crossing_world.dataset)
        published, report = result.dataset, result.report
        for label, segments in report.segment_ownership.items():
            traj = published[label]
            assert segments[0][0] >= traj.first.timestamp - 1e-6
            assert segments[-1][1] <= traj.last.timestamp + 1e-6
