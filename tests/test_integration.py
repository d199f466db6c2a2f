"""End-to-end integration tests: the paper's claims on realistic workloads.

These tests exercise the whole stack (data generation -> anonymization ->
attacks -> metrics) and assert the qualitative results the paper announces:
POIs are hidden, spatial utility stays high, swapping confuses linkage.
"""

from __future__ import annotations

import numpy as np

from repro import Anonymizer, AnonymizerConfig, generate_world
from repro.attacks.poi_extraction import PoiExtractor
from repro.attacks.reident import FootprintReidentifier
from repro.baselines.geo_indistinguishability import GeoIndConfig, GeoIndistinguishabilityMechanism
from repro.experiments.runner import ground_truth_pois
from repro.experiments.workloads import split_train_publish
from repro.io.csv_io import read_csv, write_csv
from repro.metrics.privacy import poi_retrieval_pooled, reidentification_truth
from repro.metrics.utility import area_coverage, dataset_spatial_distortion
from repro.mixzones.detection import MixZoneDetector
from repro.mixzones.swapping import MixZoneSwapper, SwapConfig, SwapPolicy


class TestPoiHidingClaim:
    """Section III, first mechanism: constant speed hides POIs."""

    def test_poi_attack_collapses_on_protected_data(self, small_world):
        truth = ground_truth_pois(small_world)
        extractor = PoiExtractor()
        published = Anonymizer().publish(small_world.dataset).dataset

        raw_pois = [p for v in extractor.extract_dataset(small_world.dataset).values() for p in v]
        protected_pois = [p for v in extractor.extract_dataset(published).values() for p in v]
        raw_score = poi_retrieval_pooled(truth, raw_pois)
        protected_score = poi_retrieval_pooled(truth, protected_pois)

        assert raw_score.recall > 0.9, "the attack must work on raw data"
        assert protected_score.recall < 0.35, "the protected data must hide most POIs"
        assert protected_score.f_score < raw_score.f_score / 2.0

    def test_better_spatial_accuracy_than_geo_indistinguishability(self, small_world):
        """The paper's headline: time distortion beats location distortion on utility."""
        ours = Anonymizer().publish(small_world.dataset).dataset
        geo = GeoIndistinguishabilityMechanism(GeoIndConfig(seed=0)).publish(small_world.dataset).dataset
        ours_distortion = dataset_spatial_distortion(small_world.dataset, ours).median
        geo_distortion = dataset_spatial_distortion(small_world.dataset, geo).median
        assert ours_distortion < geo_distortion / 2.0

    def test_area_coverage_stays_high(self, small_world):
        published = Anonymizer().publish(small_world.dataset).dataset
        score = area_coverage(small_world.dataset, published, cell_size_m=400.0)
        assert score.f_score > 0.6


class TestSwappingClaim:
    """Section III, second mechanism: swapping confuses linkage attacks."""

    def test_swapping_reduces_footprint_reidentification(self, crossing_world):
        training, publish = split_train_publish(crossing_world, 0.5)
        attacker = FootprintReidentifier()
        knowledge = attacker.knowledge_from_dataset(
            training, bbox=crossing_world.dataset.bbox.expanded(500.0)
        )
        zones = MixZoneDetector().detect(publish)

        unswapped = MixZoneSwapper(SwapConfig(policy=SwapPolicy.NEVER, seed=0)).apply(publish, zones)
        swapped = MixZoneSwapper(SwapConfig(policy=SwapPolicy.ALWAYS, seed=0)).apply(publish, zones)

        rate_unswapped = attacker.attack(unswapped.dataset, knowledge).accuracy(
            reidentification_truth(unswapped)
        )
        rate_swapped = attacker.attack(swapped.dataset, knowledge).accuracy(
            reidentification_truth(swapped)
        )
        assert rate_unswapped > 0.8, "without swapping the footprint attack must succeed"
        assert rate_swapped <= rate_unswapped

    def test_swapping_preserves_locations_exactly(self, crossing_world):
        """Swapping only relabels and suppresses; no published location is moved."""
        zones = MixZoneDetector().detect(crossing_world.dataset)
        result = MixZoneSwapper(SwapConfig(policy=SwapPolicy.ALWAYS, seed=0)).apply(
            crossing_world.dataset, zones
        )
        original = {
            (round(float(t), 3), round(float(la), 7), round(float(lo), 7))
            for traj in crossing_world.dataset
            for t, la, lo in zip(traj.timestamps, traj.lats, traj.lons)
        }
        for traj in result.dataset:
            for t, la, lo in zip(traj.timestamps, traj.lats, traj.lons):
                assert (round(float(t), 3), round(float(la), 7), round(float(lo), 7)) in original


class TestFigureOneScenario:
    """The two-user scenario illustrated by Figure 1 of the paper."""

    def test_figure1_pipeline(self, tiny_world):
        published = Anonymizer(
            AnonymizerConfig(swapping=SwapConfig(policy=SwapPolicy.ALWAYS, seed=0))
        ).publish(tiny_world.dataset).dataset
        assert len(published) >= 1
        # The published traces have constant speed within each session.
        for traj in published:
            gaps = traj.segment_distances()
            short_session_gaps = gaps[gaps < 500.0]
            if short_session_gaps.size > 3:
                assert np.std(short_session_gaps) < 30.0

    def test_published_dataset_round_trips_through_csv(self, tiny_world, tmp_path):
        published = Anonymizer().publish(tiny_world.dataset).dataset
        path = tmp_path / "published.csv"
        write_csv(path, published)
        loaded = read_csv(path)
        assert loaded.n_points == published.n_points
        assert set(loaded.user_ids) == set(published.user_ids)


class TestScalabilitySmoke:
    def test_pipeline_handles_more_users(self):
        world = generate_world(n_users=25, n_days=2, seed=13)
        report = Anonymizer().publish(world.dataset).report
        assert report.published_users > 0
        assert report.published_points > 0
