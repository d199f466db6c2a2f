"""Tests for the privacy metrics."""

from __future__ import annotations


from repro.attacks.poi_extraction import ExtractedPoi
from repro.core.pipeline import Anonymizer, AnonymizerConfig
from repro.metrics.privacy import (
    PoiRetrievalScore,
    empirical_mixing_entropy_bits,
    majority_owner,
    mean_zone_correctness,
    poi_retrieval_per_user,
    poi_retrieval_pooled,
    reidentification_truth,
    tracking_success,
    zone_link_truth,
)
from repro.mixzones.detection import MixZoneDetector
from repro.mixzones.swapping import MixZoneSwapper, SwapConfig, SwapPolicy


def poi(lat: float, lon: float, user: str = "u") -> ExtractedPoi:
    return ExtractedPoi(user_id=user, lat=lat, lon=lon, t_start=0.0, t_end=1000.0, n_points=10)


class TestPoiRetrievalScores:
    def test_perfect_match(self):
        truth = [(45.0, 4.0), (45.01, 4.01)]
        extracted = [poi(45.0, 4.0), poi(45.01, 4.01)]
        score = poi_retrieval_pooled(truth, extracted, match_distance_m=100.0)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.f_score == 1.0

    def test_no_extraction_is_full_precision_zero_recall(self):
        score = poi_retrieval_pooled([(45.0, 4.0)], [], match_distance_m=100.0)
        assert score.precision == 1.0
        assert score.recall == 0.0
        assert score.f_score == 0.0

    def test_wrong_extraction_is_zero_precision(self):
        score = poi_retrieval_pooled([(45.0, 4.0)], [poi(46.0, 5.0)], match_distance_m=100.0)
        assert score.precision == 0.0
        assert score.recall == 0.0

    def test_empty_truth(self):
        score = poi_retrieval_pooled([], [poi(45.0, 4.0)], match_distance_m=100.0)
        assert score.recall == 1.0
        assert score.precision == 0.0

    def test_from_counts_degenerate(self):
        score = PoiRetrievalScore.from_counts(0, 0, 0, 0)
        assert score.precision == 1.0 and score.recall == 1.0

    def test_per_user_variant_requires_matching_user(self):
        truth = {"alice": [(45.0, 4.0)], "bob": [(46.0, 5.0)]}
        # The POI of alice is extracted from bob's trace: per-user scoring rejects it.
        extracted = {"alice": [], "bob": [poi(45.0, 4.0, "bob")]}
        per_user = poi_retrieval_per_user(truth, extracted, match_distance_m=100.0)
        assert per_user.recall == 0.0
        pooled = poi_retrieval_pooled(
            [p for ps in truth.values() for p in ps],
            [p for ps in extracted.values() for p in ps],
            match_distance_m=100.0,
        )
        assert pooled.recall == 0.5


class TestOwnershipHelpers:
    def test_majority_owner(self):
        segments = [(0.0, 100.0, "a"), (100.0, 500.0, "b"), (500.0, 550.0, "a")]
        assert majority_owner(segments) == "b"
        assert majority_owner([]) is None

    def test_reidentification_truth_from_swap_result(self, crossing_world):
        zones = MixZoneDetector().detect(crossing_world.dataset)
        result = MixZoneSwapper(SwapConfig(policy=SwapPolicy.ALWAYS, seed=0)).apply(
            crossing_world.dataset, zones
        )
        truth = reidentification_truth(result)
        assert set(truth.keys()) == set(result.dataset.user_ids)
        assert set(truth.values()) <= set(crossing_world.dataset.user_ids)


class TestTrackingMetrics:
    def test_tracking_success_empty(self):
        assert tracking_success([], []) == 0.0

    def test_mean_zone_correctness_skips_unscorable_zones(self):
        import math

        from repro.attacks.tracking import ZoneLinkage
        from repro.mixzones.zones import MixZone

        zone = MixZone(45.0, 4.0, 100.0, 0.0, 10.0, frozenset({"a"}))
        scored = ZoneLinkage(zone=zone, links={"a": "b"}, incoming=["a"], outgoing=["b"])
        wrong = ZoneLinkage(zone=zone, links={"a": "c"}, incoming=["a"], outgoing=["c"])
        unscorable = ZoneLinkage(zone=zone, links={"x": "y"}, incoming=["x"], outgoing=["y"])
        truth = {"a": "b"}
        # The unscorable zone is skipped, not averaged in as 0.0 — averaging
        # it as a failure deflated tracking success (overstating privacy).
        assert mean_zone_correctness([scored, unscorable], [truth, truth]) == 1.0
        assert mean_zone_correctness([scored, wrong, unscorable], [truth] * 3) == 0.5
        # Nothing scorable at all: nan, not 0.0.
        assert math.isnan(mean_zone_correctness([unscorable], [truth]))
        assert math.isnan(mean_zone_correctness([], []))

    def test_entropy_empty(self):
        assert empirical_mixing_entropy_bits([]) == 0.0

    def test_entropy_positive_on_real_records(self, crossing_world):
        anonymizer = Anonymizer(AnonymizerConfig(swapping=SwapConfig(policy=SwapPolicy.ALWAYS, seed=0)))
        report = anonymizer.publish(crossing_world.dataset).report
        assert empirical_mixing_entropy_bits(report.swap_records) >= 1.0

    def test_zone_link_truth_identity_without_swap(self, crossing_world):
        zones = MixZoneDetector().detect(crossing_world.dataset)
        result = MixZoneSwapper(SwapConfig(policy=SwapPolicy.NEVER, pseudonymize=False)).apply(
            crossing_world.dataset, zones
        )
        for record in result.records:
            truth = zone_link_truth(record)
            assert all(incoming == outgoing for incoming, outgoing in truth.items())
