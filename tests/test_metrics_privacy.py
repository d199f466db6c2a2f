"""Tests for the privacy metrics."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.poi_extraction import ExtractedPoi
from repro.geo.distance import haversine
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


def _scalar_match_counts(truths, found, match_distance_m):
    """The per-pair scalar loop the batched scorers must reproduce."""
    matched_true = sum(
        1
        for (lat, lon) in truths
        if any(haversine(lat, lon, e.lat, e.lon) <= match_distance_m for e in found)
    )
    matched_found = sum(
        1
        for e in found
        if any(haversine(lat, lon, e.lat, e.lon) <= match_distance_m for (lat, lon) in truths)
    )
    return matched_true, matched_found


class TestBatchedPoiScoring:
    @given(
        seed=st.integers(0, 10_000),
        n_true=st.integers(0, 12),
        n_found=st.integers(0, 12),
        step=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_scores_equal_the_scalar_loop_inside_the_band(self, seed, n_true, n_found, step):
        # Every extracted POI sits one fixed meridian offset north of a true
        # POI, so all those pairs are ~250 m apart; the threshold is one
        # pair's exact scalar distance (or its float neighbour), which puts
        # the pairs inside the 1e-9 re-check band around it.
        rng = np.random.default_rng(seed)
        lats = 45.76 + rng.normal(0.0, 2e-3, n_true)
        lons = 4.84 + rng.normal(0.0, 2e-3, n_true)
        truths = list(zip(lats.tolist(), lons.tolist()))
        users = ["a", "b"]
        owner = rng.integers(0, 2, max(n_true, 1))
        found = []
        for k in range(n_found):
            if n_true and rng.random() < 0.8:
                j = int(rng.integers(0, n_true))
                lat, lon, user = lats[j] + 250.0 / 111_195.0, lons[j], users[owner[j]]
            else:
                lat, lon, user = 45.76 + rng.normal(0.0, 2e-3), 4.84, users[k % 2]
            found.append(poi(float(lat), float(lon), user))
        threshold = 250.0
        if truths and found:
            threshold = haversine(*truths[0], found[0].lat, found[0].lon)
        threshold = float(np.nextafter(threshold, threshold + step))

        n_matched = _scalar_match_counts(truths, found, threshold)
        pooled = poi_retrieval_pooled(truths, found, match_distance_m=threshold)
        assert pooled == PoiRetrievalScore.from_counts(
            n_matched[0], len(truths), n_matched[1], len(found)
        )

        truth_by_user = {u: [t for t, o in zip(truths, owner) if users[o] == u] for u in users}
        found_by_user = {u: [e for e in found if e.user_id == u] for u in users}
        counts = [
            _scalar_match_counts(truth_by_user[u], found_by_user[u], threshold) for u in users
        ]
        per_user = poi_retrieval_per_user(truth_by_user, found_by_user, threshold)
        assert per_user == PoiRetrievalScore.from_counts(
            sum(c[0] for c in counts), len(truths), sum(c[1] for c in counts), len(found)
        )


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
