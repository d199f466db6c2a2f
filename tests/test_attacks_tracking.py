"""Tests for the multi-target tracking attack."""

from __future__ import annotations

import pytest

from repro.attacks.tracking import MultiTargetTracker, TrackingConfig
from repro.core.pipeline import Anonymizer, AnonymizerConfig
from repro.core.trajectory import MobilityDataset
from repro.metrics.privacy import tracking_success, zone_link_truth
from repro.mixzones.swapping import SwapConfig, SwapPolicy
from repro.mixzones.zones import MixZone

from .conftest import LYON_LAT, LYON_LON, make_line_trajectory


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrackingConfig(search_radius_m=0.0)
        with pytest.raises(ValueError):
            TrackingConfig(max_plausible_speed_mps=0.0)


class TestZoneLinking:
    def test_single_user_straight_line_is_linked_correctly(self):
        """With one user passing straight through, the attacker links it trivially."""
        traj = make_line_trajectory(user_id="a", n_points=80, spacing_m=50.0, interval_s=10.0,
                                    start_time=0.0)
        # Zone centred 2 km east of the start, crossed around t = 400 s.
        from repro.geo.distance import destination_point

        zone_lat, zone_lon = destination_point(LYON_LAT, LYON_LON, 90.0, 2000.0)
        zone = MixZone(zone_lat, zone_lon, 150.0, 380.0, 420.0, frozenset({"a"}))
        published = MobilityDataset([traj])
        linkage = MultiTargetTracker().link_zone(published, zone)
        assert linkage.links == {"a": "a"}

    def test_no_entries_or_exits_yields_no_links(self):
        traj = make_line_trajectory(user_id="a", n_points=10, start_time=0.0)
        zone = MixZone(0.0, 0.0, 100.0, 0.0, 10.0, frozenset({"a"}))
        linkage = MultiTargetTracker().link_zone(MobilityDataset([traj]), zone)
        assert linkage.links == {}

    def test_correctness_scoring(self):
        import math

        zone = MixZone(LYON_LAT, LYON_LON, 100.0, 0.0, 10.0, frozenset({"a"}))
        from repro.attacks.tracking import ZoneLinkage

        linkage = ZoneLinkage(zone=zone, links={"a": "b"}, incoming=["a"], outgoing=["b"])
        assert linkage.correctness({"a": "b"}) == 1.0
        assert linkage.correctness({"a": "c"}) == 0.0
        # No overlap with the truth: nothing to score, NOT "attacker wrong".
        # (A 0.0 here deflated averaged tracking success — the regression this pins.)
        assert math.isnan(linkage.correctness({}))
        assert math.isnan(linkage.correctness({"z": "q"}))


class TestTrackingOnPipeline:
    def test_tracking_is_degraded_by_swapping(self, crossing_world):
        """The attacker re-links some traversals but far from all of them."""
        anonymizer = Anonymizer(
            AnonymizerConfig(swapping=SwapConfig(policy=SwapPolicy.ALWAYS, seed=0))
        )
        result = anonymizer.publish(crossing_world.dataset)
        published, report = result.dataset, result.report
        assert report.swap_records, "the crossing-rich world must produce swap records"
        tracker = MultiTargetTracker()
        linkages = tracker.link_zones(published, [r.zone for r in report.swap_records])
        success = tracking_success(linkages, report.swap_records)
        assert 0.0 <= success < 0.8

    def test_zone_link_truth_structure(self, crossing_world):
        anonymizer = Anonymizer(
            AnonymizerConfig(swapping=SwapConfig(policy=SwapPolicy.ALWAYS, seed=0))
        )
        report = anonymizer.publish(crossing_world.dataset).report
        record = report.swap_records[0]
        truth = zone_link_truth(record)
        assert set(truth.keys()) == set(record.labels_before.values())
        assert set(truth.values()) == set(record.labels_after.values())
