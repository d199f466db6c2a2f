"""Property-based equivalence: vectorized kernels versus scalar references.

The columnar rewrites of mix-zone detection, Wait-For-Me clustering, POI
(stay-point) extraction, DJ-Cluster, gap inference, re-identification,
tracking, speed smoothing and mix-zone swapping must be *refactors*, not
behaviour changes.  Each hypothesis property generates a small randomized
dataset and asserts the public vectorized method produces identical results
to the retained scalar oracle of the same semantics — the ``*_reference`` entry point beside it
(``extract_reference``, ``attack_reference``, ``link_zones_reference``,
``smooth_dataset_reference``, ``apply_reference``, ...).
"""

from __future__ import annotations

from typing import Tuple
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.djcluster import DjCluster, DjClusterConfig
from repro.attacks.gap_inference import GapInferenceAttack, GapInferenceConfig
from repro.attacks.poi_extraction import PoiExtractionConfig, PoiExtractor
from repro.attacks.reident import (
    FootprintReidentifier,
    ReidentificationConfig,
    Reidentifier,
)
from repro.attacks.tracking import MultiTargetTracker, TrackingConfig
from repro.baselines.wait4me import Wait4MeConfig, Wait4MeMechanism
from repro.core.speed_smoothing import SpeedSmoother, SpeedSmoothingConfig
from repro.core.trajectory import MobilityDataset, Trajectory
from repro.geo import kernels
from repro.geo.distance import destination_point, haversine, haversine_array
from repro.mixzones.detection import MixZoneDetectionConfig, MixZoneDetector
from repro.mixzones.swapping import MixZoneSwapper, SwapConfig, SwapPolicy
from repro.mixzones.zones import MixZone

BASE_LAT, BASE_LON = 45.764, 4.836


def _random_dataset(seed: int, n_users: int, n_points: int, span_s: float) -> MobilityDataset:
    """Users random-walking the same neighbourhood over overlapping windows."""
    rng = np.random.default_rng(seed)
    trajectories = []
    for u in range(n_users):
        steps_m = rng.uniform(0.0, 150.0, n_points)
        bearings = rng.uniform(0.0, 2 * np.pi, n_points)
        dlat = steps_m * np.cos(bearings) / 111_195.0
        dlon = steps_m * np.sin(bearings) / (111_195.0 * np.cos(np.radians(BASE_LAT)))
        lats = BASE_LAT + rng.uniform(-0.003, 0.003) + np.cumsum(dlat)
        lons = BASE_LON + rng.uniform(-0.003, 0.003) + np.cumsum(dlon)
        start = rng.uniform(0.0, span_s / 2.0)
        times = start + np.cumsum(rng.uniform(5.0, span_s / n_points, n_points))
        trajectories.append(Trajectory(f"u{u}", times, lats, lons))
    return MobilityDataset(trajectories)


def _event_key(event):
    return (event.user_a, event.user_b, event.timestamp, event.lat, event.lon)


def _with_tied_meeting(dataset: MobilityDataset) -> MobilityDataset:
    """``dataset`` plus three users at one fix: three events tied on (t, lat, lon).

    The users are inserted out of name order, so only the canonical sort's
    user-id tie-break (not the columnar user index) orders those events.
    """
    tied = [Trajectory(name, [900.0], [BASE_LAT], [BASE_LON]) for name in ("w3", "w12", "w1")]
    return MobilityDataset(list(dataset) + tied)


def _assert_crossings_identical(dataset: MobilityDataset, config: MixZoneDetectionConfig) -> None:
    detector = MixZoneDetector(config)
    vectorized = detector.find_crossings(dataset)
    reference = detector.find_crossings_reference(dataset)
    assert sorted(map(_event_key, vectorized)) == sorted(map(_event_key, reference))
    assert detector.detect(dataset) == detector.detect_reference(dataset)


class TestMixZoneEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=2, max_value=5),
        n_points=st.integers(min_value=5, max_value=40),
        radius_m=st.floats(min_value=40.0, max_value=300.0),
        max_gap_s=st.floats(min_value=30.0, max_value=300.0),
        merge_gap_s=st.sampled_from([0.0, 0.5, 600.0, 3600.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_crossings_identical_to_reference(
        self, seed, n_users, n_points, radius_m, max_gap_s, merge_gap_s
    ):
        dataset = _random_dataset(seed, n_users, n_points, span_s=3600.0)
        config = MixZoneDetectionConfig(
            radius_m=radius_m, max_time_gap_s=max_gap_s, merge_gap_s=merge_gap_s
        )
        vectorized = MixZoneDetector(config).find_crossings(dataset)
        reference = MixZoneDetector(config).find_crossings_reference(dataset)
        assert sorted(map(_event_key, vectorized)) == sorted(map(_event_key, reference))

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        radius_m=st.floats(min_value=40.0, max_value=300.0),
        merge_gap_s=st.sampled_from([0.0, 0.5, 600.0, 3600.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_zones_identical_to_reference(self, seed, radius_m, merge_gap_s):
        dataset = _with_tied_meeting(_random_dataset(seed, n_users=4, n_points=30, span_s=1800.0))
        config = MixZoneDetectionConfig(radius_m=radius_m, merge_gap_s=merge_gap_s)
        vectorized = MixZoneDetector(config).detect(dataset)
        reference = MixZoneDetector(config).detect_reference(dataset)
        assert vectorized == reference
        assert any({"w1", "w3", "w12"} <= zone.participants for zone in vectorized)

    def test_first_witness_moves_past_out_of_radius_candidates(self):
        """A key's smallest ``(i, j)`` candidates fail the radius, a later one passes.

        ``a`` approaches the meeting point from 130 m south (bin neighbours,
        out of the 100 m radius) and reaches it at its fifth fix, so the key
        (a, b, window 0) fails round one and the windows of 1 and 2 further
        candidates, then settles in the window of 4.
        """
        south = [
            destination_point(BASE_LAT, BASE_LON, 180.0, d) for d in (130.0, 120.0, 110.0, 101.0)
        ]
        a = Trajectory(
            "a",
            [0.0, 10.0, 20.0, 30.0, 40.0],
            [lat for lat, _ in south] + [BASE_LAT],
            [lon for _, lon in south] + [BASE_LON],
        )
        b = Trajectory("b", [20.0], [BASE_LAT], [BASE_LON])
        far = Trajectory("c", [0.0], [BASE_LAT + 0.1], [BASE_LON])
        dataset = MobilityDataset([a, b, far])
        with mock.patch.object(kernels, "haversine_array", wraps=kernels.haversine_array) as calls:
            i, j, *_ = kernels.colocation_events(dataset.columnar(), 100.0, 60.0, 600.0)
        assert calls.call_count == 4
        assert (i.tolist(), j.tolist()) == ([4], [5])
        _assert_crossings_identical(
            dataset, MixZoneDetectionConfig(radius_m=100.0, max_time_gap_s=60.0)
        )

    def test_same_user_fixes_sharing_bins_with_other_users(self):
        """Several fixes of one user in the same and neighbouring bins as others'.

        Users are inserted out of name order; ``m`` dwells (many same-bin
        fixes) while ``k`` and ``z`` pass through its bin and the next one.
        """
        east = destination_point(BASE_LAT, BASE_LON, 90.0, 60.0)
        dwell = Trajectory("m", np.arange(0.0, 200.0, 20.0), [BASE_LAT] * 10, [BASE_LON] * 10)
        k = Trajectory(
            "k", [15.0, 35.0, 55.0], [BASE_LAT, east[0], BASE_LAT], [BASE_LON, east[1], BASE_LON]
        )
        z = Trajectory("z", [30.0, 150.0, 170.0], [east[0]] * 3, [east[1]] * 3)
        dataset = MobilityDataset([dwell, z, k])
        for merge_gap_s in (0.0, 0.5, 600.0, 3600.0):
            for radius_m in (40.0, 100.0):
                config = MixZoneDetectionConfig(
                    radius_m=radius_m, max_time_gap_s=60.0, merge_gap_s=merge_gap_s
                )
                _assert_crossings_identical(dataset, config)
        assert MixZoneDetector(MixZoneDetectionConfig(radius_m=100.0)).find_crossings(dataset)


def _dwell_and_move_dataset(
    seed: int,
    n_users: int,
    n_segments: int,
    interval_s: float,
    dwell_fixes: Tuple[int, int] = (2, 25),
    jitter_deg: float = 8e-5,
) -> MobilityDataset:
    """Users alternating dwells (meter-scale jitter) and straight moves.

    This produces the structure both POI attacks feed on — genuine stays of
    randomized durations separated by travel — unlike a pure random walk,
    which almost never dwells long enough to emit a stay point.  A dwell
    holds ``dwell_fixes`` (low inclusive, high exclusive) fixes, each
    ``N(0, jitter_deg)`` degrees off the dwell's place.
    """
    rng = np.random.default_rng(seed)
    trajectories = []
    for u in range(n_users):
        lat = BASE_LAT + rng.uniform(-0.01, 0.01)
        lon = BASE_LON + rng.uniform(-0.01, 0.01)
        t = rng.uniform(0.0, 600.0)
        times, lats, lons = [], [], []
        for _ in range(n_segments):
            if rng.random() < 0.5:  # dwell
                for _ in range(rng.integers(*dwell_fixes)):
                    times.append(t)
                    lats.append(lat + rng.normal(0.0, jitter_deg))
                    lons.append(lon + rng.normal(0.0, jitter_deg))
                    t += interval_s * rng.uniform(0.5, 1.5)
            else:  # move along a random bearing
                bearing = rng.uniform(0.0, 2 * np.pi)
                for _ in range(rng.integers(1, 12)):
                    step = rng.uniform(50.0, 400.0)
                    lat += step * np.cos(bearing) / 111_195.0
                    lon += step * np.sin(bearing) / (
                        111_195.0 * np.cos(np.radians(BASE_LAT))
                    )
                    times.append(t)
                    lats.append(lat)
                    lons.append(lon)
                    t += interval_s * rng.uniform(0.5, 1.5)
            # Occasional recording gap, sometimes mid-dwell.
            if rng.random() < 0.2:
                t += rng.uniform(1000.0, 4000.0)
        trajectories.append(Trajectory(f"u{u}", times, lats, lons))
    return MobilityDataset(trajectories)


def _degenerate_datasets():
    """Named edge-case datasets: single fix, all-stationary, all-moving."""
    single = MobilityDataset([Trajectory("solo", [0.0], [BASE_LAT], [BASE_LON])])
    rng = np.random.default_rng(7)
    n = 60
    all_stationary = MobilityDataset(
        [
            Trajectory(
                "parked",
                np.arange(n) * 60.0,
                BASE_LAT + rng.normal(0.0, 5e-5, n),
                BASE_LON + rng.normal(0.0, 5e-5, n),
            )
        ]
    )
    all_moving = MobilityDataset(
        [
            Trajectory(
                "runner",
                np.arange(n) * 30.0,
                BASE_LAT + np.arange(n) * 300.0 / 111_195.0,
                np.full(n, BASE_LON),
            )
        ]
    )
    empty_user = MobilityDataset(
        [Trajectory.empty("ghost"), all_stationary["parked"]]
    )
    return {
        "single-fix": single,
        "all-stationary": all_stationary,
        "all-moving": all_moving,
        "with-empty-user": empty_user,
    }


class TestPoiExtractionEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=1, max_value=4),
        n_segments=st.integers(min_value=1, max_value=8),
        diameter_m=st.floats(min_value=50.0, max_value=400.0),
        min_duration_s=st.floats(min_value=120.0, max_value=1800.0),
        interval_s=st.floats(min_value=20.0, max_value=90.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_staypoints_identical_to_reference(
        self, seed, n_users, n_segments, diameter_m, min_duration_s, interval_s
    ):
        dataset = _dwell_and_move_dataset(seed, n_users, n_segments, interval_s)
        base = dict(
            max_diameter_m=diameter_m,
            min_duration_s=min_duration_s,
            merge_distance_m=diameter_m / 2.0,
        )
        extractor = PoiExtractor(PoiExtractionConfig(**base))
        vectorized = extractor.extract_dataset(dataset)
        reference = extractor.extract_dataset_reference(dataset)
        assert vectorized == reference  # exact: POIs are frozen dataclasses

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_single_trajectory_identical(self, seed):
        dataset = _dwell_and_move_dataset(seed, n_users=1, n_segments=6, interval_s=45.0)
        trajectory = next(iter(dataset))
        extractor = PoiExtractor()
        assert extractor.extract(trajectory) == extractor.extract_reference(trajectory)

    def test_degenerate_traces_identical(self):
        for name, dataset in _degenerate_datasets().items():
            vectorized = PoiExtractor().extract_dataset(dataset)
            reference = PoiExtractor().extract_dataset_reference(dataset)
            assert vectorized == reference, f"mismatch on {name}"
        parked = _degenerate_datasets()["all-stationary"]["parked"]
        assert len(PoiExtractor().extract(parked)) == 1


class TestGapInferenceEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=1, max_value=4),
        n_segments=st.integers(min_value=1, max_value=8),
        min_gap_s=st.floats(min_value=300.0, max_value=2000.0),
        reappear_m=st.floats(min_value=100.0, max_value=2000.0),
        merge_m=st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_inferred_pois_identical_to_reference(
        self, seed, n_users, n_segments, min_gap_s, reappear_m, merge_m
    ):
        # _dwell_and_move_dataset injects recording gaps with 0.2 probability
        # per segment — exactly the structure this attack feeds on.
        dataset = _dwell_and_move_dataset(seed, n_users, n_segments, interval_s=45.0)
        base = dict(
            min_gap_s=min_gap_s,
            max_reappear_distance_m=reappear_m,
            merge_distance_m=merge_m,
        )
        attack = GapInferenceAttack(GapInferenceConfig(**base))
        vectorized = attack.extract_dataset(dataset)
        reference = attack.extract_dataset_reference(dataset)
        assert vectorized == reference  # exact: POIs are frozen dataclasses

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_single_trajectory_identical(self, seed):
        dataset = _dwell_and_move_dataset(seed, n_users=1, n_segments=8, interval_s=45.0)
        trajectory = next(iter(dataset))
        attack = GapInferenceAttack()
        assert attack.extract(trajectory) == attack.extract_reference(trajectory)

    def test_degenerate_traces_identical(self):
        config = dict(min_gap_s=60.0, max_reappear_distance_m=500.0)
        for name, dataset in _degenerate_datasets().items():
            attack = GapInferenceAttack(GapInferenceConfig(**config))
            vectorized = attack.extract_dataset(dataset)
            reference = attack.extract_dataset_reference(dataset)
            assert vectorized == reference, f"mismatch on {name}"


class TestDjClusterEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=1, max_value=4),
        n_segments=st.integers(min_value=1, max_value=8),
        eps_m=st.floats(min_value=30.0, max_value=300.0),
        min_points=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_clusters_identical_to_reference(
        self, seed, n_users, n_segments, eps_m, min_points
    ):
        dataset = _dwell_and_move_dataset(seed, n_users, n_segments, interval_s=40.0)
        base = dict(eps_m=eps_m, min_points=min_points)
        attack = DjCluster(DjClusterConfig(**base))
        vectorized = attack.extract_dataset(dataset)
        reference = attack.extract_dataset_reference(dataset)
        assert vectorized == reference

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=1, max_value=3),
        eps_m=st.sampled_from([20.0, 50.0, 100.0]),
        min_points=st.integers(min_value=2, max_value=12),
        jitter_deg=st.sampled_from([5e-6, 3e-5, 1.5e-4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_dense_stays_identical_to_reference(
        self, seed, n_users, eps_m, min_points, jitter_deg
    ):
        # Long, tightly sampled dwells: most clique cells hold >= min_points
        # fixes, so dense cells and dense-dense neighbours are the rule.
        dataset = _dwell_and_move_dataset(
            seed, n_users, n_segments=6, interval_s=5.0,
            dwell_fixes=(30, 150), jitter_deg=jitter_deg,
        )
        attack = DjCluster(DjClusterConfig(eps_m=eps_m, min_points=min_points))
        assert attack.extract_dataset(dataset) == attack.extract_dataset_reference(dataset)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_single_trajectory_identical(self, seed):
        dataset = _dwell_and_move_dataset(seed, n_users=1, n_segments=6, interval_s=40.0)
        trajectory = next(iter(dataset))
        assert DjCluster().extract(trajectory) == DjCluster().extract_reference(trajectory)

    def test_degenerate_traces_identical(self):
        for name, dataset in _degenerate_datasets().items():
            vectorized = DjCluster().extract_dataset(dataset)
            reference = DjCluster().extract_dataset_reference(dataset)
            assert vectorized == reference, f"mismatch on {name}"
        moving = _degenerate_datasets()["all-moving"]["runner"]
        assert DjCluster().extract(moving) == []


def _assert_reident_identical(vectorized, reference):
    """Bitwise equality of two ReidentificationResults (predictions + scores)."""
    assert vectorized.predicted == reference.predicted
    assert set(vectorized.scores) == set(reference.scores)
    for pseudonym, row in vectorized.scores.items():
        reference_row = reference.scores[pseudonym]
        assert set(row) == set(reference_row)
        for candidate, score in row.items():
            assert score == reference_row[candidate], (pseudonym, candidate)


class TestReidentEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=1, max_value=4),
        n_segments=st.integers(min_value=1, max_value=6),
        match_m=st.floats(min_value=100.0, max_value=600.0),
        assignment=st.sampled_from(["optimal", "greedy"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_poi_matcher_identical_to_reference(
        self, seed, n_users, n_segments, match_m, assignment
    ):
        training = _dwell_and_move_dataset(seed, n_users, n_segments, interval_s=45.0)
        published = _dwell_and_move_dataset(seed + 1, n_users, n_segments, interval_s=45.0)
        attacker = Reidentifier(
            ReidentificationConfig(match_distance_m=match_m, assignment=assignment)
        )
        # The oracle is the whole pipeline: scalar stay-point knowledge,
        # scalar extraction of the publication and per-POI-pair scores.
        knowledge = attacker.knowledge_from_dataset(training)
        knowledge_r = attacker.knowledge_from_dataset_reference(training)
        assert knowledge == knowledge_r
        _assert_reident_identical(
            attacker.attack(published, knowledge),
            attacker.attack_reference(published, knowledge_r),
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=1, max_value=4),
        cell_m=st.floats(min_value=100.0, max_value=800.0),
        assignment=st.sampled_from(["optimal", "greedy"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_footprint_matcher_identical_to_reference(
        self, seed, n_users, cell_m, assignment
    ):
        training = _dwell_and_move_dataset(seed, n_users, 5, interval_s=40.0)
        published = _dwell_and_move_dataset(seed + 1, n_users, 5, interval_s=40.0)
        vectorized = FootprintReidentifier(cell_size_m=cell_m, assignment=assignment)
        reference = FootprintReidentifier(cell_size_m=cell_m, assignment=assignment)
        knowledge_v = vectorized.knowledge_from_dataset(training)
        knowledge_r = reference.knowledge_from_dataset_reference(training)
        assert set(knowledge_v) == set(knowledge_r)
        for user, footprint in knowledge_v.items():
            np.testing.assert_array_equal(footprint, knowledge_r[user])
        _assert_reident_identical(
            vectorized.attack(published, knowledge_v),
            reference.attack_reference(published, knowledge_r),
        )

    def test_degenerate_traces_identical(self):
        datasets = _degenerate_datasets()
        training = datasets["all-stationary"]
        for name, published in datasets.items():
            attacker = Reidentifier()
            knowledge = attacker.knowledge_from_dataset(training)
            knowledge_r = attacker.knowledge_from_dataset_reference(training)
            assert knowledge == knowledge_r
            _assert_reident_identical(
                attacker.attack(published, knowledge),
                attacker.attack_reference(published, knowledge_r),
            )
            fp_v = FootprintReidentifier()
            fp_r = FootprintReidentifier()
            fp_knowledge = fp_v.knowledge_from_dataset(training)
            fp_knowledge_r = fp_r.knowledge_from_dataset_reference(training)
            for user, footprint in fp_knowledge.items():
                np.testing.assert_array_equal(footprint, fp_knowledge_r[user])
            _assert_reident_identical(
                fp_v.attack(published, fp_knowledge),
                fp_r.attack_reference(published, fp_knowledge_r),
            )
        # No knowledge at all: every prediction must be None on both paths.
        empty_v = Reidentifier().attack(datasets["single-fix"], {})
        assert all(v is None for v in empty_v.predicted.values())
        empty_r = Reidentifier().attack_reference(datasets["single-fix"], {})
        assert all(v is None for v in empty_r.predicted.values())


def _zone_grid(dataset: MobilityDataset, n_zones: int, seed: int) -> list:
    """Plausible mix-zones scattered over the dataset's space-time extent."""
    rng = np.random.default_rng(seed)
    non_empty = [t for t in dataset if len(t) > 0]
    if not non_empty:
        return [
            MixZone(BASE_LAT, BASE_LON, 100.0, 0.0, 60.0, frozenset())
            for _ in range(n_zones)
        ]
    bbox = dataset.bbox
    t_min = min(t.first.timestamp for t in non_empty)
    t_max = max(t.last.timestamp for t in non_empty)
    zones = []
    for _ in range(n_zones):
        t0 = rng.uniform(t_min - 100.0, t_max + 100.0)
        zones.append(
            MixZone(
                center_lat=rng.uniform(bbox.min_lat, bbox.max_lat),
                center_lon=rng.uniform(bbox.min_lon, bbox.max_lon),
                radius_m=float(rng.uniform(50.0, 300.0)),
                t_start=t0,
                t_end=t0 + float(rng.uniform(0.0, 900.0)),
                participants=frozenset(t.user_id for t in non_empty),
            )
        )
    return zones


class TestTrackingEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=1, max_value=5),
        n_points=st.integers(min_value=2, max_value=40),
        n_zones=st.integers(min_value=1, max_value=6),
        search_radius_m=st.floats(min_value=100.0, max_value=2000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_linkages_identical_to_reference(
        self, seed, n_users, n_points, n_zones, search_radius_m
    ):
        dataset = _random_dataset(seed, n_users, n_points, span_s=3600.0)
        zones = _zone_grid(dataset, n_zones, seed)
        tracker = MultiTargetTracker(TrackingConfig(search_radius_m=search_radius_m))
        vectorized = tracker.link_zones(dataset, zones)
        reference = tracker.link_zones_reference(dataset, zones)
        assert len(vectorized) == len(reference)
        for linkage_v, linkage_r in zip(vectorized, reference):
            assert linkage_v.incoming == linkage_r.incoming
            assert linkage_v.outgoing == linkage_r.outgoing
            assert linkage_v.links == linkage_r.links

    def test_degenerate_traces_identical(self):
        for name, dataset in _degenerate_datasets().items():
            zones = _zone_grid(dataset, 4, seed=13)
            vectorized = MultiTargetTracker().link_zones(dataset, zones)
            reference = MultiTargetTracker().link_zones_reference(dataset, zones)
            for linkage_v, linkage_r in zip(vectorized, reference):
                assert linkage_v.links == linkage_r.links, f"mismatch on {name}"
                assert linkage_v.incoming == linkage_r.incoming
                assert linkage_v.outgoing == linkage_r.outgoing

    def test_empty_zone_list_and_empty_dataset(self):
        assert MultiTargetTracker().link_zones(MobilityDataset(), []) == []
        zones = _zone_grid(MobilityDataset(), 2, seed=3)
        linkages = MultiTargetTracker().link_zones(MobilityDataset(), zones)
        assert all(linkage.links == {} for linkage in linkages)

    def test_zone_chunking_matches_unchunked(self, monkeypatch):
        """The memory-bounding zone chunks must not change any linkage."""
        import repro.attacks.tracking as tracking_module

        dataset = _random_dataset(3, n_users=4, n_points=30, span_s=3600.0)
        zones = _zone_grid(dataset, 9, seed=3)
        whole = MultiTargetTracker().link_zones(dataset, zones)
        monkeypatch.setattr(tracking_module, "_MAX_STATE_CELLS", 8)  # 2-zone chunks
        chunked = MultiTargetTracker().link_zones(dataset, zones)
        assert len(chunked) == len(whole)
        for linkage_c, linkage_w in zip(chunked, whole):
            assert linkage_c.links == linkage_w.links
            assert linkage_c.incoming == linkage_w.incoming
            assert linkage_c.outgoing == linkage_w.outgoing


class TestWait4MeEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=4, max_value=9),
        k=st.integers(min_value=2, max_value=4),
        delta_m=st.floats(min_value=100.0, max_value=1000.0),
        mech_seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_publication_identical_to_reference(self, seed, n_users, k, delta_m, mech_seed):
        dataset = _random_dataset(seed, n_users, n_points=25, span_s=3600.0)
        base = dict(k=k, delta_m=delta_m, time_step_s=120.0, seed=mech_seed)
        mechanism = Wait4MeMechanism(Wait4MeConfig(**base))
        vectorized = mechanism.publish(dataset).dataset
        reference = mechanism.publish_reference(dataset).dataset
        assert set(vectorized.user_ids) == set(reference.user_ids)
        assert vectorized == reference  # bitwise: both paths share the edit phase

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_cluster_membership_identical(self, seed):
        dataset = _random_dataset(seed, n_users=8, n_points=20, span_s=1800.0)
        mechanism = Wait4MeMechanism(Wait4MeConfig(k=3, delta_m=400.0, time_step_s=120.0))
        trajectories = [t for t in dataset if len(t) >= 2]
        _, xs, ys, _, _ = mechanism._synchronize(trajectories)
        clusters_v, trashed_v = mechanism._cluster(xs, ys)
        clusters_r, trashed_r = mechanism._cluster_reference(xs, ys)
        assert clusters_v == clusters_r
        assert trashed_v == trashed_r


def _assert_bitwise(published: MobilityDataset, reference: MobilityDataset) -> None:
    """Same users in the same order, every column equal bit for bit."""
    assert published.user_ids == reference.user_ids
    for trajectory in published:
        other = reference[trajectory.user_id]
        for mine, theirs in zip(trajectory.to_arrays(), other.to_arrays()):
            assert mine.shape == theirs.shape
            assert np.array_equal(mine.view(np.int64), theirs.view(np.int64))


def _session_dataset(seed: int, n_users: int, epsilon_m: float, gap_s: float) -> MobilityDataset:
    """Users recording sessions of mixed kinds, separated by gaps around ``gap_s``.

    Session kinds: a move (steps from 0 to 3 epsilon, some repeated as exact
    duplicate fixes), jitter only (meter-scale noise, never epsilon away) and
    a single fix.  Gaps are longer than, shorter than or exactly ``gap_s``.
    """
    rng = np.random.default_rng(seed)
    trajectories = []
    for u in range(n_users):
        lat = BASE_LAT + rng.uniform(-0.005, 0.005)
        lon = BASE_LON + rng.uniform(-0.005, 0.005)
        t = float(rng.integers(0, 600))
        times, lats, lons = [], [], []
        for _ in range(int(rng.integers(0, 5))):
            kind = rng.choice(["move", "jitter", "single"])
            n = 1 if kind == "single" else int(rng.integers(2, 30))
            for _ in range(n):
                if times and rng.random() < 0.1:  # exact duplicate fix
                    times.append(times[-1])
                    lats.append(lats[-1])
                    lons.append(lons[-1])
                    continue
                if kind == "move":
                    step = rng.uniform(0.0, 3.0 * epsilon_m)
                    bearing = rng.uniform(0.0, 2 * np.pi)
                    lat += step * np.cos(bearing) / 111_195.0
                    lon += step * np.sin(bearing) / (111_195.0 * np.cos(np.radians(BASE_LAT)))
                    here = (lat, lon)
                else:
                    here = (lat + rng.normal(0.0, 1e-6), lon + rng.normal(0.0, 1e-6))
                times.append(t)
                lats.append(here[0])
                lons.append(here[1])
                t += float(rng.integers(5, 60))
            t += float(rng.choice([gap_s, gap_s + 1.0, gap_s / 2.0, 3.0 * gap_s]))
        trajectories.append(Trajectory(f"u{u}", times, lats, lons))
    return MobilityDataset(trajectories)


class TestSpeedSmoothingEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=1, max_value=5),
        epsilon_m=st.floats(min_value=5.0, max_value=400.0),
        at_epsilon=st.booleans(),
        trim_start_m=st.sampled_from([0.0, 50.0, 250.0, 2_000.0]),
        trim_end_m=st.sampled_from([0.0, 80.0, 600.0, 5_000.0]),
        session_gap_s=st.sampled_from([None, 60.0, 600.0]),
        min_points=st.integers(min_value=2, max_value=6),
        more_trim_start_m=st.sampled_from([0.0, 120.0, 700.0]),
        more_trim_end_m=st.sampled_from([0.0, 120.0, 700.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_smoothing_identical_to_reference(
        self, seed, n_users, epsilon_m, at_epsilon, trim_start_m, trim_end_m,
        session_gap_s, min_points, more_trim_start_m, more_trim_end_m,
    ):
        dataset = _session_dataset(seed, n_users, epsilon_m, session_gap_s or 600.0)
        first = next(iter(dataset))
        if at_epsilon and len(first) >= 2:
            # The walk's first probe lands exactly on epsilon (unless that
            # spacing is jitter-small: the walk would emit for ever).
            exact = haversine(first.lats[0], first.lons[0], first.lats[1], first.lons[1])
            epsilon_m = exact if exact >= 5.0 else epsilon_m
        smoother = SpeedSmoother(SpeedSmoothingConfig(
            epsilon_m=epsilon_m, trim_start_m=trim_start_m, trim_end_m=trim_end_m,
            session_gap_s=session_gap_s, min_points=min_points,
        ))
        _assert_bitwise(smoother.smooth_dataset(dataset), smoother.smooth_dataset_reference(dataset))
        _assert_bitwise(
            smoother.smooth_dataset(dataset, drop_empty=False),
            smoother.smooth_dataset_reference(dataset, drop_empty=False),
        )
        for trajectory in dataset:
            _assert_bitwise(
                MobilityDataset([smoother.smooth(trajectory)]),
                MobilityDataset([smoother.smooth_reference(trajectory)]),
            )
        # More trimming never publishes more points, on either path.
        trimmed_more = SpeedSmoother(SpeedSmoothingConfig(
            epsilon_m=epsilon_m, trim_start_m=trim_start_m + more_trim_start_m,
            trim_end_m=trim_end_m + more_trim_end_m,
            session_gap_s=session_gap_s, min_points=min_points,
        ))
        for trajectory in dataset:
            assert len(trimmed_more.smooth(trajectory)) <= len(smoother.smooth(trajectory))
            assert len(trimmed_more.smooth_reference(trajectory)) <= len(
                smoother.smooth_reference(trajectory)
            )

    def test_degenerate_traces_identical(self):
        smoother = SpeedSmoother()
        for name, dataset in {**_degenerate_datasets(), "empty": MobilityDataset()}.items():
            published = smoother.smooth_dataset(dataset, drop_empty=False)
            reference = smoother.smooth_dataset_reference(dataset, drop_empty=False)
            _assert_bitwise(published, reference)


def _integer_time_dataset(seed: int, n_users: int) -> MobilityDataset:
    """:func:`_random_dataset` on whole-second timestamps, plus an empty user."""
    dataset = _random_dataset(seed, n_users, n_points=30, span_s=3600.0)
    return MobilityDataset(
        [Trajectory(t.user_id, np.round(t.timestamps), t.lats, t.lons) for t in dataset]
        + [Trajectory.empty("empty")]
    )


def _swap_zones(
    dataset: MobilityDataset, n_zones: int, seed: int, tolerance_s: float
) -> list:
    """Zones over the dataset whose radius or widened window edge falls on a fix.

    Participants include every user, the empty one and a user absent from
    the dataset.
    """
    rng = np.random.default_rng(seed)
    users = [t for t in dataset if len(t)]
    participants = frozenset(dataset.user_ids) | {"absent"}
    zones = []
    for _ in range(n_zones):
        owner = users[rng.integers(len(users))]
        i, j = sorted(rng.integers(0, len(owner), 2).tolist())
        center_lat = float(owner.lats[i]) + rng.normal(0.0, 5e-4)
        center_lon = float(owner.lons[i]) + rng.normal(0.0, 5e-4)
        # Radius: exactly the distance mask_of computes to fix j, or random.
        on_radius = haversine_array(owner.lats, owner.lons, center_lat, center_lon)[j]
        radius = float(on_radius) if rng.random() < 0.5 else float(rng.uniform(50.0, 400.0))
        # Window: its widened edges land exactly on fixes i and j.
        zones.append(MixZone(
            center_lat, center_lon, radius,
            float(owner.timestamps[i]) + tolerance_s,
            max(float(owner.timestamps[j]) - tolerance_s, float(owner.timestamps[i]) + tolerance_s),
            participants,
        ))
    return zones


def _assert_swap_identical(result, reference) -> None:
    _assert_bitwise(result.dataset, reference.dataset)
    assert result.records == reference.records
    assert result.segment_ownership == reference.segment_ownership
    assert result.pseudonym_of == reference.pseudonym_of
    assert result.suppressed_points == reference.suppressed_points


class TestMixZoneSwapEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=1, max_value=6),
        n_zones=st.integers(min_value=1, max_value=8),
        policy=st.sampled_from(list(SwapPolicy)),
        pseudonymize=st.booleans(),
        suppress_in_zone=st.booleans(),
        tolerance_s=st.sampled_from([0.0, 64.0, 1800.0]),
        swap_seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_identical_to_reference(
        self, seed, n_users, n_zones, policy, pseudonymize, suppress_in_zone,
        tolerance_s, swap_seed,
    ):
        dataset = _integer_time_dataset(seed, n_users)
        zones = _swap_zones(dataset, n_zones, seed, tolerance_s)
        swapper = MixZoneSwapper(SwapConfig(
            policy=policy, pseudonymize=pseudonymize, suppress_in_zone=suppress_in_zone,
            time_tolerance_s=tolerance_s, seed=swap_seed,
        ))
        _assert_swap_identical(swapper.apply(dataset, zones), swapper.apply_reference(dataset, zones))

    def test_degenerate_inputs_identical(self):
        swapper = MixZoneSwapper()
        for name, dataset in {**_degenerate_datasets(), "empty": MobilityDataset()}.items():
            for zones in ([], _zone_grid(dataset, 3, seed=5)):
                result = swapper.apply(dataset, zones)
                _assert_swap_identical(result, swapper.apply_reference(dataset, zones))
