"""Property-based equivalence: vectorized kernels versus scalar references.

The columnar rewrites of mix-zone detection, Wait-For-Me clustering, POI
(stay-point) extraction and DJ-Cluster must be *refactors*, not behaviour
changes.  Each hypothesis property generates a small randomized dataset and
asserts the vectorized path produces identical results to the retained
scalar reference implementation (``engine="reference"``) of the same
semantics.
"""

from __future__ import annotations

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
from repro.core.trajectory import MobilityDataset, Trajectory
from repro.mixzones.detection import MixZoneDetectionConfig, MixZoneDetector
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


class TestMixZoneEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_users=st.integers(min_value=2, max_value=5),
        n_points=st.integers(min_value=5, max_value=40),
        radius_m=st.floats(min_value=40.0, max_value=300.0),
        max_gap_s=st.floats(min_value=30.0, max_value=300.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_crossings_identical_to_reference(self, seed, n_users, n_points, radius_m, max_gap_s):
        dataset = _random_dataset(seed, n_users, n_points, span_s=3600.0)
        config = MixZoneDetectionConfig(radius_m=radius_m, max_time_gap_s=max_gap_s)
        vectorized = MixZoneDetector(config).find_crossings(dataset)
        reference = MixZoneDetector(
            MixZoneDetectionConfig(
                radius_m=radius_m, max_time_gap_s=max_gap_s, engine="reference"
            )
        ).find_crossings(dataset)
        assert sorted(map(_event_key, vectorized)) == sorted(map(_event_key, reference))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_zones_identical_to_reference(self, seed):
        dataset = _random_dataset(seed, n_users=4, n_points=30, span_s=1800.0)
        vectorized = MixZoneDetector().detect(dataset)
        reference = MixZoneDetector(
            MixZoneDetectionConfig(engine="reference")
        ).detect(dataset)
        assert len(vectorized) == len(reference)
        for zone_v, zone_r in zip(vectorized, reference):
            assert zone_v.participants == zone_r.participants
            assert zone_v.center_lat == zone_r.center_lat
            assert zone_v.center_lon == zone_r.center_lon
            assert zone_v.t_start == zone_r.t_start
            assert zone_v.t_end == zone_r.t_end


def _dwell_and_move_dataset(
    seed: int, n_users: int, n_segments: int, interval_s: float
) -> MobilityDataset:
    """Users alternating dwells (meter-scale jitter) and straight moves.

    This produces the structure both POI attacks feed on — genuine stays of
    randomized durations separated by travel — unlike a pure random walk,
    which almost never dwells long enough to emit a stay point.
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
                for _ in range(rng.integers(2, 25)):
                    times.append(t)
                    lats.append(lat + rng.normal(0.0, 8e-5))
                    lons.append(lon + rng.normal(0.0, 8e-5))
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
        vectorized = PoiExtractor(PoiExtractionConfig(**base)).extract_dataset(dataset)
        reference = PoiExtractor(
            PoiExtractionConfig(engine="reference", **base)
        ).extract_dataset(dataset)
        assert vectorized == reference  # exact: POIs are frozen dataclasses

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_single_trajectory_identical(self, seed):
        dataset = _dwell_and_move_dataset(seed, n_users=1, n_segments=6, interval_s=45.0)
        trajectory = next(iter(dataset))
        assert PoiExtractor().extract(trajectory) == PoiExtractor(
            PoiExtractionConfig(engine="reference")
        ).extract(trajectory)

    def test_degenerate_traces_identical(self):
        for name, dataset in _degenerate_datasets().items():
            vectorized = PoiExtractor().extract_dataset(dataset)
            reference = PoiExtractor(
                PoiExtractionConfig(engine="reference")
            ).extract_dataset(dataset)
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
        vectorized = GapInferenceAttack(GapInferenceConfig(**base)).extract_dataset(dataset)
        reference = GapInferenceAttack(
            GapInferenceConfig(engine="reference", **base)
        ).extract_dataset(dataset)
        assert vectorized == reference  # exact: POIs are frozen dataclasses

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_single_trajectory_identical(self, seed):
        dataset = _dwell_and_move_dataset(seed, n_users=1, n_segments=8, interval_s=45.0)
        trajectory = next(iter(dataset))
        assert GapInferenceAttack().extract(trajectory) == GapInferenceAttack(
            GapInferenceConfig(engine="reference")
        ).extract(trajectory)

    def test_degenerate_traces_identical(self):
        config = dict(min_gap_s=60.0, max_reappear_distance_m=500.0)
        for name, dataset in _degenerate_datasets().items():
            vectorized = GapInferenceAttack(
                GapInferenceConfig(**config)
            ).extract_dataset(dataset)
            reference = GapInferenceAttack(
                GapInferenceConfig(engine="reference", **config)
            ).extract_dataset(dataset)
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
        vectorized = DjCluster(DjClusterConfig(**base)).extract_dataset(dataset)
        reference = DjCluster(
            DjClusterConfig(engine="reference", **base)
        ).extract_dataset(dataset)
        assert vectorized == reference

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_single_trajectory_identical(self, seed):
        dataset = _dwell_and_move_dataset(seed, n_users=1, n_segments=6, interval_s=40.0)
        trajectory = next(iter(dataset))
        assert DjCluster().extract(trajectory) == DjCluster(
            DjClusterConfig(engine="reference")
        ).extract(trajectory)

    def test_degenerate_traces_identical(self):
        for name, dataset in _degenerate_datasets().items():
            vectorized = DjCluster().extract_dataset(dataset)
            reference = DjCluster(
                DjClusterConfig(engine="reference")
            ).extract_dataset(dataset)
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
        base = dict(match_distance_m=match_m, assignment=assignment)
        vectorized = Reidentifier(ReidentificationConfig(**base))
        reference = Reidentifier(ReidentificationConfig(engine="reference", **base))
        knowledge = vectorized.knowledge_from_dataset(training)
        _assert_reident_identical(
            vectorized.attack(published, knowledge),
            reference.attack(published, knowledge),
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
        reference = FootprintReidentifier(
            cell_size_m=cell_m, assignment=assignment, engine="reference"
        )
        knowledge_v = vectorized.knowledge_from_dataset(training)
        knowledge_r = reference.knowledge_from_dataset(training)
        assert set(knowledge_v) == set(knowledge_r)
        for user, footprint in knowledge_v.items():
            np.testing.assert_array_equal(footprint, knowledge_r[user])
        _assert_reident_identical(
            vectorized.attack(published, knowledge_v),
            reference.attack(published, knowledge_v),
        )

    def test_degenerate_traces_identical(self):
        datasets = _degenerate_datasets()
        training = datasets["all-stationary"]
        for name, published in datasets.items():
            vectorized = Reidentifier()
            reference = Reidentifier(ReidentificationConfig(engine="reference"))
            knowledge = vectorized.knowledge_from_dataset(training)
            _assert_reident_identical(
                vectorized.attack(published, knowledge),
                reference.attack(published, knowledge),
            )
            fp_v = FootprintReidentifier()
            fp_r = FootprintReidentifier(engine="reference")
            fp_knowledge = fp_v.knowledge_from_dataset(training)
            fp_knowledge_r = fp_r.knowledge_from_dataset(training)
            for user, footprint in fp_knowledge.items():
                np.testing.assert_array_equal(footprint, fp_knowledge_r[user])
            _assert_reident_identical(
                fp_v.attack(published, fp_knowledge),
                fp_r.attack(published, fp_knowledge),
            )
        # No knowledge at all: every prediction must be None on both engines.
        empty_v = Reidentifier().attack(datasets["single-fix"], {})
        assert all(v is None for v in empty_v.predicted.values())


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
        config = dict(search_radius_m=search_radius_m)
        vectorized = MultiTargetTracker(TrackingConfig(**config)).link_zones(dataset, zones)
        reference = MultiTargetTracker(
            TrackingConfig(engine="reference", **config)
        ).link_zones(dataset, zones)
        assert len(vectorized) == len(reference)
        for linkage_v, linkage_r in zip(vectorized, reference):
            assert linkage_v.incoming == linkage_r.incoming
            assert linkage_v.outgoing == linkage_r.outgoing
            assert linkage_v.links == linkage_r.links

    def test_degenerate_traces_identical(self):
        for name, dataset in _degenerate_datasets().items():
            zones = _zone_grid(dataset, 4, seed=13)
            vectorized = MultiTargetTracker().link_zones(dataset, zones)
            reference = MultiTargetTracker(
                TrackingConfig(engine="reference")
            ).link_zones(dataset, zones)
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
        vectorized = Wait4MeMechanism(Wait4MeConfig(**base)).publish(dataset).dataset
        reference = Wait4MeMechanism(
            Wait4MeConfig(engine="reference", **base)
        ).publish(dataset).dataset
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
