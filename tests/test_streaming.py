"""Streaming tier tests: incremental attacks pinned bitwise to batch.

The property suite generates randomized multi-user datasets — gappy sampling,
duplicate timestamps, stationary dwells, users with zero or one fix — and
asserts that every incremental attack's ``finalize()`` equals the batch
attack exactly (``==`` on the emitted dataclasses, which are float-for-float
comparisons), and that ``update_many`` over any chunking of a stream (one
point per chunk, random cuts, cuts inside equal timestamps) leaves the same
state and the same ``finalize()`` as the whole stream fed as one chunk,
returning ``None`` each time.  Deterministic tests cover the source
ordering contract, the roster every consumer is built on, when state
leaves the windows, the engine's ``mode="stream"`` routing and the
validation surfaces.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.attacks.djcluster import DjCluster, DjClusterConfig
from repro.attacks.poi_extraction import PoiExtractionConfig, PoiExtractor
from repro.attacks.reident import (
    FootprintReidentifier,
    ReidentificationConfig,
    Reidentifier,
)
from repro.core.trajectory import MobilityDataset, Trajectory
from repro.experiments.engine import EvaluationEngine, ExperimentSpec
from repro.experiments.worlds import make_world
from repro.experiments.workloads import split_train_publish
from repro.geo import kernels
from repro.geo.distance import haversine
from repro.mixzones.detection import MixZoneDetectionConfig, MixZoneDetector
import repro.streaming.mixzones as stream_mixzones
from repro.streaming import (
    OnlineReidentifier,
    ReplaySource,
    StreamChunk,
    StreamingCrossingDetector,
    StreamingDjCluster,
    StreamingMixZoneDetector,
    StreamingPoiExtractor,
    replay_detect_mix_zones,
    replay_extract_djclusters,
    replay_extract_staypoints,
    replay_find_crossings,
    replay_reidentify,
)

from .conftest import assert_bitwise
from .test_kernel_equivalence import _dwell_and_move_dataset, _random_dataset, _with_tied_meeting

BASE_LAT, BASE_LON = 45.764, 4.836


# ---------------------------------------------------------------------------
# Randomized datasets: dwells, movement, gaps, degenerate sampling
# ---------------------------------------------------------------------------


def _random_trajectory(rng: np.random.Generator, user_id: str, n: int) -> Trajectory:
    """A walk mixing dwells, movement, recording gaps and duplicate stamps."""
    moving = rng.random(n) < 0.6
    step_m = np.where(moving, rng.uniform(50.0, 400.0, n), rng.uniform(0.0, 8.0, n))
    bearings = rng.uniform(0.0, 2 * np.pi, n)
    dlat = step_m * np.cos(bearings) / 111_195.0
    dlon = step_m * np.sin(bearings) / (111_195.0 * np.cos(np.radians(BASE_LAT)))
    lats = BASE_LAT + rng.uniform(-0.01, 0.01) + np.cumsum(dlat)
    lons = BASE_LON + rng.uniform(-0.01, 0.01) + np.cumsum(dlon)
    intervals = rng.uniform(5.0, 240.0, n)
    intervals[rng.random(n) < 0.05] = 0.0  # duplicate timestamps
    intervals[rng.random(n) < 0.08] *= 100.0  # recording gaps
    times = 1_000_000.0 + np.cumsum(intervals)
    return Trajectory(user_id, times, lats, lons)


@st.composite
def random_datasets(draw, max_users: int = 5, max_points: int = 120):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_users = draw(st.integers(min_value=1, max_value=max_users))
    rng = np.random.default_rng(seed)
    trajectories = []
    for k in range(n_users):
        # Degenerate users ride along: empty and single-fix traces.
        n = int(rng.integers(0, max_points))
        if n == 0:
            trajectories.append(Trajectory.empty(f"u{k}"))
        else:
            trajectories.append(_random_trajectory(rng, f"u{k}", n))
    return MobilityDataset(trajectories)


@st.composite
def tied_datasets(draw):
    """``random_datasets`` plus, sometimes, a twin sharing u0's timestamps.

    The twin walks 20 m beside u0, so equal timestamps across users and
    crossings both occur.  Sometimes every clock ticks on whole minutes,
    which lands fixes exactly on sliding-window and merge-window bounds.
    """
    dataset = draw(random_datasets())
    if draw(st.booleans()):
        dataset = MobilityDataset(
            [
                Trajectory(t.user_id, np.round(t.timestamps / 60.0) * 60.0, t.lats, t.lons)
                for t in dataset
            ]
        )
    first = next(iter(dataset))
    if draw(st.booleans()) and len(first) > 0:
        twin = Trajectory(
            "twin", first.timestamps, first.lats + 20.0 / 111_195.0, first.lons
        )
        dataset = MobilityDataset(list(dataset) + [twin])
    return dataset


@st.composite
def latitude_spread_datasets(draw):
    """``tied_datasets`` with every other user moved from 45° to 70° north.

    Moved users keep their shape in meters (longitude offsets scaled by
    the cosine ratio), and the first of them gains twins 140 m and 380 m to
    its east.  At 70° each twin is nearly two 45° bins of longitude away at
    the radius it falls within (150 m, 400 m), so a chunk binned with a
    longitude step taken from an earlier, 45°-only chunk misses them.
    Sometimes the moved users start two hours late, so the early chunks
    hold 45° fixes only.
    """
    dataset = draw(tied_datasets())
    north = 70.0
    delay = draw(st.sampled_from([0.0, 7200.0]))
    scale = np.cos(np.radians(BASE_LAT)) / np.cos(np.radians(north))
    users = [
        Trajectory(
            t.user_id,
            t.timestamps + delay,
            t.lats + (north - BASE_LAT),
            BASE_LON + (t.lons - BASE_LON) * scale,
        )
        if k % 2
        else t
        for k, t in enumerate(dataset)
    ]
    moved = [t for t in users[1::2] if len(t) > 0]
    if moved:
        t = moved[0]
        metres_per_deg = 111_195.0 * np.cos(np.radians(t.lats))
        users += [
            Trajectory(f"{t.user_id}-e{east_m:.0f}", t.timestamps, t.lats,
                       t.lons + east_m / metres_per_deg)
            for east_m in (140.0, 380.0)
        ]
    return MobilityDataset(users)


@st.composite
def near_twin_datasets(draw):
    """``random_datasets`` plus co-locations at sub-micrometre distances.

    u0 gains a twin on its own fixes 1 s later (0 m apart) and a shadow
    3e-7 m north at its own times, so radii of 1e-7 m and 5e-7 m both
    confirm crossings.  A user stepping from the base point to 3 km off
    spans the extent that makes sub-micrometre bins overflow int64 keys,
    also when u0 and every other user have no fix.
    """
    dataset = draw(random_datasets())
    first = next(iter(dataset))
    extra = [Trajectory("far", [1_000_000.0, 1_000_100.0], [BASE_LAT, BASE_LAT + 0.03],
                        [BASE_LON, BASE_LON + 0.03])]
    if len(first) > 0:
        extra += [
            Trajectory("twin", first.timestamps + 1.0, first.lats, first.lons),
            Trajectory("shadow", first.timestamps, first.lats + 3e-7 / 111_195.0, first.lons),
        ]
    return MobilityDataset(list(dataset) + extra)


@st.composite
def dense_stay_datasets(draw):
    """Long, tightly sampled dwells: most fixes are stationary and resident.

    Every stationary fix then lands in a clique cell holding ``min_points``
    fixes or next to one, so ``finalize()``'s grid DBSCAN runs its
    dense-cell rule and witness tests as the rule, not the exception.
    """
    return _dwell_and_move_dataset(
        draw(st.integers(min_value=0, max_value=10_000)),
        n_users=draw(st.integers(min_value=1, max_value=3)),
        n_segments=6,
        interval_s=5.0,
        dwell_fixes=(30, 150),
        jitter_deg=draw(st.sampled_from([5e-6, 3e-5, 1.5e-4])),
    )


@st.composite
def chunk_cuts(draw, whole):
    """Chunk boundaries over a stream chunk: ``0 < cut < len(whole)``.

    Covers size-1 chunks, the whole stream as one chunk, random cuts, and
    cuts between two points sharing a timestamp.
    """
    n = len(whole)
    mode = draw(st.sampled_from(["single", "whole", "random", "ties"]))
    if mode == "single":
        return list(range(1, n))
    if mode == "whole" or n < 2:
        return []
    cuts = set(draw(st.lists(st.integers(1, n - 1), max_size=8)))
    if mode == "ties":
        ts = whole.timestamps
        cuts |= set((np.flatnonzero(ts[1:] == ts[:-1]) + 1).tolist())
    return sorted(cuts)


_COLUMNS = ("user_index", "pos", "timestamps", "lats", "lons")


def _stream(dataset):
    """The dataset's whole stream as one chunk, by its definition.

    Rows in the order of a stable sort of the flattened timestamps; each
    row's user and position follow from the columnar offsets.
    """
    traces = dataset.columnar()
    flat = np.argsort(traces.timestamps, kind="stable")
    users = np.searchsorted(traces.offsets, flat, side="right") - 1
    return StreamChunk(
        tuple(traces.user_ids),
        users,
        flat - traces.offsets[users],
        traces.timestamps[flat],
        traces.lats[flat],
        traces.lons[flat],
    )


def _chunked(whole, cuts):
    """``whole`` sliced into consecutive chunks at ``cuts``."""
    bounds = [0, *cuts, len(whole)]
    return [
        StreamChunk(whole.user_ids, *(getattr(whole, name)[lo:hi] for name in _COLUMNS))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _points(whole):
    """``whole`` as one-point chunks: one arrival per call."""
    return _chunked(whole, range(1, len(whole)))


def _assert_same_columns(a, b):
    """Two chunks hold the same roster and bitwise-equal columns."""
    assert a.user_ids == b.user_ids
    for name in _COLUMNS:
        assert_bitwise(getattr(a, name), getattr(b, name))


def _assert_same_resident(a, b):
    """Two DJ-Cluster consumers hold bitwise-equal resident columns."""
    n = a.stationary_points
    assert b.stationary_points == n
    for name in ("x", "y", "lat", "lon", "ts"):
        assert_bitwise(getattr(a._fixes, name)[:n], getattr(b._fixes, name)[:n])
    assert np.array_equal(a._fixes.user[:n], b._fixes.user[:n])


def _assert_same_state(a, b):
    """Two consumers of one class hold equal state (floats compared with ==)."""
    if isinstance(a, StreamingDjCluster):
        _assert_same_resident(a, b)
    elif isinstance(a, StreamingMixZoneDetector):
        _assert_same_state(a.crossings, b.crossings)
    elif isinstance(a, StreamingPoiExtractor):
        assert a._stays == b._stays
        assert a._windows.keys() == b._windows.keys()
        for user_id, window in a._windows.items():
            other = b._windows[user_id]
            assert (window.ts, window.lats, window.lons, window.verified) == (
                other.ts, other.lats, other.lons, other.verified
            )
    elif isinstance(a, StreamingCrossingDetector):
        for held, other in zip(a._window, b._window):
            assert_bitwise(held, other)
        assert [(win, list(bucket.items())) for win, bucket in a._pending.items()] == [
            (win, list(bucket.items())) for win, bucket in b._pending.items()
        ]
        assert a._emitted == b._emitted
    else:
        assert isinstance(a, OnlineReidentifier)
        assert a.footprints().keys() == b.footprints().keys()
        for user_id, cells in a.footprints().items():
            assert np.array_equal(b.footprints()[user_id], cells)
        _assert_same_state(a._extractor, b._extractor)


def _whole_and_chunked(make, whole, chunks):
    """One consumer fed the whole stream, another its chunks; all return ``None``."""
    one, chunked = make(), make()
    assert one.update_many(whole) is None
    for chunk in chunks:
        assert chunked.update_many(chunk) is None
    return one, chunked


def _feed_alternating(consumer, whole, size):
    """Feed ``whole`` in parts of ``size``: as one chunk and point by point in turn."""
    for k, part in enumerate(_chunked(whole, range(size, len(whole), size))):
        for chunk in _points(part) if k % 2 else [part]:
            assert consumer.update_many(chunk) is None


class TestUpdateManyEqualsUpdate:
    """Many ``update_many`` calls over any chunking equal one whole-stream update."""

    @given(data=st.data(), min_duration_s=st.sampled_from([120.0, 600.0]))
    @settings(max_examples=40, deadline=None)
    def test_staypoints(self, data, min_duration_s):
        dataset = data.draw(tied_datasets())
        whole = _stream(dataset)
        chunks = _chunked(whole, data.draw(chunk_cuts(whole)))
        config = PoiExtractionConfig(min_duration_s=min_duration_s, max_diameter_m=150.0)
        one, chunked = _whole_and_chunked(
            lambda: StreamingPoiExtractor(config, user_ids=whole.user_ids), whole, chunks
        )
        _assert_same_state(chunked, one)
        assert chunked.finalize() == one.finalize()

    @given(
        data=st.data(),
        eps_m=st.sampled_from([60.0, 150.0]),
        min_points=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_djcluster(self, data, eps_m, min_points):
        dataset = data.draw(st.one_of(tied_datasets(), dense_stay_datasets()))
        whole = _stream(dataset)
        chunks = _chunked(whole, data.draw(chunk_cuts(whole)))
        config = DjClusterConfig(eps_m=eps_m, min_points=min_points)
        one, chunked = _whole_and_chunked(
            lambda: StreamingDjCluster(config, user_ids=whole.user_ids), whole, chunks
        )
        _assert_same_resident(chunked, one)
        assert chunked.finalize() == one.finalize()
        _assert_same_resident(chunked, one)

    def test_djcluster_zero_duration_segment_is_slow(self):
        """A repeated fix (same stamp, same place) is stationary under any chunking.

        Its batched speed is 0/0; only the scalar re-check decides it slow,
        as :meth:`Trajectory.speeds` does.
        """
        far = 5_000.0 / 111_195.0
        traj = Trajectory(
            "u0",
            [1_000_000.0, 1_000_000.0, 1_000_100.0, 1_000_200.0],
            [BASE_LAT, BASE_LAT, BASE_LAT + far, BASE_LAT + 2 * far],
            [BASE_LON] * 4,
        )
        dataset = MobilityDataset([traj])
        whole = _stream(dataset)
        config = DjClusterConfig(min_points=2)
        for cuts in ([], [1], [2], [1, 2, 3]):
            chunked = StreamingDjCluster(config, user_ids=whole.user_ids)
            for chunk in _chunked(whole, cuts):
                chunked.update_many(chunk)
            assert chunked.stationary_points == 2
            assert_bitwise(chunked._fixes.ts[:2], np.array([1_000_000.0] * 2))
            assert chunked.finalize() == DjCluster(config).extract_dataset(dataset)

    @given(
        data=st.data(),
        radius_m=st.sampled_from([150.0, 400.0]),
        merge_gap_s=st.sampled_from([0.0, 600.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_crossings(self, data, radius_m, merge_gap_s):
        dataset = data.draw(st.one_of(tied_datasets(), latitude_spread_datasets()))
        whole = _stream(dataset)
        chunks = _chunked(whole, data.draw(chunk_cuts(whole)))
        config = MixZoneDetectionConfig(
            radius_m=radius_m, max_time_gap_s=180.0, merge_gap_s=merge_gap_s
        )
        one, chunked = _whole_and_chunked(
            lambda: StreamingCrossingDetector(config, user_ids=whole.user_ids),
            whole,
            chunks,
        )
        _assert_same_state(chunked, one)
        assert chunked.finalize() == one.finalize()

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_online_reident(self, data):
        published = data.draw(tied_datasets())
        training = data.draw(random_datasets())
        assume(training.n_points > 0)
        whole = _stream(published)
        chunks = _chunked(whole, data.draw(chunk_cuts(whole)))
        poi_attacker = Reidentifier(ReidentificationConfig(match_distance_m=250.0))
        poi_knowledge = poi_attacker.knowledge_from_dataset(training)
        fp_attacker = FootprintReidentifier()
        fp_knowledge = fp_attacker.knowledge_from_dataset(
            training, bbox=training.bbox.expanded(500.0)
        )
        one, chunked = _whole_and_chunked(
            lambda: OnlineReidentifier(
                poi_attacker, fp_attacker, poi_knowledge, fp_knowledge,
                user_ids=whole.user_ids,
            ),
            whole,
            chunks,
        )
        _assert_same_state(chunked, one)
        if published.n_points:
            (a_poi, a_fp), (b_poi, b_fp) = chunked.finalize(published), one.finalize(published)
            assert (a_poi.scores, a_poi.predicted) == (b_poi.scores, b_poi.predicted)
            assert (a_fp.scores, a_fp.predicted) == (b_fp.scores, b_fp.predicted)

    def test_update_and_update_many_interleave(self):
        """One-point chunks and longer chunks may alternate on one consumer."""
        world = make_world("standard:scale=tiny,seed=5")
        whole = _stream(world.dataset)
        config = DjClusterConfig(eps_m=100.0, min_points=4)
        makers = [
            lambda: StreamingPoiExtractor(PoiExtractionConfig(), user_ids=whole.user_ids),
            lambda: StreamingDjCluster(config, user_ids=whole.user_ids),
            lambda: StreamingCrossingDetector(
                MixZoneDetectionConfig(radius_m=300.0), user_ids=whole.user_ids
            ),
            lambda: StreamingMixZoneDetector(
                MixZoneDetectionConfig(radius_m=300.0), user_ids=whole.user_ids
            ),
        ]
        for make in makers:
            one, mixed = make(), make()
            one.update_many(whole)
            _feed_alternating(mixed, whole, 97)
            _assert_same_state(mixed, one)
            assert mixed.finalize() == one.finalize()

    def test_online_reident_interleaves(self):
        world = make_world("standard:scale=tiny,seed=5")
        training, published = split_train_publish(world, 0.5)
        poi_attacker = Reidentifier()
        poi_knowledge = poi_attacker.knowledge_from_dataset(training)
        fp_attacker = FootprintReidentifier()
        fp_knowledge = fp_attacker.knowledge_from_dataset(training)
        whole = _stream(published)

        def make():
            return OnlineReidentifier(
                poi_attacker, fp_attacker, poi_knowledge, fp_knowledge,
                user_ids=whole.user_ids,
            )

        one, mixed = make(), make()
        one.update_many(whole)
        _feed_alternating(mixed, whole, 7)
        _assert_same_state(mixed, one)
        (a_poi, a_fp), (b_poi, b_fp) = mixed.finalize(published), one.finalize(published)
        assert (a_poi.scores, a_poi.predicted) == (b_poi.scores, b_poi.predicted)
        assert (a_fp.scores, a_fp.predicted) == (b_fp.scores, b_fp.predicted)


class TestStreamingStaypointsProperty:
    @given(
        dataset=random_datasets(),
        min_duration_s=st.sampled_from([120.0, 600.0]),
        max_diameter_m=st.sampled_from([100.0, 250.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_equals_batch(self, dataset, min_duration_s, max_diameter_m):
        config = PoiExtractionConfig(
            min_duration_s=min_duration_s,
            max_diameter_m=max_diameter_m,
            merge_distance_m=max_diameter_m / 2.0,
        )
        batch = PoiExtractor(config).extract_dataset(dataset)
        stream = replay_extract_staypoints(dataset, config)
        assert stream == batch


class TestStreamingDjClusterProperty:
    @given(
        dataset=st.one_of(random_datasets(), dense_stay_datasets()),
        eps_m=st.sampled_from([60.0, 150.0]),
        min_points=st.sampled_from([3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_equals_batch(self, dataset, eps_m, min_points):
        config = DjClusterConfig(eps_m=eps_m, min_points=min_points)
        batch = DjCluster(config).extract_dataset(dataset)
        stream = replay_extract_djclusters(dataset, config)
        assert stream == batch


class TestStreamingMixZonesProperty:
    @given(
        dataset=st.one_of(random_datasets(), latitude_spread_datasets()),
        radius_m=st.sampled_from([150.0, 400.0]),
        merge_gap_s=st.sampled_from([0.0, 600.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_equals_batch(self, dataset, radius_m, merge_gap_s):
        config = MixZoneDetectionConfig(
            radius_m=radius_m, max_time_gap_s=180.0, merge_gap_s=merge_gap_s
        )
        detector = MixZoneDetector(config)
        assert replay_find_crossings(dataset, config) == detector.find_crossings(dataset)
        assert replay_detect_mix_zones(dataset, config) == detector.detect(dataset)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        radius_m=st.floats(min_value=40.0, max_value=300.0),
        merge_gap_s=st.sampled_from([0.0, 0.5, 600.0, 3600.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_zones_equal_the_per_event_oracle(self, seed, radius_m, merge_gap_s):
        # Three users meet at one fix, tied on (t, lat, lon) and inserted out
        # of name order: only the user-id tie-break orders their events.
        dataset = _with_tied_meeting(
            _random_dataset(seed, n_users=4, n_points=30, span_s=1800.0)
        )
        config = MixZoneDetectionConfig(radius_m=radius_m, merge_gap_s=merge_gap_s)
        oracle = MixZoneDetector(config).zones_from_crossings(
            replay_find_crossings(dataset, config)
        )
        zones = replay_detect_mix_zones(dataset, config)
        assert zones == oracle
        assert any({"w1", "w3", "w12"} <= zone.participants for zone in zones)

    @given(data=st.data(), radius_m=st.sampled_from([1e-7, 5e-7, 5_000.0]))
    @settings(max_examples=30, deadline=None)
    def test_bin_edge_radii_equal_batch(self, data, radius_m):
        """Sub-micrometre cells (renumbered bins) and 5 km cells (dense bins).

        At 1e-7 and 5e-7 m the bin space of (window + chunk) overflows int64
        keys and is renumbered by ``_compressed``; at 5 km a few bins hold
        every fix, and the pair batches are capped at 7 pairs.
        """
        dataset = data.draw(near_twin_datasets())
        whole = _stream(dataset)
        cuts = data.draw(chunk_cuts(whole))
        config = MixZoneDetectionConfig(radius_m=radius_m, max_time_gap_s=180.0)
        detector = MixZoneDetector(config)
        crossings, zones = detector.find_crossings(dataset), detector.detect(dataset)
        with mock.patch.object(kernels, "_MAX_PAIRS_PER_BATCH", 7), mock.patch.object(
            kernels, "_compressed", wraps=kernels._compressed
        ) as compressed:
            assert replay_find_crossings(dataset, config) == crossings
            assert replay_detect_mix_zones(dataset, config) == zones
            chunked = StreamingCrossingDetector(config, user_ids=whole.user_ids)
            for chunk in _chunked(whole, cuts):
                chunked.update_many(chunk)
            assert chunked.finalize() == crossings
        assert compressed.called == (radius_m < 1.0)

    def test_antimeridian_replay_equals_batch(self):
        """Two users 11 m apart across ±180°: longitude is not wrapped.

        The batch detector and its scalar reference find no crossing, and
        neither does the replay, whose bins are the batch kernel's.
        """
        times = [0.0, 30.0, 60.0]
        east = Trajectory("east", times, [0.0] * 3, [179.99995] * 3)
        west = Trajectory("west", times, [0.0] * 3, [-179.99995] * 3)
        assert haversine(0.0, 179.99995, 0.0, -179.99995) < 12.0
        dataset = MobilityDataset([east, west])
        config = MixZoneDetectionConfig()
        detector = MixZoneDetector(config)
        batch = detector.find_crossings(dataset)
        assert batch == detector.find_crossings_reference(dataset)
        assert replay_find_crossings(dataset, config) == batch
        assert replay_detect_mix_zones(dataset, config) == detector.detect(dataset)


class TestOnlineReidentProperty:
    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_incremental_equals_batch(self, seed):
        rng = np.random.default_rng(seed)
        dataset = MobilityDataset(
            [_random_trajectory(rng, f"u{k}", 80) for k in range(3)]
        )
        world = _DatasetWorld(dataset)
        training, published = split_train_publish(world, 0.5)
        poi_attacker = Reidentifier(ReidentificationConfig(match_distance_m=250.0))
        poi_knowledge = poi_attacker.knowledge_from_dataset(training)
        fp_attacker = FootprintReidentifier()
        fp_knowledge = fp_attacker.knowledge_from_dataset(
            training, bbox=dataset.bbox.expanded(500.0)
        )
        stream_poi, stream_fp = replay_reidentify(
            published, poi_attacker, fp_attacker, poi_knowledge, fp_knowledge
        )
        batch_poi = poi_attacker.attack(published, poi_knowledge)
        batch_fp = fp_attacker.attack(published, fp_knowledge)
        assert stream_poi.predicted == batch_poi.predicted
        assert stream_poi.scores == batch_poi.scores
        assert stream_fp.predicted == batch_fp.predicted
        assert stream_fp.scores == batch_fp.scores


class _DatasetWorld:
    """Minimal world wrapper for split_train_publish over a raw dataset."""

    def __init__(self, dataset: MobilityDataset) -> None:
        self.dataset = dataset


# ---------------------------------------------------------------------------
# The source: ordering contract
# ---------------------------------------------------------------------------


def _concatenated(chunks, user_ids):
    """Consecutive chunks as one chunk (their columns concatenated)."""
    if not chunks:
        return dataclasses.replace(_stream(MobilityDataset()), user_ids=user_ids)
    return StreamChunk(
        user_ids,
        *(np.concatenate([getattr(chunk, name) for chunk in chunks]) for name in _COLUMNS),
    )


class TestReplaySource:
    @given(dataset=random_datasets())
    @settings(max_examples=25, deadline=None)
    def test_yields_stable_global_timestamp_order(self, dataset):
        traces = dataset.columnar()
        source = ReplaySource(dataset)
        stream = _concatenated(list(source.chunks()), source.user_ids)
        assert len(stream) == traces.n_points
        assert stream.user_ids == source.user_ids == tuple(traces.user_ids)
        # Non-decreasing timestamps, ties broken by (user_index, pos) — the
        # order a stable sort of the flattened timestamp array produces.
        keys = list(zip(stream.timestamps.tolist(), stream.user_index.tolist(), stream.pos.tolist()))
        assert keys == sorted(keys)
        flat = traces.offsets[stream.user_index] + stream.pos
        assert np.array_equal(flat, np.argsort(traces.timestamps, kind="stable"))

    @given(dataset=tied_datasets(), chunk_points=st.sampled_from([1, 2, 7, 64, 4096]))
    @settings(max_examples=40, deadline=None)
    def test_chunks_concatenate_to_the_per_point_order(self, dataset, chunk_points):
        """Chunks of any target length concatenate to the stable-sort order."""
        source = ReplaySource(dataset)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.streaming.sources.CHUNK_POINTS", chunk_points)
            chunks = list(source.chunks())
        assert all(len(chunk) > 0 for chunk in chunks)
        _assert_same_columns(_concatenated(chunks, source.user_ids), _stream(dataset))
        # A chunk exceeds the target only by fixes tied at its horizon.
        for chunk in chunks:
            ties = int(np.unique(chunk.timestamps, return_counts=True)[1].max())
            assert len(chunk) <= chunk_points + (ties - 1) * len(source.user_ids)

    def test_chunks_of_a_memmapped_world(self, tmp_path):
        from repro.io.world_store import WorldStore

        world = make_world("standard:scale=tiny,seed=5")
        path = tmp_path / "world"
        WorldStore.write(world.dataset, path)
        source = ReplaySource(WorldStore.open(path).dataset())
        _assert_same_columns(
            _concatenated(list(source.chunks()), source.user_ids), _stream(world.dataset)
        )

    def test_empty_dataset(self):
        source = ReplaySource(MobilityDataset())
        assert list(source.chunks()) == []
        assert source.user_ids == ()
        assert source.n_points == 0

    def test_point_values_match_columnar_view(self):
        world = make_world("standard:scale=tiny,seed=5")
        traces = world.dataset.columnar()
        for chunk in ReplaySource(world.dataset).chunks():
            flat = traces.offsets[chunk.user_index] + chunk.pos
            assert_bitwise(chunk.lats, traces.lats[flat])
            assert_bitwise(chunk.lons, traces.lons[flat])
            assert_bitwise(chunk.timestamps, traces.timestamps[flat])
            assert chunk.user_ids == tuple(traces.user_ids)


# ---------------------------------------------------------------------------
# The roster: every consumer is built on its source's users
# ---------------------------------------------------------------------------


def _abc_dataset():
    """``b`` first appears far away at t=0, ``c`` at t=1; then ``a`` meets ``b``."""
    a = Trajectory("a", [100.0, 110.0], [BASE_LAT] * 2, [BASE_LON] * 2)
    b = Trajectory("b", [0.0, 105.0], [BASE_LAT + 0.5, BASE_LAT], [BASE_LON] * 2)
    c = Trajectory("c", [1.0, 5000.0], [BASE_LAT - 0.5] * 2, [BASE_LON] * 2)
    return MobilityDataset([a, b, c])


def _consumers(training, **user_ids):
    """One consumer of each kind; ``user_ids=`` is passed through if given."""
    poi_attacker, fp_attacker = Reidentifier(), FootprintReidentifier()
    poi_knowledge = poi_attacker.knowledge_from_dataset(training)
    fp_knowledge = fp_attacker.knowledge_from_dataset(training)
    return [
        lambda: StreamingPoiExtractor(**user_ids),
        lambda: StreamingDjCluster(**user_ids),
        lambda: StreamingCrossingDetector(**user_ids),
        lambda: StreamingMixZoneDetector(**user_ids),
        lambda: OnlineReidentifier(
            poi_attacker, fp_attacker, poi_knowledge, fp_knowledge, **user_ids
        ),
    ]


class TestRoster:
    def test_user_ids_are_required(self):
        for make in _consumers(_abc_dataset()):
            with pytest.raises(TypeError, match="user_ids"):
                make()

    def test_a_mismatched_roster_raises(self):
        """A chunk indexes its source's roster; another roster is refused."""
        dataset = _abc_dataset()
        chunk = next(ReplaySource(dataset).chunks())
        empty = _chunked(chunk, [0])[0]
        for roster in (("c", "b", "a"), ("a", "b"), ("a", "b", "c", "d")):
            for make in _consumers(dataset, user_ids=roster):
                consumer = make()
                for fed in (chunk, empty):
                    with pytest.raises(ValueError, match="roster"):
                        consumer.update_many(fed)

    def test_users_are_labelled_by_the_source_roster(self):
        """``b`` and ``c`` arrive before ``a``: the crossing is still a–b."""
        dataset = _abc_dataset()
        config = MixZoneDetectionConfig()
        batch = MixZoneDetector(config).find_crossings(dataset)
        assert [(e.user_a, e.user_b) for e in batch] == [("a", "b")]
        source = ReplaySource(dataset)
        for chunks in (list(source.chunks()), _points(_stream(dataset))):
            detector = StreamingCrossingDetector(config, user_ids=source.user_ids)
            for chunk in chunks:
                detector.update_many(chunk)
            assert detector.finalize() == batch

    def test_an_empty_trajectory_user_appears_in_finalize(self):
        """A user with no fix is in ``finalize()`` with no POI, as in batch."""
        dwell = Trajectory(
            "a", 1_000_000.0 + 60.0 * np.arange(30), [BASE_LAT] * 30, [BASE_LON] * 30
        )
        dataset = MobilityDataset([Trajectory.empty("e"), dwell])
        source = ReplaySource(dataset)
        staypoints = PoiExtractor().extract_dataset(dataset)
        djclusters = DjCluster().extract_dataset(dataset)
        assert staypoints["e"] == [] and djclusters["e"] == [] and staypoints["a"]
        for consumer, batch in (
            (StreamingPoiExtractor(user_ids=source.user_ids), staypoints),
            (StreamingDjCluster(user_ids=source.user_ids), djclusters),
        ):
            for chunk in source.chunks():
                consumer.update_many(chunk)
            out = consumer.finalize()
            assert list(out) == ["e", "a"]
            assert out == batch


# ---------------------------------------------------------------------------
# Per-arrival state: what leaves the windows before finalize()
# ---------------------------------------------------------------------------


class TestUpdateEvents:
    def test_staypoint_emitted_at_window_close_not_finalize(self):
        """A stay followed by a departure is recorded, and drained, on arrival."""
        dwell = [(1_000_000.0 + 60.0 * i, BASE_LAT, BASE_LON) for i in range(20)]
        away = [(1_000_000.0 + 60.0 * 20 + 30.0 * i, BASE_LAT + 0.05, BASE_LON) for i in range(5)]
        traj = Trajectory(
            "u0",
            [t for t, _, _ in dwell + away],
            [lat for _, lat, _ in dwell + away],
            [lon for _, _, lon in dwell + away],
        )
        extractor = StreamingPoiExtractor(
            PoiExtractionConfig(min_duration_s=600.0), user_ids=("u0",)
        )
        for chunk in _points(_stream(MobilityDataset([traj]))):
            extractor.update_many(chunk)
        stays = extractor._stays["u0"]
        assert len(stays) == 1
        assert stays[0].n_points == 20
        # The dwell's fixes left the window when the stay closed.
        assert extractor._windows["u0"].ts == [t for t, _, _ in away]

    def test_djcluster_stationarity_resolves_on_the_next_fix(self):
        """A fix turns resident when the fix after it arrives; the last at finalize."""
        times = [1_000_000.0 + 30.0 * i for i in range(10)]
        traj = Trajectory("u0", times, [BASE_LAT] * 10, [BASE_LON] * 10)
        clusterer = StreamingDjCluster(
            DjClusterConfig(eps_m=100.0, min_points=4), user_ids=("u0",)
        )
        for chunk in _points(_stream(MobilityDataset([traj]))):
            assert clusterer.update_many(chunk) is None
        assert clusterer.stationary_points == 9
        pois = clusterer.finalize()
        assert clusterer.stationary_points == 10
        assert len(pois["u0"]) == 1
        assert pois["u0"][0].n_points == 10
        # finalize is idempotent: a second call returns the same POIs.
        assert clusterer.finalize() == pois
        assert clusterer.stationary_points == 10

    def test_crossing_event_emitted_once_window_closes(self):
        config = MixZoneDetectionConfig(
            radius_m=100.0, max_time_gap_s=60.0, merge_gap_s=120.0
        )
        a = Trajectory("a", [0.0, 10.0], [BASE_LAT] * 2, [BASE_LON] * 2)
        b = Trajectory(
            "b", [5.0, 15.0, 10_000.0], [BASE_LAT] * 3, [BASE_LON, BASE_LON, BASE_LON + 1.0]
        )
        detector = StreamingCrossingDetector(config, user_ids=("a", "b"))
        for chunk in _points(_stream(MobilityDataset([a, b]))):
            detector.update_many(chunk)
        # The far-future fix of user b pushed time past the merge window, so
        # its arrival closed the crossing, before finalize.
        assert detector._pending == {}
        closed = [event for _, event in detector._emitted]
        assert len(closed) == 1
        assert {closed[0].user_a, closed[0].user_b} == {"a", "b"}
        assert detector.finalize() == closed

    def test_crossing_keeps_the_smallest_position_pair(self):
        """A later-arriving candidate with smaller positions replaces the held one.

        (a1, b0) is confirmed at t=20, (a0, b1) only at t=30, both in merge
        window 0; the batch kernel keeps the smallest (pos_a, pos_b), i.e.
        (0, 1), so the stream must swap it in — within a chunk and across
        chunks.
        """
        far = BASE_LON + 0.05
        a = Trajectory("a", [0.0, 20.0], [BASE_LAT] * 2, [BASE_LON, far])
        b = Trajectory("b", [10.0, 30.0], [BASE_LAT] * 2, [far, BASE_LON])
        dataset = MobilityDataset([a, b])
        config = MixZoneDetectionConfig(radius_m=100.0, max_time_gap_s=180.0, merge_gap_s=600.0)
        batch = MixZoneDetector(config).find_crossings(dataset)
        assert len(batch) == 1 and batch[0].timestamp == 15.0  # midpoint of a0, b1
        source = ReplaySource(dataset)
        whole = _stream(dataset)
        for chunks in (source.chunks(), _chunked(whole, [2]), _points(whole)):
            chunked = StreamingCrossingDetector(config, user_ids=source.user_ids)
            for chunk in chunks:
                chunked.update_many(chunk)
            assert chunked.finalize() == batch

    def test_window_keeps_a_fix_exactly_one_time_gap_back(self):
        """A fix ``max_time_gap_s`` before a chunk's last row stays in the window.

        ``a`` at t=0 meets ``c`` at t=180 (gap 180 s, accepted as in batch);
        ``b``'s far fix at t=180 ends the first chunk, so ``a``'s fix sits
        exactly on the window's lower bound when ``c`` arrives.
        """
        a = Trajectory("a", [0.0], [BASE_LAT], [BASE_LON])
        b = Trajectory("b", [180.0], [BASE_LAT + 0.5], [BASE_LON])
        c = Trajectory("c", [180.0], [BASE_LAT], [BASE_LON])
        dataset = MobilityDataset([a, b, c])
        config = MixZoneDetectionConfig(radius_m=100.0, max_time_gap_s=180.0)
        batch = MixZoneDetector(config).find_crossings(dataset)
        assert [(e.user_a, e.user_b) for e in batch] == [("a", "c")]
        whole = _stream(dataset)
        for cuts in ([], [1], [2], [1, 2]):
            detector = StreamingCrossingDetector(config, user_ids=whole.user_ids)
            for chunk in _chunked(whole, cuts):
                detector.update_many(chunk)
            assert detector.finalize() == batch

    def test_far_apart_users_reach_no_radius_test(self, monkeypatch):
        """Two users in lockstep 5 km apart: the bins keep every pair away.

        Every fix of one user is inside the other's time window, so a join
        over the whole window would send each pair to ``haversine_above``.
        """
        n = 30
        times = np.arange(n) * 10.0
        far = BASE_LON + 5_000.0 / (111_195.0 * np.cos(np.radians(BASE_LAT)))
        a = Trajectory("a", times, [BASE_LAT] * n, [BASE_LON] * n)
        b = Trajectory("b", times, [BASE_LAT] * n, [far] * n)
        source = ReplaySource(MobilityDataset([a, b]))
        tested = []
        real = stream_mixzones.haversine_above

        def spy(lat1, lon1, lat2, lon2, threshold):
            tested.append(np.size(lat1))
            return real(lat1, lon1, lat2, lon2, threshold)

        monkeypatch.setattr(stream_mixzones, "haversine_above", spy)
        config = MixZoneDetectionConfig(radius_m=100.0, max_time_gap_s=120.0)
        for chunks in (source.chunks(), _points(_stream(MobilityDataset([a, b])))):
            detector = StreamingCrossingDetector(config, user_ids=source.user_ids)
            for chunk in chunks:
                detector.update_many(chunk)
            assert detector.finalize() == []
        assert tested and not any(tested)

    def test_online_reident_requires_a_grid(self):
        with pytest.raises(ValueError):
            OnlineReidentifier(
                Reidentifier(), FootprintReidentifier(), {}, {}, grid=None, user_ids=()
            )


# ---------------------------------------------------------------------------
# Engine routing and validation
# ---------------------------------------------------------------------------


class TestEngineStreamMode:
    def test_stream_rows_equal_batch_rows(self):
        spec = ExperimentSpec(
            name="stream-mode-test",
            mechanisms=["identity", "downsampling:factor=5"],
            attacks=[
                "poi-retrieval:algorithm=staypoint",
                "poi-retrieval:algorithm=djcluster",
                "zone-census:radius_m=100",
            ],
            worlds=["standard:scale=tiny,seed=5"],
            seeds=[0],
        )
        batch = EvaluationEngine(cache=False).run(spec)
        stream = EvaluationEngine(cache=False).run(
            dataclasses.replace(spec, mode="stream")
        )
        assert stream == batch

    def test_reident_stream_rows_equal_batch_rows(self):
        spec = ExperimentSpec(
            name="stream-mode-reident-test",
            mechanisms=["pseudonyms:seed=1"],
            attacks=["reident:train_fraction=0.5"],
            worlds=["standard:scale=tiny,seed=5"],
            seeds=[0],
            input="publish-half:train_fraction=0.5",
        )
        batch = EvaluationEngine(cache=False).run(spec)
        stream = EvaluationEngine(cache=False).run(
            dataclasses.replace(spec, mode="stream")
        )
        assert stream == batch

    def test_non_streaming_attack_falls_back_with_warning_and_provenance(
        self, monkeypatch
    ):
        import warnings

        from repro.experiments import engine as engine_module

        monkeypatch.setattr(engine_module, "_STREAM_FALLBACK_WARNED", set())
        spec = ExperimentSpec(
            name="stream-fallback-test",
            mechanisms=["promesse:zone_radius_m=100.0,swap=always,seed=0"],
            attacks=["tracking"],  # no 'execution' parameter: batch either way
            worlds=["standard:scale=tiny,seed=5"],
            seeds=[0],
        )
        batch = EvaluationEngine(cache=False).run(spec)
        with pytest.warns(RuntimeWarning, match="'tracking'.*batch mode"):
            stream = EvaluationEngine(cache=False).run(
                dataclasses.replace(spec, mode="stream")
            )
        # The fallback is recorded in row provenance, and the numbers are
        # exactly the batch numbers.
        assert all(row["stream_fallback"] is True for row in stream)
        stripped = [
            {k: v for k, v in row.items() if k != "stream_fallback"} for row in stream
        ]
        assert stripped == batch
        # Warned once per attack name: a repeat run stays quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            EvaluationEngine(cache=False).run(dataclasses.replace(spec, mode="stream"))

    def test_streaming_capable_attacks_do_not_carry_the_marker(self):
        spec = ExperimentSpec(
            name="stream-no-fallback-test",
            mechanisms=["identity"],
            attacks=["zone-census:radius_m=100"],
            worlds=["standard:scale=tiny,seed=5"],
            seeds=[0],
        )
        stream = EvaluationEngine(cache=False).run(
            dataclasses.replace(spec, mode="stream")
        )
        assert all("stream_fallback" not in row for row in stream)

    def test_mode_changes_the_cache_key(self):
        spec = ExperimentSpec(
            name="stream-mode-key-test",
            mechanisms=["identity"],
            attacks=["zone-census:radius_m=100"],
            worlds=["standard:scale=tiny,seed=5"],
            seeds=[0],
        )
        engine = EvaluationEngine()
        engine.run(spec)
        misses = engine.cache_misses
        engine.run(dataclasses.replace(spec, mode="stream"))
        assert engine.cache_misses == 2 * misses  # stream cells did not alias

    def test_unknown_mode_rejected(self):
        spec = ExperimentSpec(name="bad", mechanisms=["identity"], mode="live")
        with pytest.raises(Exception, match="mode"):
            EvaluationEngine(cache=False).run(spec)

    def test_unknown_execution_rejected(self):
        from repro.api.evaluators import (
            PoiRetrievalEvaluator,
            ReidentEvaluator,
            ZoneCensusEvaluator,
        )

        for cls in (PoiRetrievalEvaluator, ReidentEvaluator, ZoneCensusEvaluator):
            with pytest.raises(Exception, match="execution"):
                cls(execution="online")
