"""Tests for the Trajectory data model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trajectory import Point, Trajectory

from .conftest import make_line_trajectory


class TestPoint:
    def test_ordering_by_timestamp(self):
        earlier = Point(100.0, 45.0, 4.0)
        later = Point(200.0, 44.0, 3.0)
        assert earlier < later
        assert sorted([later, earlier])[0] is earlier

    def test_distance_and_time(self):
        a = Point(0.0, 45.0, 4.0)
        b = Point(10.0, 45.0, 4.001)
        assert a.distance_to(b) == pytest.approx(78.0, rel=0.02)
        assert a.time_to(b) == 10.0
        assert b.time_to(a) == -10.0

    def test_speed(self):
        a = Point(0.0, 45.0, 4.0)
        b = Point(100.0, 45.0, 4.001)
        assert a.speed_to(b) == pytest.approx(a.distance_to(b) / 100.0)
        same_time = Point(0.0, 45.0, 4.001)
        assert a.speed_to(same_time) == np.inf
        assert a.speed_to(Point(0.0, 45.0, 4.0)) == 0.0


class TestConstruction:
    def test_sorts_by_timestamp(self):
        traj = Trajectory("u", [30.0, 10.0, 20.0], [45.3, 45.1, 45.2], [4.3, 4.1, 4.2])
        np.testing.assert_array_equal(traj.timestamps, [10.0, 20.0, 30.0])
        np.testing.assert_array_equal(traj.lats, [45.1, 45.2, 45.3])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trajectory("u", [1.0, 2.0], [45.0], [4.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Trajectory("u", [1.0], [np.nan], [4.0])
        with pytest.raises(ValueError):
            Trajectory("u", [np.inf], [45.0], [4.0])

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Trajectory("u", [1.0], [95.0], [4.0])
        with pytest.raises(ValueError):
            Trajectory("u", [1.0], [45.0], [190.0])

    def test_empty_is_valid(self):
        traj = Trajectory.empty("u")
        assert len(traj) == 0
        assert not traj
        assert traj.duration == 0.0
        assert traj.length_m == 0.0

    def test_from_points_round_trip(self):
        points = [Point(float(i), 45.0 + i * 0.001, 4.0) for i in range(5)]
        traj = Trajectory.from_points("u", points)
        assert traj.to_points() == points

    def test_arrays_are_read_only(self):
        traj = make_line_trajectory(n_points=5)
        with pytest.raises(ValueError):
            traj.lats[0] = 0.0


class TestAccessors:
    def test_indexing_and_slicing(self):
        traj = make_line_trajectory(n_points=10)
        assert isinstance(traj[0], Point)
        assert traj[0] == traj.first
        assert traj[-1] == traj.last
        sliced = traj[2:5]
        assert isinstance(sliced, Trajectory)
        assert len(sliced) == 3
        assert sliced.first == traj[2]

    def test_statistics_on_line(self):
        traj = make_line_trajectory(n_points=11, spacing_m=100.0, interval_s=10.0)
        assert traj.duration == pytest.approx(100.0)
        assert traj.length_m == pytest.approx(1000.0, rel=1e-3)
        np.testing.assert_allclose(traj.segment_distances(), 100.0, rtol=1e-3)
        np.testing.assert_allclose(traj.segment_durations(), 10.0)
        np.testing.assert_allclose(traj.speeds(), 10.0, rtol=1e-3)

    def test_speeds_handle_zero_duration(self):
        traj = Trajectory("u", [0.0, 0.0], [45.0, 45.1], [4.0, 4.0])
        assert traj.speeds()[0] == np.inf
        still = Trajectory("u", [0.0, 0.0], [45.0, 45.0], [4.0, 4.0])
        assert still.speeds()[0] == 0.0

    def test_bbox_of_empty_raises(self):
        with pytest.raises(ValueError):
            Trajectory.empty("u").bbox

    def test_equality(self):
        a = make_line_trajectory(n_points=5)
        b = make_line_trajectory(n_points=5)
        c = make_line_trajectory(n_points=6)
        assert a == b
        assert a != c
        assert a != b.with_user_id("other")


class TestTransformations:
    def test_with_user_id_keeps_data(self):
        traj = make_line_trajectory(n_points=5)
        renamed = traj.with_user_id("bob")
        assert renamed.user_id == "bob"
        np.testing.assert_array_equal(renamed.lats, traj.lats)

    def test_slice_and_remove_time_partition(self):
        traj = make_line_trajectory(n_points=10, interval_s=10.0, start_time=0.0)
        inside = traj.slice_time(20.0, 50.0)
        outside = traj.remove_time(20.0, 50.0)
        assert len(inside) + len(outside) == len(traj)
        assert all(20.0 <= p.timestamp <= 50.0 for p in inside)
        assert all(p.timestamp < 20.0 or p.timestamp > 50.0 for p in outside)

    def test_filter_mask_validates_shape(self):
        traj = make_line_trajectory(n_points=5)
        with pytest.raises(ValueError):
            traj.filter_mask(np.ones(4, dtype=bool))
        kept = traj.filter_mask(np.array([True, False, True, False, True]))
        assert len(kept) == 3

    def test_append_sorts(self):
        first = make_line_trajectory(n_points=3, start_time=100.0)
        second = make_line_trajectory(n_points=3, start_time=0.0)
        merged = first.append(second)
        assert len(merged) == 6
        assert np.all(np.diff(merged.timestamps) >= 0.0)

    def test_downsample(self):
        traj = make_line_trajectory(n_points=10)
        down = traj.downsample(3)
        assert len(down) == 4
        assert down.first == traj.first
        with pytest.raises(ValueError):
            traj.downsample(0)

    def test_shift_time(self):
        traj = make_line_trajectory(n_points=3, start_time=0.0)
        shifted = traj.shift_time(100.0)
        np.testing.assert_allclose(shifted.timestamps, traj.timestamps + 100.0)

    def test_split_by_gap(self):
        times = [0.0, 10.0, 20.0, 5000.0, 5010.0]
        traj = Trajectory("u", times, [45.0] * 5, [4.0, 4.01, 4.02, 4.5, 4.51])
        pieces = traj.split_by_gap(60.0)
        assert [len(p) for p in pieces] == [3, 2]
        assert sum(len(p) for p in pieces) == len(traj)
        with pytest.raises(ValueError):
            traj.split_by_gap(0.0)

    def test_split_by_gap_empty(self):
        assert Trajectory.empty("u").split_by_gap(10.0) == []

    def test_split_by_gap_many_gaps_matches_masked_reference(self):
        """Contiguous-slice splitting must equal the old per-piece masking.

        Regression for the O(n * pieces) implementation that rebuilt a
        full-length boolean mask per piece: on a trace that alternates a gap
        every few fixes, every fix must land in exactly one piece, in order,
        with identical arrays.
        """
        rng = np.random.default_rng(0)
        n = 400
        intervals = rng.uniform(1.0, 20.0, n)
        intervals[rng.random(n) < 0.3] = 5_000.0  # ~120 gaps
        times = np.cumsum(intervals)
        lats = 45.0 + np.cumsum(rng.uniform(-1e-4, 1e-4, n))
        lons = 4.0 + np.cumsum(rng.uniform(-1e-4, 1e-4, n))
        traj = Trajectory("u", times, lats, lons)
        pieces = traj.split_by_gap(60.0)
        # Reference semantics: mask-based reconstruction of each piece.
        gaps = np.diff(times)
        cut_points = np.nonzero(gaps > 60.0)[0] + 1
        reference = [
            traj.filter_mask(np.isin(np.arange(n), piece))
            for piece in np.split(np.arange(n), cut_points)
        ]
        assert len(pieces) > 50
        assert pieces == reference
        assert sum(len(p) for p in pieces) == n
        for piece in pieces:
            assert np.all(np.diff(piece.timestamps) <= 60.0)

    @given(factor=st.integers(min_value=1, max_value=7))
    @settings(max_examples=20, deadline=None)
    def test_downsample_never_loses_first_point(self, factor):
        traj = make_line_trajectory(n_points=23)
        assert traj.downsample(factor).first == traj.first
