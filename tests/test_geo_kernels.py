"""Tests for the columnar kernel layer (repro.geo.kernels)."""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.djcluster import DjCluster
from repro.core.trajectory import MobilityDataset, Trajectory
from repro.geo import kernels
from repro.geo.geometry import point_to_polyline_distance_m
from repro.geo.distance import haversine
from repro.geo.kernels import (
    ColumnarTraces,
    SyncedDistances,
    colocation_events,
    connected_components,
    grid_dbscan,
    haversine_above,
    iter_neighbor_pairs,
    polyline_distances,
    segmented_searchsorted,
    windowed_stay_spans,
)
from repro.io.world_store import WorldStore
from repro.mixzones.detection import MixZoneDetectionConfig, MixZoneDetector

from .conftest import CANDIDATE_PATHS, assert_bitwise, hidden_scipy, make_line_trajectory


def small_dataset_trio() -> MobilityDataset:
    a = make_line_trajectory(user_id="a", n_points=5, start_time=0.0)
    b = make_line_trajectory(user_id="b", n_points=3, start_time=100.0)
    c = Trajectory.empty("c")
    return MobilityDataset([a, b, c])


class TestStreamingChunkJoins:
    """The streaming tier's batched radius test against the scalar one, and
    the certified clique grid ``grid_dbscan`` bins on."""

    @given(seed=st.integers(0, 10_000), threshold=st.sampled_from([0.0, 1.0, 100.0, 250.0]))
    @settings(max_examples=40, deadline=None)
    def test_haversine_above_decides_as_the_scalar(self, seed, threshold):
        rng = np.random.default_rng(seed)
        n = 200
        lat1 = 45.76 + rng.normal(0.0, 2e-3, n)
        lon1 = 4.84 + rng.normal(0.0, 2e-3, n)
        lat2 = lat1 + rng.normal(0.0, 1e-3, n)
        lon2 = lon1 + rng.normal(0.0, 1e-3, n)
        lat2[:10] = lat1[:10]  # identical points: distance exactly zero
        lon2[:10] = lon1[:10]
        got = haversine_above(lat1, lon1, lat2, lon2, threshold)
        expected = [
            haversine(a, b, c, d) > threshold
            for a, b, c, d in zip(lat1.tolist(), lon1.tolist(), lat2.tolist(), lon2.tolist())
        ]
        assert got.tolist() == expected

    def test_haversine_above_at_the_threshold_itself(self):
        # Thresholds equal to each pair's scalar distance and its float
        # neighbours: every decision sits inside the re-check band.
        rng = np.random.default_rng(3)
        lat1, lon1 = 45.76, 4.84
        lat2 = lat1 + rng.normal(0.0, 1e-3, 50)
        lon2 = lon1 + rng.normal(0.0, 1e-3, 50)
        for la, lo in zip(lat2.tolist(), lon2.tolist()):
            d = haversine(lat1, lon1, la, lo)
            for threshold in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)):
                assert bool(haversine_above(lat1, lon1, la, lo, float(threshold))[()]) == (
                    d > threshold
                )

    @given(seed=st.integers(0, 10_000), radius=st.sampled_from([1e-7, 0.5, 60.0, 150.0]))
    @settings(max_examples=40, deadline=None)
    def test_clique_cell_members_pass_the_exact_radius_test(self, seed, radius):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-5.0, 5.0, 300) * radius + rng.uniform(-2e4, 2e4)
        ys = rng.uniform(-5.0, 5.0, 300) * radius + rng.uniform(-2e4, 2e4)
        # Cells of the certified side grid_dbscan bins with; the property
        # holds wherever the grid starts.
        side = kernels._clique_side(radius)
        fx, fy = np.floor(xs / side).astype(np.int64), np.floor(ys / side).astype(np.int64)
        for cell in set(zip(fx.tolist(), fy.tolist())):
            members = np.flatnonzero((fx == cell[0]) & (fy == cell[1]))
            dx = xs[members][:, None] - xs[members][None, :]
            dy = ys[members][:, None] - ys[members][None, :]
            assert (dx * dx + dy * dy <= radius * radius).all()


class TestColumnarTraces:
    def test_flattened_shapes_and_offsets(self):
        traces = small_dataset_trio().columnar()
        assert traces.user_ids == ["a", "b", "c"]
        assert traces.n_points == 8
        assert traces.n_users == 3
        assert traces.n_observed_users == 2
        assert list(traces.offsets) == [0, 5, 8, 8]
        assert list(traces.user_index) == [0] * 5 + [1] * 3
        assert traces.user_slice(1) == slice(5, 8)

    def test_per_user_slices_match_trajectories(self):
        dataset = small_dataset_trio()
        traces = dataset.columnar()
        for k, user_id in enumerate(traces.user_ids):
            sl = traces.user_slice(k)
            np.testing.assert_array_equal(traces.timestamps[sl], dataset[user_id].timestamps)
            np.testing.assert_array_equal(traces.lats[sl], dataset[user_id].lats)

    def test_columnar_view_is_cached_and_readonly(self, tmp_path):
        # Every column of every shared view (in memory, memmapped store,
        # store shard) rejects each way of writing to it in place.
        dataset = small_dataset_trio()
        assert dataset.columnar() is dataset.columnar()
        store = WorldStore.write(dataset, tmp_path / "world")
        views = {
            "memory": dataset.columnar(),
            "store": store.dataset().columnar(),
            "shard=0/2": store.dataset(shard=(0, 2)).columnar(),
        }

        def subtract_first(values):
            values -= values[0]

        mutations = {
            "augmented assignment in a helper": subtract_first,
            ".sort()": lambda values: values.sort(),
            "slice store": lambda values: values.__setitem__(slice(0, 1), 0),
            "out=": lambda values: np.subtract(values, 1, out=values),
        }
        for view_name, traces in views.items():
            for column in ("timestamps", "lats", "lons", "offsets", "user_index"):
                values = getattr(traces, column)
                before = values.copy()
                for mutation_name, mutate in mutations.items():
                    with pytest.raises(ValueError, match="read-only"):
                        mutate(values)
                    assert np.array_equal(values, before), (view_name, column, mutation_name)

    def test_empty_dataset(self):
        traces = MobilityDataset().columnar()
        assert traces.n_points == 0 and traces.n_users == 0

    def test_offset_validation(self):
        with pytest.raises(ValueError):
            ColumnarTraces(["u"], np.zeros(2), np.zeros(2), np.zeros(2), np.array([0, 1]))
        with pytest.raises(ValueError):
            ColumnarTraces(["u"], np.zeros(1), np.zeros(1), np.zeros(1), np.array([0, 2]))


def brute_force_neighbor_pairs(rows, cols, buckets):
    pairs = set()
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if (
                abs(rows[i] - rows[j]) <= 1
                and abs(cols[i] - cols[j]) <= 1
                and abs(buckets[i] - buckets[j]) <= 1
            ):
                pairs.add((i, j))
    return pairs


class TestBinJoin:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        rows = rng.integers(-3, 4, n)
        cols = rng.integers(0, 5, n)
        buckets = rng.integers(-2, 3, n)
        got = set()
        for i, j in iter_neighbor_pairs(rows, cols, buckets):
            for a, b in zip(i, j):
                pair = (int(a), int(b))
                assert pair not in got, "pair emitted twice"
                got.add(pair)
        assert got == brute_force_neighbor_pairs(rows, cols, buckets)

    def test_empty_and_single_point(self):
        empty = np.zeros(0, dtype=int)
        assert list(iter_neighbor_pairs(empty, empty, empty)) == []
        one = np.zeros(1, dtype=int)
        assert list(iter_neighbor_pairs(one, one, one)) == []

    def test_batched_emission_matches_unbatched(self, monkeypatch):
        """Tiny batch caps (dense-bin memory guard) must not change the pairs."""
        import repro.geo.kernels as kernels

        rng = np.random.default_rng(11)
        n = 50
        rows = rng.integers(0, 2, n)  # dense: few bins, many points each
        cols = rng.integers(0, 2, n)
        buckets = rng.integers(0, 2, n)
        expected = brute_force_neighbor_pairs(rows, cols, buckets)
        monkeypatch.setattr(kernels, "_MAX_PAIRS_PER_BATCH", 7)
        got = set()
        for i, j in iter_neighbor_pairs(rows, cols, buckets):
            assert i.size <= 7 + n  # one B-range may overhang the cap
            for a, b in zip(i, j):
                pair = (int(a), int(b))
                assert pair not in got
                got.add(pair)
        assert got == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_reach_two_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        rows = rng.integers(-3, 4, n)
        cols = rng.integers(0, 6, n)
        buckets = rng.integers(0, 4, n)
        got = set()
        for i, j in iter_neighbor_pairs(rows, cols, buckets, reach=(2, 2, 0)):
            for a, b in zip(i, j):
                pair = (int(a), int(b))
                assert pair not in got, "pair emitted twice"
                got.add(pair)
        expected = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if abs(rows[i] - rows[j]) <= 2
            and abs(cols[i] - cols[j]) <= 2
            and buckets[i] == buckets[j]
        }
        assert got == expected

    def test_zero_reach_dimension_never_crosses(self):
        rows = np.array([0, 0, 0, 0])
        cols = np.array([0, 0, 1, 1])
        segments = np.array([0, 1, 0, 1])
        pairs = set()
        for i, j in iter_neighbor_pairs(rows, cols, segments, reach=(1, 1, 0)):
            pairs.update(zip(i.tolist(), j.tolist()))
        assert pairs == {(0, 2), (1, 3)}

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_owner_pairs_match_brute_force(self, seed):
        """Only pairs of two owners, each once, ``i < j``; dense bins split into runs."""
        rng = np.random.default_rng(seed)
        n = 70
        rows = rng.integers(0, 3, n)
        cols = rng.integers(0, 3, n)
        buckets = rng.integers(0, 3, n)
        owners = np.sort(rng.integers(0, 6, n))
        order, pairs = kernels._cross_owner_pairs(rows, cols, buckets, owners)
        got = set()
        for left, right in pairs:
            i, j = order[left], order[right]
            assert np.all(i < j)
            for pair in zip(i.tolist(), j.tolist()):
                assert pair not in got, "pair emitted twice"
                got.add(pair)
        expected = {
            (i, j)
            for i, j in brute_force_neighbor_pairs(rows, cols, buckets)
            if owners[i] != owners[j]
        }
        assert got == expected

    def test_wide_extent_keeps_the_adjacency(self):
        """Coordinates too far apart to pack are renumbered, not rejected."""
        rng = np.random.default_rng(2)
        n = 60
        spread = np.array([0, 1, 2, 4, 10**12, 10**12 + 1, 3 * 10**12, -(10**12)])
        rows = rng.choice(spread, n)
        cols = rng.choice(spread, n)
        buckets = rng.choice(spread, n)
        got = set()
        for i, j in iter_neighbor_pairs(rows, cols, buckets):
            got.update(zip(i.tolist(), j.tolist()))
        assert got == brute_force_neighbor_pairs(rows, cols, buckets)
        assert got  # the renumbering kept some neighbours

    def test_negative_reach_rejected(self):
        one = np.zeros(2, dtype=int)
        with pytest.raises(ValueError, match="reach"):
            list(iter_neighbor_pairs(one, one, one, reach=(1, -1, 0)))


def _segmented_dbscan(xs, ys, radius, min_points, bounds):
    """Scalar DBSCAN per contiguous segment ``[lo, hi)``, numbered globally.

    Segments ascend in index order, so numbering each segment's clusters
    after the previous segment's is the global smallest-core order.
    """
    labels, base = [], 0
    for lo, hi in bounds:
        part = DjCluster._dbscan(xs[lo:hi], ys[lo:hi], radius, min_points)
        labels.append(np.where(part >= 0, part + base, -1))
        base += int(part.max()) + 1 if (part >= 0).any() else 0
    return np.concatenate(labels).astype(np.int64)


def _centroid_witness(xs, ys, among, toward):
    """The point of ``among`` closest to the centroid of ``toward`` (the kernel's witness)."""
    cx, cy = np.mean(xs[toward]), np.mean(ys[toward])
    return int(among[np.argmin((xs[among] - cx) ** 2 + (ys[among] - cy) ** 2)])


@st.composite
def _blobs_and_scatter(draw):
    """Planar points: tight blobs (dense cells) plus scattered fixes.

    Coordinates are multiples of a fifth of the radius, so many pairs sit
    at exactly the radius (3-4-5 triangles and straight five-steps), some
    across cell borders.
    """
    radius = draw(st.sampled_from([4.0, 5.0, 10.0]))
    n_blobs = draw(st.integers(0, 4))
    coords = []
    for _ in range(n_blobs):
        cx = draw(st.integers(0, 30)) * radius / 5.0
        cy = draw(st.integers(0, 30)) * radius / 5.0
        size = draw(st.integers(1, 30))
        coords += [(cx + (0.01 * k) % 0.3, cy + (0.02 * k) % 0.5) for k in range(size)]
    coords += draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
            lambda p: (p[0] * radius / 5.0, p[1] * radius / 5.0)
        ),
        max_size=40,
    ))
    order = draw(st.permutations(range(len(coords))))
    xs = np.array([coords[k][0] for k in order], dtype=float)
    ys = np.array([coords[k][1] for k in order], dtype=float)
    return xs, ys, radius


class TestGridDbscan:
    """``grid_dbscan`` against the scalar ``DjCluster._dbscan``, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_labels_match_scalar_dbscan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 160))
        centers = rng.uniform(0.0, 400.0, (4, 2))
        which = rng.integers(0, 4, n)
        xs = centers[which, 0] + rng.normal(0.0, 15.0, n)
        ys = centers[which, 1] + rng.normal(0.0, 15.0, n)
        radius = float(rng.uniform(5.0, 120.0))
        for min_points in (2, 5, 12):
            np.testing.assert_array_equal(
                grid_dbscan(xs, ys, radius, min_points),
                DjCluster._dbscan(xs, ys, radius, min_points),
            )

    @given(points=_blobs_and_scatter(), min_points=st.integers(1, 12),
           tiny_batches=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_blobs_match_scalar_dbscan(self, points, min_points, tiny_batches):
        xs, ys, radius = points
        batch = 3 if tiny_batches else kernels._MAX_PAIRS_PER_BATCH
        with mock.patch.object(kernels, "_MAX_PAIRS_PER_BATCH", batch):
            labels = grid_dbscan(xs, ys, radius, min_points)
        np.testing.assert_array_equal(labels, DjCluster._dbscan(xs, ys, radius, min_points))

    @given(points=_blobs_and_scatter(), min_points=st.integers(2, 8),
           n_segments=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_segments_never_join(self, points, min_points, n_segments):
        # The same points once per segment: identical sets, disjoint clusters.
        xs, ys, radius = points
        n = xs.size
        bounds = [(k * n, (k + 1) * n) for k in range(n_segments)]
        segments = np.repeat(np.arange(n_segments), n)
        labels = grid_dbscan(
            np.tile(xs, n_segments), np.tile(ys, n_segments), radius, min_points,
            segments=segments,
        )
        np.testing.assert_array_equal(
            labels,
            _segmented_dbscan(np.tile(xs, n_segments), np.tile(ys, n_segments),
                              radius, min_points, bounds),
        )

    @pytest.mark.parametrize("bridge", [True, False])
    def test_witness_miss_falls_back_to_the_exhaustive_check(self, bridge, monkeypatch):
        """Two dense cells two columns apart whose witnesses are too far.

        Cell A (x in [0, 7.07)) is a blob at its top-left plus ``p`` at its
        bottom-right corner; cell B (x in [14.14, 21.21)) a blob at its
        bottom-right plus ``q`` at its top-left.  The witnesses are ``p``
        and ``q`` (each closest to the other cell's centroid), 10.12 apart;
        with ``bridge`` the extra A member at (7.0, 6.9) is 7.5 from ``q``,
        so only the exhaustive check can link the two cells.
        """
        radius, min_points = 10.0, 5
        a = [(0.0 + 0.1 * k, 6.5) for k in range(8)] + [(7.0, 0.1)]
        b = [(20.5 - 0.1 * k, 0.5) for k in range(8)] + [(14.5, 6.9)]
        if bridge:
            a.append((7.0, 6.9))
        xs = np.array([p[0] for p in a + b])
        ys = np.array([p[1] for p in a + b])
        in_a = np.arange(len(a))
        in_b = np.arange(len(a), len(a) + len(b))
        wa = _centroid_witness(xs, ys, in_a, in_b)
        wb = _centroid_witness(xs, ys, in_b, in_a)
        assert (xs[wa] - xs[wb]) ** 2 + (ys[wa] - ys[wb]) ** 2 > radius**2
        monkeypatch.setattr(kernels, "_MAX_PAIRS_PER_BATCH", 4)
        labels = grid_dbscan(xs, ys, radius, min_points)
        np.testing.assert_array_equal(labels, DjCluster._dbscan(xs, ys, radius, min_points))
        assert (labels >= 0).all()
        assert np.unique(labels).size == (1 if bridge else 2)

    def test_dense_cells_materialise_no_pairs(self, monkeypatch):
        # Two dense blobs, a column apart: one cell pair, linked by its witness.
        calls = []
        real = kernels._cartesian_pair_batches

        def spy(*args, **kwargs):
            for left, right in real(*args, **kwargs):
                calls.append(left.size)
                yield left, right

        monkeypatch.setattr(kernels, "_cartesian_pair_batches", spy)
        xs = np.concatenate([np.full(50, 1.0), np.full(50, 9.0)])
        ys = np.full(100, 1.0)
        labels = grid_dbscan(xs, ys, 10.0, 10)
        assert labels.tolist() == [0] * 100
        assert calls == []

    def test_pairs_at_exactly_the_radius(self):
        # A chain whose links are all at dx*dx + dy*dy == r*r exactly (3-4-5
        # steps and straight 5s), crossing cell borders; no other pair is
        # within the radius.
        radius = 5.0
        xs = np.array([0.0, 3.0, 6.0, 11.0, 11.0, 6.0])
        ys = np.array([0.0, 4.0, 8.0, 8.0, 13.0, 13.0])
        for min_points in (1, 2, 3):
            np.testing.assert_array_equal(
                grid_dbscan(xs, ys, radius, min_points),
                DjCluster._dbscan(xs, ys, radius, min_points),
            )
        assert grid_dbscan(xs, ys, radius, 2).tolist() == [0] * 6
        assert grid_dbscan(xs, ys, np.nextafter(radius, 0.0), 2).tolist() == [-1] * 6

    @pytest.mark.parametrize("hide", CANDIDATE_PATHS)
    def test_component_paths_agree(self, hide):
        rng = np.random.default_rng(11)
        xs = np.repeat(rng.uniform(0.0, 300.0, 30), 6) + rng.normal(0.0, 2.0, 180)
        ys = np.repeat(rng.uniform(0.0, 300.0, 30), 6) + rng.normal(0.0, 2.0, 180)
        with hidden_scipy(hide):
            labels = grid_dbscan(xs, ys, 25.0, 4)
        np.testing.assert_array_equal(labels, DjCluster._dbscan(xs, ys, 25.0, 4))

    def test_empty_single_and_invalid(self):
        empty = np.zeros(0)
        assert grid_dbscan(empty, empty, 10.0, 2).size == 0
        assert grid_dbscan(np.zeros(1), np.zeros(1), 10.0, 2).tolist() == [-1]
        assert grid_dbscan(np.zeros(1), np.zeros(1), 10.0, 1).tolist() == [0]
        with pytest.raises(ValueError, match="radius"):
            grid_dbscan(np.zeros(2), np.zeros(2), 0.0, 2)
        with pytest.raises(ValueError, match="min_points"):
            grid_dbscan(np.zeros(2), np.zeros(2), 1.0, 0)
        with pytest.raises(ValueError, match="segments"):
            grid_dbscan(np.zeros(2), np.zeros(2), 1.0, 2, segments=np.zeros(3))

    def test_sub_margin_radius_never_falsely_certifies(self):
        """A radius below the certification margin must confirm all pairs.

        Regression: a degenerate fallback binning at cell = radius that
        treated same-cell co-members as certified declared points up to
        radius * sqrt(2) apart to be neighbours.
        """
        r = 1e-7
        xs = np.array([0.05 * r, 0.95 * r])
        ys = np.array([0.05 * r, 0.95 * r])  # distance ~1.27 * r: NOT a pair
        assert grid_dbscan(xs, ys, r, 2).tolist() == [-1, -1]
        # A genuinely close pair at the same radius is still found.
        close = grid_dbscan(np.array([0.0, 0.5 * r]), np.array([0.0, 0.0]), r, 2)
        assert close.tolist() == [0, 0]
        rng = np.random.default_rng(4)
        xs = rng.uniform(0.0, 4 * r, 80)
        ys = rng.uniform(0.0, 4 * r, 80)
        for min_points in (1, 2, 4):
            np.testing.assert_array_equal(
                grid_dbscan(xs, ys, r, min_points), DjCluster._dbscan(xs, ys, r, min_points)
            )

    def test_sub_micrometre_radius_over_a_real_extent(self):
        """Cells of side 1e-7 over a 500 m square: the bin space is renumbered.

        Regression: the packed int64 bin key overflowed and the kernel
        raised ``ValueError`` where the scalar DBSCAN labels the points.
        """
        r = 1e-7
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, 500.0, 80)
        ys = rng.uniform(0.0, 500.0, 80)
        # Duplicates and near twins make some clusters at this radius.
        xs = np.concatenate([xs, xs[:6], xs[6:9] + 0.5 * r])
        ys = np.concatenate([ys, ys[:6], ys[6:9]])
        for min_points in (1, 2, 3):
            labels = grid_dbscan(xs, ys, r, min_points)
            np.testing.assert_array_equal(labels, DjCluster._dbscan(xs, ys, r, min_points))
        assert grid_dbscan(xs, ys, r, 2).max() == 8

    def test_near_margin_radius_keeps_two_bin_coverage(self):
        """Radii just above the margin must still find pairs ~radius apart.

        Regression: a fixed absolute margin shrank the cell so much at
        near-margin radii that in-radius pairs spanned three bins, beyond
        the ±2-bin join (the margin is now capped at 1 % of the radius).
        """
        rng = np.random.default_rng(8)
        r = 2e-6  # twice the absolute margin
        xs = rng.uniform(0.0, 8e-6, 120)
        ys = rng.uniform(0.0, 8e-6, 120)
        for min_points in (2, 3, 6):
            np.testing.assert_array_equal(
                grid_dbscan(xs, ys, r, min_points), DjCluster._dbscan(xs, ys, r, min_points)
            )


class TestSegmentedSearchsorted:
    def test_matches_per_segment_searchsorted(self):
        rng = np.random.default_rng(3)
        segments = [np.sort(rng.uniform(0.0, 100.0, n)) for n in (17, 0, 5)]
        values = np.concatenate(segments)
        offsets = np.concatenate([[0], np.cumsum([s.size for s in segments])])
        queries = rng.uniform(-10.0, 110.0, 11)
        for side in ("left", "right"):
            out = segmented_searchsorted(values, offsets, queries, side=side)
            assert out.shape == (3, 11)
            for k, segment in enumerate(segments):
                np.testing.assert_array_equal(
                    out[k], np.searchsorted(segment, queries, side=side)
                )

    def test_no_segments(self):
        out = segmented_searchsorted(np.zeros(0), np.array([0]), np.array([1.0]))
        assert out.shape == (0, 1)


class TestSpatialTimeBins:
    def test_adjacency_holds_at_extreme_latitudes(self):
        """The lon cell width must cover the radius at every data latitude.

        A low-latitude point drags the mean latitude down; binning at the
        mean would let two high-latitude points within the radius land two
        columns apart and be dropped by the ±1-bin join.
        """
        from repro.geo.distance import haversine, meters_per_degree

        _, lon_m_60 = meters_per_degree(60.0)
        lon_gap = 95.0 / lon_m_60  # ~95 m apart at latitude 60
        a = Trajectory("a", [0.0], [60.0], [10.0])
        b = Trajectory("b", [10.0], [60.0], [10.0 + lon_gap])
        low = Trajectory("low", [0.0], [5.0], [10.0])
        assert haversine(60.0, 10.0, 60.0, 10.0 + lon_gap) < 100.0
        traces = MobilityDataset([a, b, low]).columnar()
        i, j, *_ = colocation_events(traces, radius_m=100.0, max_time_gap_s=60.0)
        pairs = {(traces.user_ids[int(traces.user_index[x])],
                  traces.user_ids[int(traces.user_index[y])]) for x, y in zip(i, j)}
        assert ("a", "b") in pairs


class TestColocationEvents:
    def test_confirms_distance_time_and_distinct_users(self):
        # Two users at the same place 30 s apart, a third far away.
        a = make_line_trajectory(user_id="a", n_points=4, start_time=0.0)
        b = make_line_trajectory(user_id="b", n_points=4, start_time=30.0)
        far = make_line_trajectory(user_id="far", n_points=4, start_time=0.0)
        far = Trajectory("far", far.timestamps, np.asarray(far.lats) + 1.0, far.lons)
        traces = MobilityDataset([a, b, far]).columnar()
        i, j, mid_lat, mid_lon, mid_ts = colocation_events(
            traces, radius_m=100.0, max_time_gap_s=60.0, merge_gap_s=600.0
        )
        assert i.size >= 1
        users = {(traces.user_ids[int(traces.user_index[a_])], traces.user_ids[int(traces.user_index[b_])])
                 for a_, b_ in zip(i, j)}
        assert users == {("a", "b")}

    def test_dedup_keeps_one_event_per_pair_and_window(self):
        a = make_line_trajectory(user_id="a", n_points=20, interval_s=10.0, start_time=0.0)
        b = make_line_trajectory(user_id="b", n_points=20, interval_s=10.0, start_time=0.0)
        traces = MobilityDataset([a, b]).columnar()
        i, j, *_ = colocation_events(traces, radius_m=100.0, max_time_gap_s=60.0, merge_gap_s=600.0)
        # All fixes co-locate, but one user pair in one 600 s window -> 1 event.
        assert i.size == 1
        # i < j and the canonical representative is the smallest index pair.
        assert int(i[0]) == 0 and int(j[0]) == 20

    def test_single_user_produces_nothing(self):
        traces = MobilityDataset([make_line_trajectory()]).columnar()
        i, j, *_ = colocation_events(traces, radius_m=100.0, max_time_gap_s=60.0)
        assert i.size == 0

    def test_sub_micrometre_radius_over_a_real_extent(self):
        """Regression: a 1e-7 m radius over a city overflowed the packed bin key."""
        rng = np.random.default_rng(1)
        users = [
            Trajectory(
                f"u{k}",
                np.sort(rng.uniform(0.0, 600.0, 12)),
                45.76 + rng.uniform(0.0, 0.05, 12),
                4.83 + rng.uniform(0.0, 0.05, 12),
            )
            for k in range(3)
        ]
        twin = users[0]
        users.append(Trajectory("twin", twin.timestamps + 1.0, twin.lats, twin.lons))
        dataset = MobilityDataset(users)
        detector = MixZoneDetector(MixZoneDetectionConfig(radius_m=1e-7, merge_gap_s=0.0))
        events = detector.find_crossings(dataset)
        assert len(events) == 12  # the twin meets u0 at every fix
        assert events == sorted(
            detector.find_crossings_reference(dataset), key=lambda e: e.timestamp
        )
        assert detector.detect(dataset) == detector.detect_reference(dataset)

    def test_key_space_too_wide_to_pack(self):
        """Keys whose (user, user, window) product overflows int64 get dense ranks."""
        t_far = 4.0e18  # window span 4e18 at merge gap 0: 3 * 3 * 4e18 >= 2**63
        a = Trajectory("a", [0.0, t_far], [45.76, 45.76], [4.83, 4.83])
        b = Trajectory("b", [0.0, t_far], [45.76, 45.76], [4.83, 4.83])
        c = Trajectory("c", [0.0], [46.0], [5.0])
        dataset = MobilityDataset([a, b, c])
        detector = MixZoneDetector(MixZoneDetectionConfig(merge_gap_s=0.0))
        i, j, *_ = colocation_events(dataset.columnar(), 100.0, 120.0, 0.0)
        assert (i.tolist(), j.tolist()) == ([0, 1], [2, 3])
        assert detector.find_crossings(dataset) == detector.find_crossings_reference(dataset)


class TestConnectedComponents:
    def _oracle(self, n, edges):
        labels = list(range(n))

        def find(x):
            while labels[x] != x:
                x = labels[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                labels[rb] = ra
        return [find(i) for i in range(n)]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_union_find(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        edges = rng.integers(0, n, (60, 2))
        labels = connected_components(n, edges[:, 0], edges[:, 1])
        oracle = self._oracle(n, edges.tolist())
        # Same partition: identical equivalence classes.
        def groups(values):
            by = {}
            for idx, v in enumerate(values):
                by.setdefault(v, set()).add(idx)
            return sorted(map(frozenset, by.values()), key=min)
        assert groups(labels.tolist()) == groups(oracle)

    def test_no_edges(self):
        labels = connected_components(4, np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        assert len(set(labels.tolist())) == 4

    def test_numpy_fallback_without_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.sparse", None)
        edges = np.array([[0, 1], [2, 3], [1, 2], [5, 6]])
        labels = connected_components(7, edges[:, 0], edges[:, 1])
        assert labels[0] == labels[1] == labels[2] == labels[3]
        assert labels[5] == labels[6]
        assert len({int(labels[0]), int(labels[4]), int(labels[5])}) == 3


class TestSyncedKernels:
    def _stack(self, seed=0, n=5, g=30):
        rng = np.random.default_rng(seed)
        grid = np.arange(g) * 60.0
        stack = np.full((n, g, 2), np.nan)
        for k in range(n):
            lo, hi = sorted(rng.choice(g, 2, replace=False))
            if hi - lo < 2:
                lo, hi = 0, g
            stack[k, lo:hi] = rng.uniform(-500.0, 500.0, (hi - lo, 2))
        return grid, stack

    @staticmethod
    def _oracle(stack, target, candidates):
        from repro.baselines.wait4me import Wait4MeMechanism

        return [Wait4MeMechanism._trajectory_distance(stack[target], stack[k]) for k in candidates]

    def test_synced_distances_matches_simple_kernel(self):
        # The simple kernel is the plain-formula scalar oracle.
        _, stack = self._stack(seed=7)
        synced = SyncedDistances(stack)
        candidates = np.arange(1, stack.shape[0])
        np.testing.assert_allclose(
            synced.distances_from(0, candidates),
            self._oracle(stack, 0, candidates),
            rtol=1e-12,
        )
        # Scalar query agrees with the batched one.
        assert synced.pair_distance(0, 2) == pytest.approx(
            float(synced.distances_from(0, np.array([2]))[0])
        )

    def test_synced_distances_float32(self):
        _, stack = self._stack(seed=1)
        synced32 = SyncedDistances.from_planes(stack[:, :, 0], stack[:, :, 1], dtype=np.float32)
        candidates = np.arange(1, stack.shape[0])
        np.testing.assert_allclose(
            synced32.distances_from(0, candidates),
            self._oracle(stack, 0, candidates),
            rtol=1e-5,
        )

    def test_disjoint_observation_windows_are_infinite(self):
        stack = np.full((2, 10, 2), np.nan)
        stack[0, :4] = 1.0
        stack[1, 6:] = 2.0
        assert self._oracle(stack, 0, [1]) == [np.inf]
        assert SyncedDistances(stack).distances_from(0, np.array([1]))[0] == np.inf


def brute_force_stay_spans(ts, lats, lons, max_diameter_m, min_duration_s, max_gap_s):
    """The scalar two-pointer stay scan over one user (the documented spec)."""
    from repro.geo.distance import haversine

    spans = []
    n = ts.size
    i = 0
    while i < n:
        j = i + 1
        while j < n:
            if ts[j] - ts[j - 1] > max_gap_s:
                break
            if haversine(lats[i], lons[i], lats[j], lons[j]) > max_diameter_m:
                break
            j += 1
        if ts[j - 1] - ts[i] >= min_duration_s and j - i >= 2:
            spans.append((i, j))
            i = j
        else:
            i += 1
    return spans


class TestWindowedStaySpans:
    def test_matches_scalar_scan_per_user(self):
        rng = np.random.default_rng(2)
        offsets = [0]
        all_ts, all_lats, all_lons = [], [], []
        for _ in range(3):
            n = int(rng.integers(10, 80))
            ts = np.cumsum(rng.uniform(10.0, 400.0, n))
            lats = 45.7 + np.cumsum(rng.normal(0.0, 4e-4, n))
            lons = 4.8 + np.cumsum(rng.normal(0.0, 4e-4, n))
            all_ts.append(ts), all_lats.append(lats), all_lons.append(lons)
            offsets.append(offsets[-1] + n)
        starts, ends = windowed_stay_spans(
            np.concatenate(all_ts),
            np.concatenate(all_lats),
            np.concatenate(all_lons),
            np.asarray(offsets),
            max_diameter_m=150.0,
            min_duration_s=300.0,
            max_gap_s=900.0,
        )
        expected = []
        for k in range(3):
            base = offsets[k]
            for i, j in brute_force_stay_spans(
                all_ts[k], all_lats[k], all_lons[k], 150.0, 300.0, 900.0
            ):
                expected.append((base + i, base + j))
        assert list(zip(starts.tolist(), ends.tolist())) == expected

    def test_spans_never_cross_users(self):
        # Two users parked at the same spot back to back in time: a naive
        # flat scan would fuse their fixes into one long stay.
        ts = np.concatenate([np.arange(20) * 60.0, 1200.0 + np.arange(20) * 60.0])
        lats = np.full(40, 45.7)
        lons = np.full(40, 4.8)
        starts, ends = windowed_stay_spans(
            ts, lats, lons, np.array([0, 20, 40]), 200.0, 600.0, 1800.0
        )
        assert list(zip(starts.tolist(), ends.tolist())) == [(0, 20), (20, 40)]

    def test_degenerate_inputs(self):
        empty = np.zeros(0)
        starts, ends = windowed_stay_spans(
            empty, empty, empty, np.array([0]), 200.0, 900.0, 1800.0
        )
        assert starts.size == 0 and ends.size == 0
        starts, ends = windowed_stay_spans(
            np.zeros(1), np.zeros(1), np.zeros(1), np.array([0, 1]), 200.0, 900.0, 1800.0
        )
        assert starts.size == 0


# ---------------------------------------------------------------- polyline distances

def polyline_oracle(xs, ys, segments, line_xs, line_ys, line_offsets):
    return np.array([
        point_to_polyline_distance_m(
            float(x), float(y),
            line_xs[line_offsets[k] : line_offsets[k + 1]],
            line_ys[line_offsets[k] : line_offsets[k + 1]],
        )
        for x, y, k in zip(xs, ys, segments)
    ])


@st.composite
def polyline_worlds(draw):
    """Planar polylines plus points measured against them, edge cases included.

    Polylines random-walk (steps of centimetres to kilometres), may repeat
    vertices (zero-length edges), may hold a single vertex, and may jump a
    long gap.  Points sit exactly on first, interior and last vertices, on
    edges, near the path, or far off it (Geo-I-like noise).
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n_lines = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    line_xs, line_ys, sizes = [], [], []
    for _ in range(n_lines):
        n = int(rng.choice([1, 2, 3, int(rng.integers(4, 40))]))
        steps = rng.choice([0.01, 1.0, 20.0, 300.0], size=n) * rng.standard_normal((2, n))
        if n > 2 and rng.random() < 0.5:  # a long recording gap
            steps[:, rng.integers(1, n)] += rng.uniform(-20_000.0, 20_000.0, 2)
        x, y = np.cumsum(steps, axis=1) + rng.uniform(-5_000.0, 5_000.0, (2, 1))
        if n > 1 and rng.random() < 0.5:  # duplicate vertices
            dup = rng.integers(0, n, size=rng.integers(1, n + 1))
            x[dup[1:]] = x[dup[0]]
            y[dup[1:]] = y[dup[0]]
        line_xs.append(np.round(x, int(rng.integers(0, 4))))
        line_ys.append(np.round(y, int(rng.integers(0, 4))))
        sizes.append(n)
    offsets = np.r_[0, np.cumsum(sizes)]
    lx, ly = np.concatenate(line_xs), np.concatenate(line_ys)
    n_points = draw(st.integers(0, 60))
    segments = rng.integers(0, n_lines, n_points)
    xs, ys = np.empty(n_points), np.empty(n_points)
    for i, k in enumerate(segments):
        lo, hi = offsets[k], offsets[k + 1]
        kind = rng.integers(0, 5)
        j = int(rng.choice([lo, hi - 1, rng.integers(lo, hi)]))
        if kind == 0:  # exactly on a first, last or interior vertex
            xs[i], ys[i] = lx[j], ly[j]
        elif kind == 1 and hi - lo > 1:  # on an edge
            j = min(j, hi - 2)
            t = rng.random()
            xs[i] = lx[j] + t * (lx[j + 1] - lx[j])
            ys[i] = ly[j] + t * (ly[j + 1] - ly[j])
        else:  # near the path, or far off it
            sigma = rng.choice([0.5, 30.0, 1_000.0, 50_000.0])
            xs[i], ys[i] = lx[j] + sigma * rng.standard_normal(), ly[j] + sigma * rng.standard_normal()
    return xs, ys, segments, lx, ly, offsets


class TestPolylineDistances:
    @pytest.mark.parametrize("hide_scipy", CANDIDATE_PATHS)
    @settings(max_examples=150, deadline=None)
    @given(world=polyline_worlds())
    def test_matches_scalar_oracle_bitwise(self, hide_scipy, world):
        with hidden_scipy(hide_scipy):
            actual = polyline_distances(*world)
        assert_bitwise(actual, polyline_oracle(*world))

    @pytest.mark.parametrize("hide_scipy", CANDIDATE_PATHS)
    def test_last_vertex_keeps_the_oracle_rounding_residue(self, hide_scipy):
        # A fix exactly on a polyline's last vertex is not at distance 0
        # under the pair expression: the projection parameter t rounds
        # below 1.  Treating vertex hits as exact zeros would lose this.
        lx = np.array([106.6, 229.5, 43.6])
        ly = np.array([435.1, 315.9, -497.3])
        xs, ys = np.array([43.6, 106.6, 229.5]), np.array([-497.3, 435.1, 315.9])
        world = (xs, ys, np.zeros(3, dtype=np.int64), lx, ly, np.array([0, 3]))
        with hidden_scipy(hide_scipy):
            actual = polyline_distances(*world)
        assert_bitwise(actual, polyline_oracle(*world))
        assert 0.0 < actual[0] < 1e-12
        assert actual[1] == actual[2] == 0.0

    @pytest.mark.parametrize("hide_scipy", CANDIDATE_PATHS)
    def test_nearest_edge_between_its_samples(self, hide_scipy):
        # The point's nearest edge (the x axis, 10 m below) has no vertex or
        # sample near it, while a farther edge's end vertex (12 m above) is
        # the nearest vertex: the nearest edge must still be a candidate.
        lx, ly = np.array([0.0, 100.0, 25.0, 25.5]), np.array([0.0, 0.0, 22.0, 22.0])
        world = (np.array([25.0]), np.array([10.0]), np.zeros(1, dtype=np.int64),
                 lx, ly, np.array([0, 4]))
        with hidden_scipy(hide_scipy):
            actual = polyline_distances(*world)
        assert actual[0] == 10.0
        assert_bitwise(actual, polyline_oracle(*world))

    @pytest.mark.parametrize("hide_scipy", CANDIDATE_PATHS)
    def test_points_on_many_polylines(self, hide_scipy):
        rng = np.random.default_rng(7)
        sizes = [1, 50, 2, 300]
        offsets = np.r_[0, np.cumsum(sizes)]
        lx = np.cumsum(rng.normal(0.0, 40.0, offsets[-1]))
        ly = np.cumsum(rng.normal(0.0, 40.0, offsets[-1]))
        segments = rng.integers(0, len(sizes), 500)
        xs = rng.uniform(lx.min(), lx.max(), 500)
        ys = rng.uniform(ly.min(), ly.max(), 500)
        world = (xs, ys, segments, lx, ly, offsets)
        with hidden_scipy(hide_scipy):
            actual = polyline_distances(*world)
        assert_bitwise(actual, polyline_oracle(*world))

    def test_no_points(self):
        out = polyline_distances(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64),
                                 np.zeros(0), np.zeros(0), np.array([0]))
        assert out.shape == (0,)

    def test_invalid_inputs_raise(self):
        one = np.zeros(1)
        seg = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="empty polyline"):
            polyline_distances(one, one, np.array([1]), one, one, np.array([0, 1, 1]))
        with pytest.raises(ValueError, match="index the polylines"):
            polyline_distances(one, one, np.array([2]), one, one, np.array([0, 1]))
        with pytest.raises(ValueError, match="line_offsets"):
            polyline_distances(one, one, seg, one, one, np.array([0, 2]))
        with pytest.raises(ValueError, match="align"):
            polyline_distances(one, np.zeros(2), seg, one, one, np.array([0, 1]))
