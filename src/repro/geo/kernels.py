"""Columnar kernels: the vectorized substrate of the library's hot paths.

Trajectory data is naturally *columnar* — per-user parallel arrays of
timestamps and coordinates — yet the slowest algorithms of the reproduction
(mix-zone detection, Wait-For-Me clustering) historically walked it point by
point in Python.  This module provides the shared array-speed layer they are
rebuilt on:

* :class:`ColumnarTraces` — a whole dataset flattened into four parallel
  arrays ``(user_index, timestamps, lats, lons)`` plus per-user offsets, the
  canonical bulk view produced by ``MobilityDataset.columnar()``;
* :func:`iter_neighbor_pairs` — the vectorized *bin join*: every unordered
  point pair falling in the same or an adjacent ``(row, col, time-bucket)``
  bin, emitted as numpy index batches (one batch per neighbor offset, so peak
  memory stays bounded by the densest single offset); bins too fine to pack
  into int64 keys are renumbered with their adjacency kept;
* :func:`colocation_events` — one confirmed co-location per ``(user pair,
  time window)``: a cross-user-only bin join (pairs of per-bin user runs, so
  no same-user pair is built), the exact time-gap test on every candidate,
  and the exact haversine test on *first witnesses* only — each round
  confirms every open key's smallest ``(i, j)``, and a key whose witness
  fails moves on to its next candidate;
* :class:`SyncedDistances` — batched synchronized-trajectory distances
  over grid-resampled coordinate matrices (NaN marking unobserved steps):
  the allocation-free workspace Wait-For-Me's greedy clustering queries
  each round;
* :func:`windowed_stay_spans` — the vectorized sliding stay-point scan
  (POI extraction): per-anchor window reaches are resolved in batched probe
  rounds, skipping ahead along the cumulative path extent (the travelled arc
  length upper-bounds any anchor distance, so whole stretches of a window are
  certified in-diameter without evaluating a single pairwise distance);
* :func:`grid_dbscan` — DBSCAN on the clique grid (DJ-Cluster): cells of
  side ``radius / sqrt(2)`` whose co-members are *certified* in-radius (the
  cell diagonal is below the radius); a cell of ``min_points`` members is
  all core and emits no pairs, point pairs are confirmed only next to a
  sparse cell, neighbouring dense cells are linked by a witness pair or a
  batched exhaustive check, and connected components run on cells;
* :func:`segmented_searchsorted` — per-segment insertion points of query
  timestamps (multi-target tracking resolves every zone boundary of every
  user this way, one vectorized ``searchsorted`` per user);
* :func:`concat_ranges` — the flattened indices of many ``[start, start +
  count)`` ranges (per-session and per-window gathers);
* :func:`polyline_distances` — exact planar distance from every point to
  the polyline of its segment (per-user spatial distortion: each published
  fix against its own user's original path), evaluated only on a candidate
  set of polyline edges that provably holds each point's nearest one;
* :func:`haversine_above` — the threshold test of the streaming tier's
  ``update_many`` paths, decided bitwise as the scalar
  :func:`~repro.geo.distance.haversine` decides it.

Kernels operate on plain numpy arrays (no trajectory types), which keeps this
module importable from anywhere in the library without cycles.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

try:  # numpy >= 1.20 ships typing; fall back for exotic builds
    from numpy.typing import DTypeLike
except ImportError:  # pragma: no cover
    DTypeLike = Any  # type: ignore[assignment, misc]

from .distance import haversine, haversine_array, meters_per_degree

__all__ = [
    "ColumnarTraces",
    "spatial_time_bins",
    "iter_neighbor_pairs",
    "colocation_events",
    "connected_components",
    "SyncedDistances",
    "windowed_stay_spans",
    "grid_dbscan",
    "segmented_searchsorted",
    "concat_ranges",
    "polyline_distances",
    "haversine_above",
]


def spatial_time_bins(
    lats: np.ndarray,
    lons: np.ndarray,
    timestamps: np.ndarray,
    cell_m: float,
    bucket_s: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer ``(row, col, bucket)`` bins for a spatio-temporal ±1-bin join.

    Cell sizes are chosen so that any two points within ``cell_m`` meters and
    ``bucket_s`` seconds are guaranteed to land in the same or adjacent bins:
    the longitude step uses the meters-per-degree at the *extreme* latitude of
    the data (degree spans only widen toward the equator-side of it), so the
    adjacency prefilter never drops a true pair however the data spreads in
    latitude.

    Longitude is not wrapped: two fixes either side of ±180° are binned a
    whole circle apart, so a ±1-bin join never pairs them, however close
    they are.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    timestamps = np.asarray(timestamps, dtype=float)
    max_abs_lat = float(np.max(np.abs(lats))) if lats.size else 0.0
    lat_m, _ = meters_per_degree(0.0)
    _, lon_m = meters_per_degree(max_abs_lat)
    rows = np.floor((lats - lats.min()) / (cell_m / lat_m)).astype(np.int64)
    cols = np.floor((lons - lons.min()) / (cell_m / max(lon_m, 1e-9))).astype(np.int64)
    buckets = np.floor((timestamps - timestamps.min()) / bucket_s).astype(np.int64)
    return rows, cols, buckets


class ColumnarTraces:
    """A dataset flattened into parallel per-point arrays.

    Points of user ``k`` occupy the half-open slice
    ``[offsets[k], offsets[k + 1])`` of every array and stay in the user's
    chronological order; ``user_index`` repeats ``k`` over that slice so any
    per-point computation can recover ownership without string lookups.
    The arrays are read-only views: the columnar form is shared (and cached
    by ``MobilityDataset.columnar()``), never mutated.
    """

    __slots__ = ("user_ids", "user_index", "timestamps", "lats", "lons", "offsets")

    def __init__(
        self,
        user_ids: Sequence[str],
        timestamps: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.user_ids: List[str] = list(user_ids)
        self.offsets = self._readonly(np.asarray(offsets, dtype=np.int64))
        if self.offsets.size != len(self.user_ids) + 1:
            raise ValueError("offsets must have one entry more than user_ids")
        n = int(self.offsets[-1])
        self.timestamps = self._readonly(np.asarray(timestamps, dtype=float))
        self.lats = self._readonly(np.asarray(lats, dtype=float))
        self.lons = self._readonly(np.asarray(lons, dtype=float))
        if not (self.timestamps.size == self.lats.size == self.lons.size == n):
            raise ValueError("array lengths must match offsets[-1]")
        counts = np.diff(self.offsets)
        if counts.size and counts.min() < 0:
            raise ValueError("offsets must be non-decreasing")
        self.user_index = self._readonly(
            np.repeat(np.arange(len(self.user_ids), dtype=np.int64), counts)
        )

    @staticmethod
    def _readonly(arr: np.ndarray) -> np.ndarray:
        view = np.ascontiguousarray(arr).view()
        view.flags.writeable = False
        return view

    @classmethod
    def from_trajectories(cls, trajectories: Sequence) -> "ColumnarTraces":
        """Flatten objects exposing ``user_id`` / ``timestamps`` / ``lats`` / ``lons``."""
        trajectories = list(trajectories)
        user_ids = [t.user_id for t in trajectories]
        counts = [len(t.timestamps) for t in trajectories]
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        if trajectories:
            timestamps = np.concatenate([np.asarray(t.timestamps, dtype=float) for t in trajectories])
            lats = np.concatenate([np.asarray(t.lats, dtype=float) for t in trajectories])
            lons = np.concatenate([np.asarray(t.lons, dtype=float) for t in trajectories])
        else:
            timestamps = lats = lons = np.zeros(0)
        return cls(user_ids, timestamps, lats, lons, offsets)

    # -- shape ---------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return int(self.timestamps.size)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_observed_users(self) -> int:
        """Users contributing at least one point."""
        return int(np.count_nonzero(np.diff(self.offsets)))

    def user_slice(self, index: int) -> slice:
        """The half-open point slice of the ``index``-th user."""
        return slice(int(self.offsets[index]), int(self.offsets[index + 1]))

    def __repr__(self) -> str:
        return f"ColumnarTraces(users={self.n_users}, points={self.n_points})"


# ---------------------------------------------------------------------------
# The bin join
# ---------------------------------------------------------------------------


def _positive_offsets(
    reach: Tuple[int, int, int]
) -> Tuple[Tuple[int, int, int], ...]:
    """The lexicographically-positive neighbor offsets within ``reach``.

    Together with the same-bin case they cover every unordered bin pair at
    Chebyshev distance up to ``reach`` (per dimension) exactly once — the
    mirrored negative offsets would revisit the same unordered pairs.  At the
    default ``reach=(1, 1, 1)`` these are the classic 13 offsets of a ±1 join.
    """
    r0, r1, r2 = reach
    return tuple(
        (dr, dc, db)
        for dr in range(-r0, r0 + 1)
        for dc in range(-r1, r1 + 1)
        for db in range(-r2, r2 + 1)
        if (dr, dc, db) > (0, 0, 0)
    )


def concat_ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenation of the index ranges ``[start_k, start_k + count_k)``."""
    total = int(count.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    shift = np.asarray(start, dtype=np.int64) - (np.cumsum(count) - count)
    return np.repeat(shift, count) + np.arange(total, dtype=np.int64)


#: Upper bound on the pairs materialised per emitted batch (~32 MB of int64
#: per index array).  Dense bins — a large radius relative to the dataset
#: extent — would otherwise allocate the whole cross product at once.
_MAX_PAIRS_PER_BATCH = 4_194_304


def _cartesian_pair_batches(
    start_a: np.ndarray,
    count_a: np.ndarray,
    start_b: np.ndarray,
    count_b: np.ndarray,
    max_pairs: Optional[int] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Cartesian products of matched variable-size index ranges, in batches.

    Built from repeats instead of per-pair integer division: the left side
    repeats each A-element by its partner range's size, the right side tiles
    the B-range once per A-element.  Batches are split on A-elements so no
    batch exceeds ``max_pairs`` pairs (plus at most one B-range), keeping
    peak memory bounded even when a few bins hold most of the points.
    """
    if max_pairs is None:
        max_pairs = _MAX_PAIRS_PER_BATCH  # module global: tests shrink it
    if int((count_a * count_b).sum()) == 0:
        return
    a_elements = concat_ranges(start_a, count_a)
    b_starts = np.repeat(start_b, count_a)
    b_counts = np.repeat(count_b, count_a)
    cumulative = np.cumsum(b_counts)
    lo = 0
    while lo < a_elements.size:
        floor = int(cumulative[lo - 1]) if lo else 0
        hi = int(np.searchsorted(cumulative, floor + max_pairs, side="right"))
        hi = max(hi, lo + 1)  # always advance, even past an oversized range
        batch = slice(lo, hi)
        left = np.repeat(a_elements[batch], b_counts[batch])
        right = concat_ranges(b_starts[batch], b_counts[batch])
        if left.size:
            yield left, right
        lo = hi


def iter_neighbor_pairs(
    rows: np.ndarray,
    cols: np.ndarray,
    buckets: np.ndarray,
    reach: Union[int, Tuple[int, int, int]] = 1,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield all unordered point pairs in the same or nearby integer bins.

    ``rows`` / ``cols`` / ``buckets`` are per-point integer bin coordinates.
    Pairs are yielded as ``(i, j)`` batches of original point indices with
    ``i < j``; each unordered pair appears in exactly one batch.  Batches are
    per neighbor offset so callers can filter each batch down to confirmed
    matches before the next one is materialised (bounding peak memory by the
    densest single offset instead of the whole candidate set).

    ``reach`` is the Chebyshev bin distance joined, per dimension (a scalar
    applies to all three): the default ``1`` is the classic ±1 join, and a
    reach of ``0`` in a dimension restricts pairs to the *same* bin of that
    dimension (e.g. segment identifiers that pairs must never cross).
    """
    if rows.size < 2:
        return
    if isinstance(reach, int):
        reach = (reach, reach, reach)
    order, start, count, neighbours = _bin_runs(rows, cols, buckets, reach)

    # Same-bin pairs: the cartesian product of each bin with itself, kept
    # only where the left sorted position precedes the right one.
    for left, right in _cartesian_pair_batches(start, count, start, count):
        mask = left < right
        if mask.any():
            yield _as_unordered(order[left[mask]], order[right[mask]])

    for a, b in neighbours:
        for left, right in _cartesian_pair_batches(start[a], count[a], start[b], count[b]):
            yield _as_unordered(order[left], order[right])


def _cross_owner_pairs(
    rows: np.ndarray,
    cols: np.ndarray,
    buckets: np.ndarray,
    owners: np.ndarray,
) -> Tuple[np.ndarray, Iterator[Tuple[np.ndarray, np.ndarray]]]:
    """The point pairs of a ±1 :func:`iter_neighbor_pairs` join whose owners differ.

    ``owners`` must be non-decreasing in the point index (the columnar
    ``user_index``).  A bin's points sort by index, so each owner holds one
    *run* of consecutive sorted positions per bin.  The join pairs runs
    first — a bin's runs with each other, and the runs of neighbouring
    bins — and drops the run pairs of one owner there, so a same-owner
    point pair is never built.  Each run pair is oriented lower owner
    first, which puts every point of its left run before every point of its
    right one in index order.

    Returns ``(order, pairs)``: ``order`` sorts the points by bin, and
    ``pairs`` yields batches of sorted positions ``(left, right)`` with
    ``order[left] < order[right]``, each unordered pair exactly once.
    """
    order, start, count, neighbours = _bin_runs(rows, cols, buckets, (1, 1, 1))
    owner = np.asarray(owners)[order]
    first = np.zeros(order.size, dtype=bool)
    first[start] = True
    first[1:] |= owner[1:] != owner[:-1]
    run_start = np.flatnonzero(first)
    run_count = np.diff(np.append(run_start, order.size))
    run_owner = owner[run_start]
    run_of = np.cumsum(first) - 1
    bin_run = run_of[start]
    bin_runs = run_of[start + count - 1] - bin_run + 1

    def run_pairs() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        # Same bin: of the two orders of a run pair, keep lower owner first.
        multi = np.flatnonzero(bin_runs > 1)
        for ra, rb in _cartesian_pair_batches(
            bin_run[multi], bin_runs[multi], bin_run[multi], bin_runs[multi]
        ):
            keep = run_owner[ra] < run_owner[rb]
            yield ra[keep], rb[keep]
        # Neighbouring bins: keep every run pair of two owners, flipped to
        # lower owner first.
        for a, b in neighbours:
            for ra, rb in _cartesian_pair_batches(bin_run[a], bin_runs[a], bin_run[b], bin_runs[b]):
                oa, ob = run_owner[ra], run_owner[rb]
                keep = oa != ob
                flip = (oa > ob)[keep]
                ra, rb = ra[keep], rb[keep]
                yield np.where(flip, rb, ra), np.where(flip, ra, rb)

    def pairs() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for ra, rb in run_pairs():
            yield from _cartesian_pair_batches(
                run_start[ra], run_count[ra], run_start[rb], run_count[rb]
            )

    return order, pairs()


def _compressed(values: np.ndarray, reach: int) -> np.ndarray:
    """``values`` renumbered with every gap wider than ``reach`` cut to ``reach + 1``.

    Monotone, and two values stay exactly as far apart when they are at
    most ``reach`` apart and stay more than ``reach`` apart otherwise: the
    bin adjacency of a ±``reach`` join, and the bins' sort order, are kept.
    """
    occupied, inverse = np.unique(values, return_inverse=True)
    steps = np.minimum(np.diff(occupied), reach + 1)
    return np.concatenate([[0], np.cumsum(steps)])[inverse.reshape(-1)]


def _bin_runs(
    rows: np.ndarray,
    cols: np.ndarray,
    buckets: np.ndarray,
    reach: Tuple[int, int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Iterator[Tuple[np.ndarray, np.ndarray]]]:
    """Points grouped by packed bin key, plus the neighbouring bins per offset.

    Returns ``(order, start, count, neighbours)``: ``order`` sorts the points
    by bin, bin ``k`` (in ascending packed-key order) holds the sorted
    positions ``[start[k], start[k] + count[k])``, and ``neighbours`` lazily
    yields, per lexicographically-positive offset within ``reach``, the
    ``(a, b)`` bin-index arrays of the bin pairs at that offset.

    Bins too fine for the data's extent (a sub-micrometre radius) would not
    pack into int64 keys; their coordinates are then renumbered by
    :func:`_compressed`, which keeps both the bin order and the adjacency.
    """
    reach = tuple(int(x) for x in reach)
    if min(reach) < 0:
        raise ValueError(f"reach must be non-negative, got {reach}")
    coords = [np.asarray(x, dtype=np.int64) for x in (rows, cols, buckets)]

    def dims() -> List[int]:
        # Coordinates shift to [reach + 1, extent + reach + 1] so the
        # neighbor shifts below never borrow across the packed dimensions.
        return [int(x.max()) - int(x.min()) + 2 * r + 2 for x, r in zip(coords, reach)]

    if math.prod(dims()) >= 2**63:
        coords = [_compressed(x, r) for x, r in zip(coords, reach)]
    dim_r, dim_c, dim_b = dims()
    if dim_r * dim_c * dim_b >= 2**63:
        raise ValueError(
            f"bin space too large to pack into int64 keys: {dim_r} x {dim_c} x {dim_b}"
        )
    r, c, b = (x - int(x.min()) + k + 1 for x, k in zip(coords, reach))
    keys = (r * dim_c + c) * dim_b + b
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    start = _run_starts(sorted_keys)
    count = np.diff(np.append(start, sorted_keys.size))
    unique_keys = sorted_keys[start]

    def neighbours() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        # Bins whose packed keys differ by exactly one offset's key delta.
        for dr, dc, db in _positive_offsets(reach):
            targets = unique_keys + (dr * dim_c + dc) * dim_b + db
            pos = np.minimum(np.searchsorted(unique_keys, targets), unique_keys.size - 1)
            matched = unique_keys[pos] == targets
            if matched.any():
                yield np.flatnonzero(matched), pos[matched]

    return order, start, count, neighbours()


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Start positions of the runs of equal values in ``values``."""
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return np.flatnonzero(first)


def _as_unordered(i: np.ndarray, j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return np.minimum(i, j), np.maximum(i, j)


# ---------------------------------------------------------------------------
# Co-location confirmation
# ---------------------------------------------------------------------------


def colocation_events(
    traces: ColumnarTraces,
    radius_m: float,
    max_time_gap_s: float,
    merge_gap_s: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One confirmed co-location per ``(user pair, merge window)``.

    Two points of *different* users co-locate when their haversine distance
    is at most ``radius_m`` and their time difference at most
    ``max_time_gap_s``.  Each ``(user pair, merge window)`` key — the window
    being ``floor(min(t_i, t_j) / max(merge_gap_s, 1))`` — keeps,
    canonically, its co-location with the lexicographically smallest point
    index pair.

    Only cross-user pairs are joined (:func:`_cross_owner_pairs`), and only
    the time test runs on all of them.  The in-time candidates are grouped
    once by key and confirmed *first witness* first: round one tests every
    key's smallest ``(i, j)`` against the radius; a key whose witness fails
    ranks its larger candidates and tests them in order, in windows that
    double each round, until one passes.  Almost every key settles in round
    one, so distances are computed for about one candidate per key instead
    of for every candidate.

    Returns five aligned arrays ``(i, j, mid_lat, mid_lon, mid_ts)`` ordered
    by key, where ``i < j`` index into ``traces`` and the ``mid_*`` are pair
    midpoints.
    """
    empty = np.zeros(0, dtype=np.int64)
    if traces.n_points < 2 or traces.n_observed_users < 2:
        return empty, empty, np.zeros(0), np.zeros(0), np.zeros(0)

    lats, lons, ts = traces.lats, traces.lons, traces.timestamps
    user_index = traces.user_index
    rows, cols, buckets = spatial_time_bins(lats, lons, ts, radius_m, max_time_gap_s)

    order, pairs = _cross_owner_pairs(rows, cols, buckets, user_index)
    sorted_ts = ts[order]
    cand_i: List[np.ndarray] = [empty]
    cand_j: List[np.ndarray] = [empty]
    for left, right in pairs:
        in_time = np.abs(sorted_ts[left] - sorted_ts[right]) <= max_time_gap_s
        cand_i.append(order[left[in_time]])
        cand_j.append(order[right[in_time]])
    i = np.concatenate(cand_i)
    j = np.concatenate(cand_j)
    if i.size == 0:
        return empty, empty, np.zeros(0), np.zeros(0), np.zeros(0)

    # Group the candidates by key, in key order.  i < j and user_index is
    # monotone, so the ordered user pair is (user_index[i], user_index[j]).
    window = (np.minimum(ts[i], ts[j]) // max(merge_gap_s, 1.0)).astype(np.int64)
    window -= window.min()
    n_users, n_windows = traces.n_users, int(window.max()) + 1
    if n_users * n_users * n_windows < 2**63:
        key = (user_index[i] * n_users + user_index[j]) * n_windows + window
    else:  # dense lexicographic ranks of the (lo user, hi user, window) rows
        key = np.unique(
            np.stack([user_index[i], user_index[j], window], axis=1),
            axis=0, return_inverse=True,
        )[1].reshape(-1)
    group = np.argsort(key)
    starts = _run_starts(key[group])
    # (i, j) as one int64 ordered like the pair (n_points**2 < 2**63).
    n = traces.n_points
    code = i[group] * n + j[group]

    # First witness.  Round one confirms every key's smallest candidate.
    best = np.minimum.reduceat(code, starts)
    witness = np.where(_within(best, n, lats, lons, radius_m), best, -1)
    # The keys whose smallest candidate failed rank their larger candidates
    # and confirm them in windows that double each round; a key settles on
    # the first candidate of a window that passes.
    failed = np.flatnonzero(witness < 0)
    sizes = np.diff(np.append(starts, code.size))[failed]
    rest = concat_ranges(starts[failed], sizes)
    of = np.repeat(failed, sizes)
    larger = code[rest] > best[of]
    code, of = code[rest][larger], of[larger]
    ranked = np.lexsort((code, of))
    code, of = code[ranked], of[ranked]
    lo = _run_starts(of)
    end = np.append(lo[1:], code.size)
    width = 1
    while lo.size:
        hi = np.minimum(lo + width, end)
        probe = concat_ranges(lo, hi - lo)
        passed = np.where(_within(code[probe], n, lats, lons, radius_m), probe, code.size)
        hit = np.minimum.reduceat(passed, np.cumsum(hi - lo) - (hi - lo))
        found = hit < code.size
        witness[of[lo[found]]] = code[hit[found]]
        still = ~found & (hi < end)
        lo, end = hi[still], end[still]
        width *= 2
    i, j = np.divmod(witness[witness >= 0], n)

    mid_lat = (lats[i] + lats[j]) / 2.0
    mid_lon = (lons[i] + lons[j]) / 2.0
    mid_ts = (ts[i] + ts[j]) / 2.0
    return i, j, mid_lat, mid_lon, mid_ts


def _within(
    code: np.ndarray, n: int, lats: np.ndarray, lons: np.ndarray, radius_m: float
) -> np.ndarray:
    """The radius test of the point pairs ``(i, j) = divmod(code, n)``."""
    i, j = np.divmod(code, n)
    return haversine_array(lats[i], lons[i], lats[j], lons[j]) <= radius_m


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------


def connected_components(n: int, edges_a: np.ndarray, edges_b: np.ndarray) -> np.ndarray:
    """Connected-component labels of ``n`` nodes under undirected edges.

    Returns an ``(n,)`` integer array where two nodes share a value iff they
    are connected; label values themselves are arbitrary.  Uses
    :mod:`scipy.sparse.csgraph` when available and otherwise falls back to
    vectorized label propagation with pointer jumping: every node starts as
    its own label, each round pulls the minimum label across all edges and
    compresses label chains, and the loop ends at a fixed point (O(log n)
    rounds).
    """
    labels = np.arange(n, dtype=np.int64)
    if edges_a.size == 0:
        return labels
    a = np.asarray(edges_a, dtype=np.int64)
    b = np.asarray(edges_b, dtype=np.int64)
    try:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components as _scipy_cc
    except ImportError:
        pass
    else:
        graph = coo_matrix((np.ones(a.size, dtype=np.int8), (a, b)), shape=(n, n))
        return _scipy_cc(graph, directed=False)[1].astype(np.int64)
    while True:
        neighbor_min = labels.copy()
        np.minimum.at(neighbor_min, a, labels[b])
        np.minimum.at(neighbor_min, b, labels[a])
        # Compress chains until every label points at a fixed point.
        while True:
            jumped = neighbor_min[neighbor_min]
            if np.array_equal(jumped, neighbor_min):
                break
            neighbor_min = jumped
        if np.array_equal(neighbor_min, labels):
            return labels
        labels = neighbor_min


# ---------------------------------------------------------------------------
# Synchronized-trajectory kernels (Wait-For-Me)
# ---------------------------------------------------------------------------


class SyncedDistances:
    """Repeated masked-mean distance queries against one coordinate stack.

    For callers that issue many queries against the same ``(n_users,
    n_grid, 2)`` matrix (greedy clustering asks for distances from a fresh
    seed every round).  For each candidate the mean is taken over the grid
    steps where both users are observed; candidates sharing no observed
    step get ``inf``.
    Construction precomputes what the masking otherwise recomputes per call:

    * zero-filled coordinate planes, so the per-pair arithmetic is NaN-free
      (spurious terms at half-observed steps are cancelled by the mask);
    * the full pairwise overlap-step counts in one BLAS matmul;
    * reusable ``(n, n_grid)`` workspaces, so a query allocates nothing of
      consequence.

    ``dtype`` selects the workspace precision.  ``float32`` halves memory
    traffic — on planar offsets measured in meters it quantizes distances at
    the sub-millimeter level, far below GPS noise — and is what the
    Wait-For-Me clustering uses; the default keeps full precision.
    """

    def __init__(self, stack: np.ndarray, dtype: DTypeLike = np.float64) -> None:
        self._init_from_planes(stack[:, :, 0], stack[:, :, 1], dtype)

    @classmethod
    def from_planes(
        cls, xs: np.ndarray, ys: np.ndarray, dtype: DTypeLike = np.float64
    ) -> "SyncedDistances":
        """Build from separate ``(n_users, n_grid)`` coordinate planes."""
        synced = cls.__new__(cls)
        synced._init_from_planes(xs, ys, dtype)
        return synced

    def _init_from_planes(self, xs: np.ndarray, ys: np.ndarray, dtype: DTypeLike) -> None:
        n, n_grid = xs.shape
        self.dtype = np.dtype(dtype)
        self.observed = ~np.isnan(xs)
        self._observed_f = self.observed.astype(self.dtype)
        self._counts = self._observed_f @ self._observed_f.T  # (n, n) overlaps
        self._x = xs.astype(self.dtype)
        self._y = ys.astype(self.dtype)
        unobserved = ~self.observed
        self._x[unobserved] = 0.0
        self._y[unobserved] = 0.0
        self._dx = np.empty((n, n_grid), dtype=self.dtype)
        self._dy = np.empty((n, n_grid), dtype=self.dtype)
        self._mask = np.empty((n, n_grid), dtype=self.dtype)

    def distances_from(self, target: int, candidates: np.ndarray) -> np.ndarray:
        """Masked mean planar distance from ``target`` to each candidate."""
        candidates = np.asarray(candidates, dtype=np.int64)
        m = candidates.size
        if m == 0:
            return np.zeros(0)
        dx, dy, mask = self._dx[:m], self._dy[:m], self._mask[:m]
        np.take(self._x, candidates, axis=0, out=dx, mode="clip")
        dx -= self._x[target]
        np.take(self._y, candidates, axis=0, out=dy, mode="clip")
        dy -= self._y[target]
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        np.take(self._observed_f, candidates, axis=0, out=mask, mode="clip")
        mask *= self._observed_f[target]
        dx *= mask
        sums = dx.sum(axis=1, dtype=self.dtype)
        counts = self._counts[target, candidates]
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.inf)

    def pair_distance(self, a: int, b: int) -> float:
        """Scalar masked mean distance between two users (reference path).

        Computed with the same dtype and reduction as :meth:`distances_from`
        so scalar reference implementations built on it agree with the
        batched queries bit-for-bit.
        """
        return float(self.distances_from(a, np.array([b]))[0])


# ---------------------------------------------------------------------------
# Windowed extent scan (stay-point extraction)
# ---------------------------------------------------------------------------

#: Safety margin in meters subtracted from every cumulative-extent skip.  The
#: triangle inequality guaranteeing skipped points are in-diameter holds in
#: exact arithmetic; one millimeter dwarfs the accumulated float error of any
#: realistic cumulative path sum while being far below any meaningful stay
#: diameter, so certified skips can never disagree with an exact distance test.
_STAY_SKIP_MARGIN_M = 1e-3


def windowed_stay_spans(
    timestamps: np.ndarray,
    lats: np.ndarray,
    lons: np.ndarray,
    offsets: np.ndarray,
    max_diameter_m: float,
    min_duration_s: float,
    max_gap_s: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stay-point spans of flattened per-user traces, as index intervals.

    Implements the classic two-pointer stay-point scan (Li et al.): from an
    anchor fix ``i`` the window extends to the first fix ``j`` that either
    lies more than ``max_diameter_m`` meters from the anchor or follows a
    sampling gap longer than ``max_gap_s``; when the window spans at least
    ``min_duration_s`` seconds (and two fixes) a stay ``[i, j)`` is emitted
    and the scan restarts at ``j``, otherwise at ``i + 1``.  Windows never
    cross the user boundaries described by ``offsets``.

    The scan is resolved without walking fixes in Python.  Per-anchor window
    *reaches* are computed in batched probe rounds over all unresolved
    anchors at once: each round confirms one candidate fix per anchor with a
    batched haversine call, and anchors whose candidate is still in-diameter
    skip ahead along the cumulative travelled path — every fix whose arc
    length from the current candidate is below the remaining diameter slack
    is within the diameter by the triangle inequality, so dense stretches of
    a stay are certified wholesale.  Emission then only touches the anchors
    whose windows qualify, one step per *emitted stay*.

    Returns ``(starts, ends)``: int64 arrays of half-open ``[start, end)``
    spans into the flattened arrays, in scan order.  The result is identical
    to running the scalar scan user by user.
    """
    ts = np.asarray(timestamps, dtype=float)
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = ts.size
    empty = np.zeros(0, dtype=np.int64)
    if n < 2:
        return empty, empty

    # Forced window breaks: the first fix of every user but the first, and
    # any fix following an over-long sampling gap.  cap[i] is the first break
    # at or after i + 1 — no window anchored at i may reach past it.
    user_starts = offsets[1:-1]
    gap_pos = np.nonzero(np.diff(ts) > max_gap_s)[0] + 1
    break_pos = np.union1d(user_starts, gap_pos).astype(np.int64)
    idx = np.arange(n, dtype=np.int64)
    if break_pos.size:
        where = np.searchsorted(break_pos, idx, side="right")
        cap = np.where(
            where < break_pos.size, break_pos[np.minimum(where, break_pos.size - 1)], n
        )
    else:
        cap = np.full(n, n, dtype=np.int64)

    # Cumulative travelled arc length.  Within one user, cum[j] - cum[i]
    # upper-bounds the anchor distance haversine(i, j); boundary segments
    # between users cancel out of any within-user difference, and windows are
    # capped before ever crossing one.
    seg = haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])
    cum = np.concatenate([[0.0], np.cumsum(seg)])

    reach = cap.copy()
    # Initial probes: skip every fix certified in-diameter from the anchor.
    probe = np.searchsorted(cum, cum + (max_diameter_m - _STAY_SKIP_MARGIN_M), side="left")
    probe = np.maximum(probe, idx + 1)
    active = np.nonzero(probe < cap)[0]
    probe = probe[active]
    while active.size:
        d = haversine_array(lats[active], lons[active], lats[probe], lons[probe])
        far = d > max_diameter_m
        reach[active[far]] = probe[far]
        near = ~far
        active, probe, d = active[near], probe[near], d[near]
        if not active.size:
            break
        slack = (max_diameter_m - d) - _STAY_SKIP_MARGIN_M
        skipped = np.searchsorted(cum, cum[probe] + slack, side="left")
        probe = np.maximum(probe + 1, skipped)
        alive = probe < cap[active]
        active, probe = active[alive], probe[alive]

    # Qualify anchors, then replay the sequential scan over qualifying
    # anchors only: between two emissions the scalar scan advances one fix at
    # a time without emitting, so it lands exactly on the next qualifying
    # anchor at or after the previous window's end.
    ok = (reach - idx >= 2) & (ts[reach - 1] - ts >= min_duration_s)
    candidates = np.nonzero(ok)[0].tolist()
    reach_list = reach.tolist()
    starts: List[int] = []
    pos = 0
    k = 0
    n_candidates = len(candidates)
    while k < n_candidates:
        anchor = candidates[k]
        if anchor < pos:
            k = bisect_left(candidates, pos, k + 1)
            continue
        starts.append(anchor)
        pos = reach_list[anchor]
        k += 1
    start_arr = np.asarray(starts, dtype=np.int64)
    return start_arr, reach[start_arr]


# ---------------------------------------------------------------------------
# Grid DBSCAN on the clique grid (DJ-Cluster)
# ---------------------------------------------------------------------------


#: Safety margin in meters shrinking the clique-grid cell below
#: ``radius / sqrt(2)``.  In exact arithmetic any two points of one cell are
#: within the cell diagonal = ``radius``; the margin absorbs the floating
#: point slop of the binning divisions, so a certified same-cell pair can
#: never be a pair an exact ``dx*dx + dy*dy <= radius*radius`` test rejects.
#: The effective margin is capped at 1 % of the radius: any larger fraction
#: would let a radius span more than two of the shrunken cells, breaking the
#: ±2-bin coverage (``sqrt(2) / (1 - f) <= 2`` needs ``f <= 0.29``), while
#: 1 % of any super-margin radius still dwarfs coordinate rounding error.
_CLIQUE_MARGIN_M = 1e-6


def _clique_side(radius: float) -> float:
    """Side of the certified clique-grid cell for ``radius``."""
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    return (radius - min(_CLIQUE_MARGIN_M, 0.01 * radius)) / np.sqrt(2.0)


def grid_dbscan(
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float,
    min_points: int,
    segments: Optional[np.ndarray] = None,
) -> np.ndarray:
    """DBSCAN labels of planar points on the clique grid (``-1`` = noise).

    A point is *core* when at least ``min_points`` points (itself included)
    pass ``dx*dx + dy*dy <= radius*radius``; clusters are the connected
    components of the core-core neighbour graph, numbered by their smallest
    core index, and a non-core point next to a core takes the smallest
    adjacent cluster number — exactly what a scalar DBSCAN scanning seeds
    in index order produces.

    Points are binned into cells of side ``(radius - margin) / sqrt(2)``:
    the cell diagonal is below ``radius``, so any two co-members are
    *certified* neighbours and a cell's cores form a clique.  A radius spans
    at most two cells, so neighbours lie within a ±2-cell reach.  The
    clustering is then decided on cells (grid DBSCAN, Gunawan 2013):

    * a *dense* cell (``>= min_points`` members) makes all its members core
      and needs no per-point pairs at all;
    * point pairs are materialised, and confirmed with the exact squared
      distance, only for neighbouring cell pairs that include a sparse cell:
      they give sparse points their counts, core-core edges and border links;
    * two neighbouring dense cells are linked iff some cross pair passes the
      same test: first one witness pair (each cell's member closest to the
      other's centroid), and only when it fails an exhaustive batched check;
    * connected components run on the cell graph, one node per cell's cores.

    ``segments`` (optional) assigns every point an integer segment identifier
    (e.g. the owning user); cells are keyed by ``(segment, row, col)`` and
    never join across segments, so one call clusters a whole dataset of
    independent per-user point sets.

    Radii at or below the certification margin (~1e-6 m) cannot be certified
    by any cell: every point is then its own cell, binned for the ±1 join at
    side ``radius``, and every candidate pair is confirmed exactly.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if min_points < 1:
        raise ValueError(f"min_points must be at least 1, got {min_points}")
    certified = radius > _CLIQUE_MARGIN_M
    side = _clique_side(radius) if certified else radius
    n = xs.size
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    if segments is None:
        buckets = np.zeros(n, dtype=np.int64)
    else:
        buckets = np.asarray(segments, dtype=np.int64)
        if buckets.shape != xs.shape:
            raise ValueError("segments must align with the point arrays")
    r2 = radius * radius
    rows = np.floor((ys - ys.min()) / side).astype(np.int64)
    cols = np.floor((xs - xs.min()) / side).astype(np.int64)
    order, start, count, neighbours = _bin_runs(
        rows, cols, buckets, (2, 2, 0) if certified else (1, 1, 0)
    )
    bin_of = np.empty(n, dtype=np.int64)
    bin_of[order] = np.repeat(np.arange(count.size, dtype=np.int64), count)
    if certified:
        cell, n_cells = bin_of, count.size
        dense = count >= min_points
        n_neighbours = count[bin_of]  # the point itself + its certified co-members
    else:
        cell, n_cells = np.arange(n, dtype=np.int64), n
        dense = np.zeros(count.size, dtype=bool)
        n_neighbours = np.ones(n, dtype=np.int64)

    kept_i: List[np.ndarray] = []
    kept_j: List[np.ndarray] = []

    def confirm(left: np.ndarray, right: np.ndarray) -> None:
        i, j = order[left], order[right]
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        close = dx * dx + dy * dy <= r2
        if close.any():
            kept_i.append(i[close])
            kept_j.append(j[close])

    if not certified:
        for left, right in _cartesian_pair_batches(start, count, start, count):
            below = left < right
            confirm(left[below], right[below])
    dense_a: List[np.ndarray] = []
    dense_b: List[np.ndarray] = []
    for a, b in neighbours:
        both = dense[a] & dense[b]
        dense_a.append(a[both])
        dense_b.append(b[both])
        a, b = a[~both], b[~both]
        for left, right in _cartesian_pair_batches(start[a], count[a], start[b], count[b]):
            confirm(left, right)

    empty = np.zeros(0, dtype=np.int64)
    pair_i = np.concatenate(kept_i) if kept_i else empty
    pair_j = np.concatenate(kept_j) if kept_j else empty
    n_neighbours = (
        n_neighbours + np.bincount(pair_i, minlength=n) + np.bincount(pair_j, minlength=n)
    )
    core = n_neighbours >= min_points
    core_pos = np.flatnonzero(core)
    if core_pos.size == 0:
        return labels

    both_core = core[pair_i] & core[pair_j]
    link_a, link_b = _linked_dense_cells(
        np.concatenate(dense_a) if dense_a else empty,
        np.concatenate(dense_b) if dense_b else empty,
        xs[order], ys[order], start, count, r2,
    )
    component = connected_components(
        n_cells,
        np.concatenate([cell[pair_i[both_core]], link_a]),
        np.concatenate([cell[pair_j[both_core]], link_b]),
    )

    # Rank components that contain cores by their smallest core index:
    # rank 0 is the cluster the scalar BFS would discover first.
    core_component = component[cell[core_pos]]
    min_core = np.full(n_cells, n, dtype=np.int64)
    np.minimum.at(min_core, core_component, core_pos)
    cluster_ids = np.unique(core_component)
    cluster_ids = cluster_ids[np.argsort(min_core[cluster_ids], kind="stable")]
    rank = np.full(n_cells, -1, dtype=np.int64)
    rank[cluster_ids] = np.arange(cluster_ids.size)
    core_rank = rank[core_component]
    labels[core_pos] = core_rank

    # Border points (never in a dense cell): the cores of their own cell are
    # all adjacent and share one rank; cross-cell core neighbours come from
    # the confirmed pairs.
    cell_rank = np.full(n_cells, n, dtype=np.int64)
    cell_rank[cell[core_pos]] = core_rank
    border_rank = np.where(core, n, cell_rank[cell])
    pair_rank_i = rank[component[cell[pair_i]]]
    pair_rank_j = rank[component[cell[pair_j]]]
    i_only = core[pair_i] & ~core[pair_j]
    np.minimum.at(border_rank, pair_j[i_only], pair_rank_i[i_only])
    j_only = core[pair_j] & ~core[pair_i]
    np.minimum.at(border_rank, pair_i[j_only], pair_rank_j[j_only])
    is_border = border_rank < n
    labels[is_border] = border_rank[is_border]
    return labels


def _linked_dense_cells(
    a: np.ndarray,
    b: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    start: np.ndarray,
    count: np.ndarray,
    r2: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The cell pairs ``(a, b)`` with at least one cross pair within the radius.

    ``xs`` / ``ys`` are in cell-sorted order: cell ``k`` holds positions
    ``[start[k], start[k] + count[k])``.  Each pair first tests one witness
    pair (each cell's member closest to the other cell's centroid); pairs
    whose witness fails are checked exhaustively in memory-bounded batches.
    Every decision is the exact ``dx*dx + dy*dy <= r2`` of a real pair.
    """
    if a.size == 0:
        return a, b
    cx = np.add.reduceat(xs, start) / count
    cy = np.add.reduceat(ys, start) / count
    wa = _closest_member(a, cx[b], cy[b], xs, ys, start, count)
    wb = _closest_member(b, cx[a], cy[a], xs, ys, start, count)
    dx = xs[wa] - xs[wb]
    dy = ys[wa] - ys[wb]
    linked = dx * dx + dy * dy <= r2
    link_a, link_b = [a[linked]], [b[linked]]
    fa, fb = a[~linked], b[~linked]
    cell_of = np.repeat(np.arange(count.size, dtype=np.int64), count)
    for left, right in _cartesian_pair_batches(start[fa], count[fa], start[fb], count[fb]):
        dx = xs[left] - xs[right]
        dy = ys[left] - ys[right]
        close = dx * dx + dy * dy <= r2
        link_a.append(cell_of[left[close]])
        link_b.append(cell_of[right[close]])
    return np.concatenate(link_a), np.concatenate(link_b)


def _closest_member(
    cells: np.ndarray,
    tx: np.ndarray,
    ty: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    start: np.ndarray,
    count: np.ndarray,
) -> np.ndarray:
    """Per ``k``: the sorted position of the ``cells[k]`` member nearest ``(tx[k], ty[k])``."""
    sizes = count[cells]
    members = concat_ranges(start[cells], sizes)
    query = np.repeat(np.arange(cells.size), sizes)
    d = (xs[members] - tx[query]) ** 2 + (ys[members] - ty[query]) ** 2
    nearest_first = np.lexsort((d, query))
    return members[nearest_first[np.cumsum(sizes) - sizes]]


# ---------------------------------------------------------------------------
# Segmented timestamp search (multi-target tracking)
# ---------------------------------------------------------------------------


def segmented_searchsorted(
    values: np.ndarray,
    offsets: np.ndarray,
    queries: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """Per-segment ``searchsorted``: insertion points of ``queries`` in every segment.

    ``values`` is a flattened array whose segments ``[offsets[k], offsets[k+1])``
    are each sorted (the columnar timestamp layout: per-user chronological
    runs).  Returns an ``(n_segments, n_queries)`` int64 matrix of positions
    *relative to each segment's start*, one vectorized ``searchsorted`` per
    segment instead of one Python-level scan per (segment, query) pair.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    queries = np.asarray(queries, dtype=float)
    n_segments = offsets.size - 1
    out = np.empty((n_segments, queries.size), dtype=np.int64)
    for k in range(n_segments):
        segment = values[offsets[k] : offsets[k + 1]]
        out[k] = np.searchsorted(segment, queries, side=side)
    return out


# ---------------------------------------------------------------------------
# Point-to-polyline distances (per-user spatial distortion)
# ---------------------------------------------------------------------------


def _segment_distances(
    px: np.ndarray,
    py: np.ndarray,
    ax: np.ndarray,
    ay: np.ndarray,
    abx: np.ndarray,
    aby: np.ndarray,
    denom: np.ndarray,
) -> np.ndarray:
    """Elementwise point-to-segment distances, in the scalar oracle's float expression.

    ``abx`` / ``aby`` are the segment vectors ``b - a`` and ``denom`` their
    squared length.  Every operation, in order, is the one
    :func:`repro.geo.geometry.point_to_polyline_distance_m` evaluates per
    segment, so each value is bitwise the oracle's.
    """
    apx = px - ax
    apy = py - ay
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > 0.0, (apx * abx + apy * aby) / denom, 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx = ax + t * abx
    cy = ay + t * aby
    return np.hypot(px - cx, py - cy)


#: Pairs per broadcast block of the numpy-only polyline path: cache-sized
#: blocks run ~1.5x faster than blocks of ``_MAX_PAIRS_PER_BATCH``.
_BRUTE_BLOCK_PAIRS = 65_536


def _polyline_distances_brute(
    px: np.ndarray,
    py: np.ndarray,
    groups: List[Tuple[int, np.ndarray]],
    edges: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    edge_offsets: np.ndarray,
) -> np.ndarray:
    """Every edge of a point's own polyline is a candidate (numpy only).

    Blocks of a polyline's points broadcast against all of its edges.
    """
    ax, ay, abx, aby, denom = edges
    out = np.empty(px.size)
    for line, points in groups:
        lo, hi = int(edge_offsets[line]), int(edge_offsets[line + 1])
        block = max(1, _BRUTE_BLOCK_PAIRS // (hi - lo))
        for start in range(0, points.size, block):
            fixes = points[start : start + block]
            d = _segment_distances(
                px[fixes, None], py[fixes, None],
                ax[lo:hi], ay[lo:hi], abx[lo:hi], aby[lo:hi], denom[lo:hi],
            )
            out[fixes] = d.min(axis=1)
    return out


def _polyline_distances_indexed(
    px: np.ndarray,
    py: np.ndarray,
    groups: List[Tuple[int, np.ndarray]],
    edges: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    edge_offsets: np.ndarray,
    kdtree: Any,
) -> np.ndarray:
    """Candidate edges from a per-polyline KD-tree over points sampled along them.

    Every edge is sampled at ``t = k / m`` (``k = 0..m``) with ``m`` chosen so
    consecutive samples are at most ``spacing`` apart: any point of an edge
    then lies within ``spacing / 2`` of one of that edge's own samples.

    * **Bound.** A point's nearest sample names an edge; the exact distance
      to that edge is an upper bound ``u`` on the point's minimum.  A bound
      of exactly ``0`` is the minimum (no distance is negative).
    * **Candidates.** The edge holding the minimum lies within ``u`` of the
      point, so one of its samples lies within ``u + spacing / 2``: the
      samples in that radius (plus a slack far above coordinate rounding)
      name a candidate set that contains it, and the exact minimum over
      the candidates is the minimum over every edge.
    """
    ax, ay, abx, aby, denom = edges
    lengths = np.hypot(abx, aby)
    # The median edge length keeps the samples near a point few; the mean
    # floor caps their total at ~6 per edge however skewed the lengths are.
    spacing = max(float(np.median(lengths)), float(lengths.sum()) / (4.0 * lengths.size))
    if not spacing > 0.0:  # every edge has zero length
        spacing = 1.0
    steps = np.maximum(np.ceil(lengths / spacing), 1.0).astype(np.int64)
    sample_start = np.r_[0, np.cumsum(steps + 1)]
    sample_edge = np.repeat(np.arange(lengths.size, dtype=np.int64), steps + 1)
    t = (np.arange(sample_edge.size) - sample_start[sample_edge]) / steps[sample_edge]
    sx = ax[sample_edge] + t * abx[sample_edge]
    sy = ay[sample_edge] + t * aby[sample_edge]
    # The slack (1e-9 of the coordinate scale) dwarfs every rounding error
    # of the sampling, the KD-tree and the pair expression.
    scale = max(float(np.abs(sx).max()), float(np.abs(sy).max()),
                float(np.abs(px).max()), float(np.abs(py).max()), spacing)
    reach = 0.5 * spacing + 1e-9 * scale

    # Edges, hence samples, are stored polyline by polyline.
    sample_bounds = sample_start[edge_offsets]
    best = np.empty(px.size)
    for line, fixes in groups:
        lo, hi = int(sample_bounds[line]), int(sample_bounds[line + 1])
        tree = kdtree(np.column_stack([sx[lo:hi], sy[lo:hi]]))
        queries = np.column_stack([px[fixes], py[fixes]])
        _, nearest = tree.query(queries, k=1)
        e = sample_edge[nearest + lo]
        bound = _segment_distances(
            px[fixes], py[fixes], ax[e], ay[e], abx[e], aby[e], denom[e]
        )
        best[fixes] = bound
        open_ = bound > 0.0
        if not open_.any():
            continue
        fixes = fixes[open_]
        hits = tree.query_ball_point(queries[open_], r=bound[open_] + reach, return_sorted=False)
        counts = np.fromiter(map(len, hits), dtype=np.int64, count=len(hits))
        samples = np.fromiter(chain.from_iterable(hits), dtype=np.int64, count=int(counts.sum()))
        if samples.size == 0:
            continue
        # Each point's candidates are one contiguous run: reduce per run.
        firsts = (np.cumsum(counts) - counts)[counts > 0]
        e = sample_edge[samples + lo]
        i = np.repeat(fixes, counts)
        d = _segment_distances(px[i], py[i], ax[e], ay[e], abx[e], aby[e], denom[e])
        target = fixes[counts > 0]
        best[target] = np.minimum(best[target], np.minimum.reduceat(d, firsts))
    return best


def polyline_distances(
    xs: np.ndarray,
    ys: np.ndarray,
    segments: np.ndarray,
    line_xs: np.ndarray,
    line_ys: np.ndarray,
    line_offsets: np.ndarray,
) -> np.ndarray:
    """Distance from every planar point to the polyline of its segment.

    Polyline ``k`` is the vertex run ``[line_offsets[k], line_offsets[k + 1])``
    of ``line_xs`` / ``line_ys``; point ``i`` is measured against polyline
    ``segments[i]`` — e.g. every published fix against its own user's
    original path, the users being the segments.  Coordinates are planar
    meters.  A point whose polyline is empty raises ``ValueError``.

    The result is bitwise the scalar
    :func:`repro.geo.geometry.point_to_polyline_distance_m` of each point:
    every (point, edge) distance is the oracle's float expression, and each
    point takes the exact minimum over a candidate edge set that provably
    holds its nearest edge, which equals the minimum over all edges.
    Single-vertex polylines use ``math.hypot``, as the oracle does.
    Candidates come from a per-polyline KD-tree when scipy is available (it
    is in the benchmark environment); without scipy every edge of the
    point's own polyline is a candidate, in bounded batches.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    segments = np.asarray(segments, dtype=np.int64)
    line_xs = np.asarray(line_xs, dtype=float)
    line_ys = np.asarray(line_ys, dtype=float)
    line_offsets = np.asarray(line_offsets, dtype=np.int64)
    if not (xs.shape == ys.shape == segments.shape and line_xs.shape == line_ys.shape):
        raise ValueError("point and polyline arrays must align")
    sizes = np.diff(line_offsets)
    if line_offsets.size < 1 or line_offsets[0] != 0 or line_offsets[-1] != line_xs.size \
            or (sizes < 0).any():
        raise ValueError("line_offsets must run non-decreasing from 0 to len(line_xs)")
    out = np.empty(xs.size)
    if xs.size == 0:
        return out
    if segments.min() < 0 or segments.max() >= sizes.size:
        raise ValueError("segments must index the polylines")
    point_sizes = sizes[segments]
    if (point_sizes == 0).any():
        raise ValueError("cannot compute distance to an empty polyline")

    # The oracle measures a one-vertex polyline with math.hypot, whose
    # rounding can differ from np.hypot's in the last bit: use it too.
    single = np.flatnonzero(point_sizes == 1)
    if single.size:
        vertex = line_offsets[segments[single]]
        dx = (xs[single] - line_xs[vertex]).tolist()
        dy = (ys[single] - line_ys[vertex]).tolist()
        out[single] = [math.hypot(a, b) for a, b in zip(dx, dy)]
    multi = np.flatnonzero(point_sizes > 1)
    if multi.size == 0:
        return out

    edge_counts = np.maximum(sizes - 1, 0)
    edge_offsets = np.r_[0, np.cumsum(edge_counts)]
    starts = concat_ranges(line_offsets[:-1], edge_counts)
    ax, ay = line_xs[starts], line_ys[starts]
    abx = line_xs[starts + 1] - ax
    aby = line_ys[starts + 1] - ay
    edges = (ax, ay, abx, aby, abx * abx + aby * aby)
    # The points of each polyline, as indices into the multi-vertex subset.
    lines = segments[multi]
    order = np.argsort(lines, kind="stable")
    bounds = np.searchsorted(lines[order], np.arange(sizes.size + 1))
    groups = [
        (line, order[bounds[line] : bounds[line + 1]])
        for line in np.flatnonzero(np.diff(bounds)).tolist()
    ]
    px, py = xs[multi], ys[multi]
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        out[multi] = _polyline_distances_brute(px, py, groups, edges, edge_offsets)
    else:
        out[multi] = _polyline_distances_indexed(px, py, groups, edges, edge_offsets, cKDTree)
    return out


# ---------------------------------------------------------------------------
# Chunk joins of the streaming tier
# ---------------------------------------------------------------------------

#: Relative band around a threshold inside which :func:`haversine_above`
#: re-decides with the scalar :func:`haversine`.  The batched and scalar
#: formulas agree to a few ulps (~1e-15 relative), so outside the band the
#: batched value already decides exactly as the scalar would.
_HAVERSINE_BAND = 1e-9


def haversine_above(
    lat1: Any, lon1: Any, lat2: Any, lon2: Any, threshold: float
) -> np.ndarray:
    """Elementwise ``haversine(lat1, lon1, lat2, lon2) > threshold``, bitwise.

    Inputs broadcast like :func:`haversine_array`.  Distances farther than a
    relative band of ``1e-9`` from ``threshold`` are decided on the batched
    value; the few inside the band are re-evaluated with the scalar
    :func:`haversine` (same argument order), so every decision is exactly
    the one a per-point loop over the scalar function makes.
    """
    lat1, lon1, lat2, lon2 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (lat1, lon1, lat2, lon2))
    )
    d = np.asarray(haversine_array(lat1, lon1, lat2, lon2))
    margin = _HAVERSINE_BAND * max(abs(threshold), 1.0)
    above = np.array(d > threshold + margin)
    for k in np.flatnonzero(~above & (d >= threshold - margin)).tolist():
        above.flat[k] = haversine(
            float(lat1.flat[k]), float(lon1.flat[k]), float(lat2.flat[k]), float(lon2.flat[k])
        ) > threshold
    return above
