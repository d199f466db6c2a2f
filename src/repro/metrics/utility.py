"""Utility metrics: how much analytical value the published data retains.

The paper's stated goal is to "minimize the distortion of the geographical
information contained in the published mobility traces".  The metrics below
quantify that goal from the standpoint of a data analyst receiving the
published dataset:

* **Spatial distortion** — how far published points lie from the original
  movement (point-to-original-path distance).  This is the headline utility
  metric of experiment E2: the paper's mechanism only distorts *time*, so its
  spatial distortion should stay near the GPS noise floor, while
  location-noising baselines move points by design.
* **Area coverage** — whether the published data still covers the same places
  as the original at a given spatial granularity (precision/recall/F-score
  over grid cells), experiment E3.
* **Trip length error** — relative error of the per-user travelled distance.
* **Range query distortion** — relative error of random spatial count queries
  (the classic "how many points fall in this rectangle" analytics workload).
* **Point retention** — fraction of points still published at all.

All metrics compare an *original* and a *published*
:class:`~repro.core.trajectory.MobilityDataset`; none of them require user
identifiers to match (published data is typically pseudonymous), except the
per-user variants that say so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.trajectory import MobilityDataset, Trajectory
from ..geo.geometry import BoundingBox, point_to_polyline_distance_m
from ..geo.grid import Grid
from ..geo.kernels import polyline_distances
from ..geo.projection import LocalProjection

__all__ = [
    "DistortionSummary",
    "trajectory_spatial_distortion",
    "trajectory_spatial_distortion_reference",
    "dataset_spatial_distortion",
    "CoverageScore",
    "area_coverage",
    "trip_length_error",
    "range_query_distortion",
    "point_retention",
]


# ---------------------------------------------------------------------------
# Spatial distortion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionSummary:
    """Summary statistics (meters) of a set of point-to-path distances."""

    mean: float
    median: float
    p95: float
    max: float
    n_points: int

    @classmethod
    def from_distances(cls, distances: np.ndarray) -> "DistortionSummary":
        """Build a summary from raw per-point distances (empty → all zeros)."""
        distances = np.asarray(distances, dtype=float)
        if distances.size == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0)
        return cls(
            mean=float(np.mean(distances)),
            median=float(np.median(distances)),
            p95=float(np.percentile(distances, 95)),
            max=float(np.max(distances)),
            n_points=int(distances.size),
        )


def trajectory_spatial_distortion(
    original: Trajectory, published: Trajectory
) -> np.ndarray:
    """Distance (meters) from each published fix to the original path.

    The original trajectory is treated as a polyline; for every published fix
    the distance to the nearest point of that polyline is returned.  An empty
    published trajectory yields an empty array; an empty original trajectory
    raises ``ValueError`` (there is nothing to compare against).

    Exactness contract: the result is bitwise that of
    :func:`trajectory_spatial_distortion_reference`, the per-fix scalar loop.
    Both project onto the same plane — centred on the ``np.mean`` of the
    concatenated original and published coordinates — and evaluate every
    (fix, segment) distance with the same float expression; the columnar
    kernel (:func:`repro.geo.kernels.polyline_distances`) only skips
    segments that provably cannot hold a fix's minimum, and a minimum is
    exact whatever the order it is taken in.
    """
    if len(original) == 0:
        raise ValueError("original trajectory is empty")
    if len(published) == 0:
        return np.zeros(0)
    return _matched_distances([(original, published)])


def trajectory_spatial_distortion_reference(
    original: Trajectory, published: Trajectory
) -> np.ndarray:
    """The scalar oracle of :func:`trajectory_spatial_distortion`.

    Scans the whole original polyline once per published fix (O(n·m)).
    """
    if len(original) == 0:
        raise ValueError("original trajectory is empty")
    if len(published) == 0:
        return np.zeros(0)
    projection = _matched_projection(original, published)
    oxs, oys = projection.project_array(np.asarray(original.lats), np.asarray(original.lons))
    pxs, pys = projection.project_array(np.asarray(published.lats), np.asarray(published.lons))
    return np.array(
        [point_to_polyline_distance_m(float(px), float(py), oxs, oys) for px, py in zip(pxs, pys)]
    )


def _matched_projection(original: Trajectory, published: Trajectory) -> LocalProjection:
    """The plane one (original, published) pair is compared in."""
    all_lats = np.concatenate([np.asarray(original.lats), np.asarray(published.lats)])
    all_lons = np.concatenate([np.asarray(original.lons), np.asarray(published.lons)])
    return LocalProjection.centered_on(all_lats, all_lons)


def _matched_distances(pairs: Sequence[Tuple[Trajectory, Trajectory]]) -> np.ndarray:
    """Per-fix distances of each published trajectory to its original path.

    Every pair keeps its own projection; the distances of all pairs are one
    :func:`~repro.geo.kernels.polyline_distances` call with the pairs as
    segments, concatenated in pair order.
    """
    fix_xs: List[np.ndarray] = []
    fix_ys: List[np.ndarray] = []
    line_xs: List[np.ndarray] = []
    line_ys: List[np.ndarray] = []
    for original, published in pairs:
        projection = _matched_projection(original, published)
        oxs, oys = projection.project_array(np.asarray(original.lats), np.asarray(original.lons))
        pxs, pys = projection.project_array(
            np.asarray(published.lats), np.asarray(published.lons)
        )
        fix_xs.append(pxs)
        fix_ys.append(pys)
        line_xs.append(oxs)
        line_ys.append(oys)
    fix_counts = [xs.size for xs in fix_xs]
    line_offsets = np.concatenate([[0], np.cumsum([xs.size for xs in line_xs])])
    return polyline_distances(
        np.concatenate(fix_xs),
        np.concatenate(fix_ys),
        np.repeat(np.arange(len(fix_counts)), fix_counts),
        np.concatenate(line_xs),
        np.concatenate(line_ys),
        line_offsets,
    )


def dataset_spatial_distortion(
    original: MobilityDataset,
    published: MobilityDataset,
    match_by_user: bool = False,
) -> DistortionSummary:
    """Spatial distortion of a whole published dataset.

    When ``match_by_user`` is true, each published trajectory is compared to
    the original trajectory carrying the same identifier (suitable for
    mechanisms that keep identifiers, like Geo-I or plain smoothing), as
    :func:`trajectory_spatial_distortion` does, in one columnar kernel call.
    When false (default), each published fix is compared to the nearest
    original fix of *any* user — the right notion for pseudonymised or
    swapped data, and the one a spatial analyst cares about ("are the
    published points in places where people actually were?").
    """
    if match_by_user:
        pairs = []
        for traj in published:
            reference = original.get(traj.user_id)
            if reference is None or len(reference) == 0 or len(traj) == 0:
                continue
            pairs.append((reference, traj))
        if not pairs:
            return DistortionSummary.from_distances(np.zeros(0))
        return DistortionSummary.from_distances(_matched_distances(pairs))

    orig_lats, orig_lons = original.all_coordinates()
    pub_lats, pub_lons = published.all_coordinates()
    if orig_lats.size == 0:
        raise ValueError("original dataset is empty")
    if pub_lats.size == 0:
        return DistortionSummary.from_distances(np.zeros(0))
    projection = LocalProjection.centered_on(orig_lats, orig_lons)
    oxs, oys = projection.project_array(orig_lats, orig_lons)
    pxs, pys = projection.project_array(pub_lats, pub_lons)
    distances = _nearest_point_distances(pxs, pys, oxs, oys)
    return DistortionSummary.from_distances(distances)


def _nearest_point_distances(
    pxs: np.ndarray, pys: np.ndarray, oxs: np.ndarray, oys: np.ndarray
) -> np.ndarray:
    """Distance from each query point to its nearest reference point.

    Uses a KD-tree when scipy is available (it is in the benchmark
    environment) and a block-wise brute force search otherwise, keeping
    memory bounded for large datasets.
    """
    try:
        from scipy.spatial import cKDTree

        tree = cKDTree(np.stack([oxs, oys], axis=1))
        distances, _ = tree.query(np.stack([pxs, pys], axis=1), k=1)
        return np.asarray(distances, dtype=float)
    except ImportError:  # pragma: no cover - scipy is present in CI
        out = np.empty(pxs.size, dtype=float)
        block = 512
        ref = np.stack([oxs, oys], axis=1)
        for start in range(0, pxs.size, block):
            stop = min(start + block, pxs.size)
            q = np.stack([pxs[start:stop], pys[start:stop]], axis=1)
            d = np.sqrt(((q[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2))
            out[start:stop] = d.min(axis=1)
        return out


# ---------------------------------------------------------------------------
# Area coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageScore:
    """Precision / recall / F-score of the published cell cover vs. the original."""

    precision: float
    recall: float
    f_score: float
    original_cells: int
    published_cells: int

    @classmethod
    def from_covers(cls, original_cells: set, published_cells: set) -> "CoverageScore":
        """Score a published cell cover against the original one."""
        return cls.from_counts(
            len(published_cells & original_cells), len(original_cells), len(published_cells)
        )

    @classmethod
    def from_counts(cls, shared: int, n_original: int, n_published: int) -> "CoverageScore":
        """Score covers given only their sizes and the size of their intersection."""
        if not n_published:
            precision = 1.0 if not n_original else 0.0
        else:
            precision = shared / n_published
        if not n_original:
            recall = 1.0
        else:
            recall = shared / n_original
        if precision + recall == 0.0:
            f_score = 0.0
        else:
            f_score = 2.0 * precision * recall / (precision + recall)
        return cls(precision, recall, f_score, n_original, n_published)


def area_coverage(
    original: MobilityDataset,
    published: MobilityDataset,
    cell_size_m: float = 200.0,
    bbox: Optional[BoundingBox] = None,
) -> CoverageScore:
    """Cell-cover similarity between original and published data.

    The grid covers the original dataset (optionally expanded to a caller
    supplied ``bbox`` so that points pushed outside by noisy mechanisms are
    still counted — they land in boundary cells and hurt precision).

    Covers are sets of flat integer cell ids (:meth:`Grid.cell_ids`, one id
    per ``(row, col)`` cell), so the score equals the set-of-cells
    :meth:`CoverageScore.from_covers` of :meth:`Grid.cell_cover`.
    """
    orig_lats, orig_lons = original.all_coordinates()
    if orig_lats.size == 0:
        raise ValueError("original dataset is empty")
    grid_bbox = bbox or original.bbox.expanded(cell_size_m)
    grid = Grid.covering(grid_bbox, cell_size_m)
    original_cells = np.unique(grid.cell_ids(orig_lats, orig_lons))
    pub_lats, pub_lons = published.all_coordinates()
    published_cells = np.unique(grid.cell_ids(pub_lats, pub_lons))
    shared = np.intersect1d(original_cells, published_cells, assume_unique=True).size
    return CoverageScore.from_counts(shared, original_cells.size, published_cells.size)


# ---------------------------------------------------------------------------
# Trip length, range queries, retention
# ---------------------------------------------------------------------------


def trip_length_error(original: MobilityDataset, published: MobilityDataset) -> float:
    """Relative error of the total travelled distance of the published data.

    Computed dataset-wide (sum of per-trajectory path lengths), which remains
    meaningful when identifiers are pseudonymised.  Returns ``0.0`` when the
    original dataset has zero total length.
    """
    original_length = sum(t.length_m for t in original)
    published_length = sum(t.length_m for t in published)
    if original_length == 0.0:
        return 0.0
    return abs(published_length - original_length) / original_length


def range_query_distortion(
    original: MobilityDataset,
    published: MobilityDataset,
    n_queries: int = 200,
    query_size_m: float = 500.0,
    seed: int = 0,
) -> float:
    """Mean relative error of random spatial count queries.

    Each query counts the fixes inside a random square of side
    ``query_size_m`` placed uniformly inside the original bounding box; the
    metric is the average of ``|published - original| / max(original, 1)``
    over the queries — the standard utility measure for location data
    publishing.
    """
    if n_queries < 1:
        raise ValueError("n_queries must be at least 1")
    orig_lats, orig_lons = original.all_coordinates()
    if orig_lats.size == 0:
        raise ValueError("original dataset is empty")
    pub_lats, pub_lons = published.all_coordinates()
    bbox = original.bbox
    rng = np.random.default_rng(seed)
    grid = Grid.covering(bbox, query_size_m)

    errors = []
    for _ in range(n_queries):
        lat0 = rng.uniform(bbox.min_lat, bbox.max_lat)
        lon0 = rng.uniform(bbox.min_lon, bbox.max_lon)
        query = BoundingBox(
            lat0, lon0, min(lat0 + grid.lat_step, 90.0), min(lon0 + grid.lon_step, 180.0)
        )
        orig_count = int(
            np.count_nonzero(
                (orig_lats >= query.min_lat)
                & (orig_lats <= query.max_lat)
                & (orig_lons >= query.min_lon)
                & (orig_lons <= query.max_lon)
            )
        )
        if pub_lats.size:
            pub_count = int(
                np.count_nonzero(
                    (pub_lats >= query.min_lat)
                    & (pub_lats <= query.max_lat)
                    & (pub_lons >= query.min_lon)
                    & (pub_lons <= query.max_lon)
                )
            )
        else:
            pub_count = 0
        errors.append(abs(pub_count - orig_count) / max(orig_count, 1))
    return float(np.mean(errors))


def point_retention(original: MobilityDataset, published: MobilityDataset) -> float:
    """Fraction of points still present in the published dataset."""
    if original.n_points == 0:
        return 0.0
    return published.n_points / original.n_points


# ---------------------------------------------------------------------------
# Registry adapters: metrics as engine-pluggable callables
# ---------------------------------------------------------------------------
#
# A registered metric is a callable ``metric(original, result) -> columns``
# where ``result`` is a PublicationResult.  Utility metrics only need the
# published dataset.

from ..api.registry import register_metric


@register_metric("spatial-distortion", aliases=("distortion",))
def _spatial_distortion_metric(match_by_user: bool = False):
    """Point-to-path distortion summary: ``mean_m/median_m/p95_m/max_m``."""

    def compute(original: MobilityDataset, result) -> Dict[str, object]:
        summary = dataset_spatial_distortion(
            original, result.dataset, match_by_user=match_by_user
        )
        return {
            "mean_m": summary.mean,
            "median_m": summary.median,
            "p95_m": summary.p95,
            "max_m": summary.max,
        }

    return compute


@register_metric("area-coverage", aliases=("coverage",))
def _area_coverage_metric(cell_size_m: float = 200.0):
    """Grid-cell cover scores at one cell size, keyed by the cell size used."""

    def compute(original: MobilityDataset, result) -> Dict[str, object]:
        score = area_coverage(
            original, result.dataset, cell_size_m=cell_size_m
        )
        return {
            "cell_size_m": cell_size_m,
            "precision": score.precision,
            "recall": score.recall,
            "f_score": score.f_score,
        }

    return compute


@register_metric("point-retention", aliases=("retention",))
def _point_retention_metric():
    """Fraction of points still published at all."""

    def compute(original: MobilityDataset, result) -> Dict[str, object]:
        return {"point_retention": point_retention(original, result.dataset)}

    return compute


@register_metric("trip-length-error")
def _trip_length_error_metric():
    """Relative error of the per-user travelled distance."""

    def compute(original: MobilityDataset, result) -> Dict[str, object]:
        return {
            "trip_length_error": trip_length_error(original, result.dataset)
        }

    return compute


@register_metric("range-query", aliases=("range-query-distortion",))
def _range_query_metric(
    n_queries: int = 200, query_size_m: float = 500.0, seed: int = 0
):
    """Mean relative error of random spatial count queries."""

    def compute(original: MobilityDataset, result) -> Dict[str, object]:
        return {
            "range_query_error": range_query_distortion(
                original,
                result.dataset,
                n_queries=n_queries,
                query_size_m=query_size_m,
                seed=seed,
            )
        }

    return compute
