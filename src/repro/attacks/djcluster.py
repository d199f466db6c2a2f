"""DJ-Cluster: density-joinable clustering of POIs.

DJ-Cluster (Zhou et al., used by Gambs et al. in their POI-inference pipeline)
is an alternative to the stay-point scan of
:mod:`repro.attacks.poi_extraction`: instead of looking for temporally
contiguous stops, it clusters *all* the fixes of a user by spatial density
(DBSCAN-style), assuming that places where many fixes accumulate are places
the user frequents.

It is included because the two attacks fail differently on protected data:
the stay-point scan needs temporal contiguity (defeated by constant speed),
while DJ-Cluster only needs spatial density (defeated by constant *spacing*).
Experiment E1 reports both.

The implementation first removes "moving" fixes (speed above
``max_stationary_speed_mps``), then runs a density-based clustering with
radius ``eps_m`` and minimum neighbourhood size ``min_points``.

The attack runs on the columnar kernel layer: the stationary pre-filter is
one masked speed pass over the dataset's flattened view, and the clustering
is one grid DBSCAN (:func:`repro.geo.kernels.grid_dbscan`).  Its cells have
side ``eps / sqrt(2)``, so co-members are certified neighbours; a cell
holding ``min_points`` fixes makes them all core without a single pairwise
test, point pairs are confirmed only next to sparse cells, neighbouring
dense cells are linked by a witness pair (or, failing it, an exhaustive
batched check), and connected components run on cells instead of fixes.
The original scalar DBSCAN is retained as :meth:`DjCluster.extract_reference`
/ :meth:`DjCluster.extract_dataset_reference` — the correctness oracles the
kernel is pinned against by property tests.  Both paths implement the same
deterministic semantics: clusters are numbered by their smallest core fix,
and a border fix joins the earliest-numbered adjacent cluster (exactly what
the scalar BFS produces when seeds are scanned in index order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.trajectory import MobilityDataset, Trajectory
from ..geo.distance import haversine_array, meters_per_degree
from ..geo.kernels import grid_dbscan
from .poi_extraction import ExtractedPoi

__all__ = ["DjClusterConfig", "DjCluster", "dj_cluster"]


@dataclass(frozen=True)
class DjClusterConfig:
    """Parameters of the DJ-Cluster attack.

    ``eps_m`` is the neighbourhood radius, ``min_points`` the minimum number of
    fixes for a dense neighbourhood, and ``max_stationary_speed_mps`` the speed
    below which a fix is considered stationary (the pre-filtering step of the
    original algorithm).
    """

    eps_m: float = 100.0
    min_points: int = 10
    max_stationary_speed_mps: float = 1.0

    def __post_init__(self) -> None:
        if self.eps_m <= 0.0:
            raise ValueError("eps_m must be positive")
        if self.min_points < 2:
            raise ValueError("min_points must be at least 2")
        if self.max_stationary_speed_mps <= 0.0:
            raise ValueError("max_stationary_speed_mps must be positive")


class DjCluster:
    """Density-joinable clustering of the stationary fixes of a trajectory."""

    def __init__(self, config: Optional[DjClusterConfig] = None) -> None:
        self.config = config or DjClusterConfig()

    def extract(self, trajectory: Trajectory) -> List[ExtractedPoi]:
        """Clusters of stationary fixes, reported as :class:`ExtractedPoi`."""
        n = len(trajectory)
        if n < self.config.min_points:
            return []
        return self._extract_vectorized(
            trajectory.user_id,
            np.asarray(trajectory.timestamps),
            np.asarray(trajectory.lats),
            np.asarray(trajectory.lons),
            self._stationary_mask(trajectory),
        )

    def extract_dataset(self, dataset: MobilityDataset) -> Dict[str, List[ExtractedPoi]]:
        """Run the attack on every user of a dataset.

        The stationary pre-filter is one masked speed pass over the dataset's
        cached columnar view; every user's stationary fixes are then
        clustered in a single dataset-wide grid DBSCAN whose cells are keyed
        by ``(user, cell)``.
        """
        traces = dataset.columnar()
        out: Dict[str, List[ExtractedPoi]] = {uid: [] for uid in traces.user_ids}
        if traces.n_points == 0:
            return out
        stationary = self._stationary_mask_columnar(traces)
        idx = np.nonzero(stationary)[0]
        if idx.size == 0:
            return out

        # One dataset-wide clustering pass: cells are keyed by (user, cell)
        # through the kernel's segment dimension, so cells and pairs never
        # span two users and the result only depends on each user's exact
        # radius graph — identical to clustering every user separately, minus
        # the per-user kernel invocations.  Stationary fixes of user k occupy
        # idx[lo[k]:hi[k]] (idx ascends and user points are contiguous).
        lo = np.searchsorted(idx, traces.offsets[:-1], side="left")
        hi = np.searchsorted(idx, traces.offsets[1:], side="left")
        xs = np.empty(idx.size)
        ys = np.empty(idx.size)
        for k in range(traces.n_users):
            if hi[k] == lo[k]:
                continue
            span = traces.user_slice(k)
            lats = traces.lats[span]
            lons = traces.lons[span]
            # Per-user projection arithmetic identical to the single-user
            # path: the anchor is the user's first fix, which is known the
            # moment the first point arrives (the streaming tier projects
            # at arrival time against the same anchor).
            lat_m, lon_m = meters_per_degree(float(lats[0]))
            sel = idx[lo[k] : hi[k]]
            xs[lo[k] : hi[k]] = (traces.lons[sel] - float(lons[0])) * lon_m
            ys[lo[k] : hi[k]] = (traces.lats[sel] - float(lats[0])) * lat_m

        labels = grid_dbscan(
            xs, ys, self.config.eps_m, self.config.min_points,
            segments=traces.user_index[idx],
        )

        for k, user_id in enumerate(traces.user_ids):
            span = traces.user_slice(k)
            out[user_id] = self._user_pois(
                user_id,
                labels[lo[k] : hi[k]],
                traces.timestamps[span],
                traces.lats[span],
                traces.lons[span],
                idx[lo[k] : hi[k]] - span.start,
            )
        return out

    # -- vectorized path ---------------------------------------------------------

    def _extract_vectorized(
        self,
        user_id: str,
        ts: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
        stationary: np.ndarray,
    ) -> List[ExtractedPoi]:
        """Grid DBSCAN of one user's stationary fixes."""
        cfg = self.config
        idx = np.nonzero(stationary)[0]
        if idx.size < cfg.min_points:
            return []

        # Project to meters for Euclidean neighbourhood queries (identical
        # arithmetic to the scalar oracle: offsets from the trace's first
        # fix, scaled by the meters-per-degree at its latitude — an anchor
        # the streaming tier also knows at arrival time).
        lat_m, lon_m = meters_per_degree(float(lats[0]))
        xs = (lons[idx] - float(lons[0])) * lon_m
        ys = (lats[idx] - float(lats[0])) * lat_m

        labels = grid_dbscan(xs, ys, cfg.eps_m, cfg.min_points)
        return self._pois_from_labels(user_id, ts, lats, lons, idx, labels)

    @staticmethod
    def _user_pois(
        user_id: str,
        labels: np.ndarray,
        ts: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
        idx: np.ndarray,
    ) -> List[ExtractedPoi]:
        """One user's POIs from its slice of a dataset-wide labelling.

        The user's global cluster ranks are renumbered to local 0..c-1: the
        global smallest-core order restricted to one user's fixes (kept in
        their own order) preserves the per-user smallest-core order, so the
        ascending remap reproduces the single-user numbering exactly.
        """
        if labels.size == 0 or not (labels >= 0).any():
            return []
        uniq = np.unique(labels[labels >= 0])
        local = np.where(labels >= 0, np.searchsorted(uniq, labels), -1)
        return DjCluster._pois_from_labels(user_id, ts, lats, lons, idx, local)

    @staticmethod
    def _pois_from_labels(
        user_id: str,
        ts: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
        idx: np.ndarray,
        labels: np.ndarray,
    ) -> List[ExtractedPoi]:
        """One :class:`ExtractedPoi` per cluster label, in label order."""
        pois: List[ExtractedPoi] = []
        for label in sorted(set(labels.tolist())):
            if label < 0:
                continue
            members = idx[labels == label]
            pois.append(
                ExtractedPoi(
                    user_id=user_id,
                    lat=float(np.mean(lats[members])),
                    lon=float(np.mean(lons[members])),
                    t_start=float(ts[members].min()),
                    t_end=float(ts[members].max()),
                    n_points=int(members.size),
                )
            )
        return pois

    # -- scalar oracles ----------------------------------------------------------

    def extract_dataset_reference(
        self, dataset: MobilityDataset
    ) -> Dict[str, List[ExtractedPoi]]:
        """Scalar oracle of :meth:`extract_dataset`: trajectories one by one."""
        return {traj.user_id: self.extract_reference(traj) for traj in dataset}

    def extract_reference(self, trajectory: Trajectory) -> List[ExtractedPoi]:
        """Scalar oracle of :meth:`extract`: the quadratic DBSCAN path."""
        cfg = self.config
        n = len(trajectory)
        if n < cfg.min_points:
            return []

        ts = np.asarray(trajectory.timestamps)
        lats = np.asarray(trajectory.lats)
        lons = np.asarray(trajectory.lons)

        stationary = self._stationary_mask(trajectory)
        idx = np.nonzero(stationary)[0]
        if idx.size < cfg.min_points:
            return []

        # Project to meters for Euclidean neighbourhood queries, anchored at
        # the trace's first fix (same anchor as the vectorized path).
        lat_m, lon_m = meters_per_degree(float(lats[0]))
        xs = (lons[idx] - float(lons[0])) * lon_m
        ys = (lats[idx] - float(lats[0])) * lat_m

        labels = self._dbscan(xs, ys, cfg.eps_m, cfg.min_points)
        return self._pois_from_labels(trajectory.user_id, ts, lats, lons, idx, labels)

    # -- internals -------------------------------------------------------------------

    def _stationary_mask(self, trajectory: Trajectory) -> np.ndarray:
        """Fixes whose adjacent-segment speed is below the stationary threshold."""
        n = len(trajectory)
        speeds = trajectory.speeds()
        mask = np.zeros(n, dtype=bool)
        if speeds.size == 0:
            return mask
        below = speeds <= self.config.max_stationary_speed_mps
        # A fix is stationary when either adjacent segment is slow.
        mask[:-1] |= below
        mask[1:] |= below
        return mask

    def _stationary_mask_columnar(self, traces) -> np.ndarray:
        """The stationary pre-filter as one masked pass over flattened traces.

        Segment speeds are evaluated for every consecutive point pair of the
        flattened arrays with the exact arithmetic of
        :meth:`Trajectory.speeds`; pairs spanning two users are masked out
        before marking, so the result matches the per-trajectory masks.
        """
        n = traces.n_points
        mask = np.zeros(n, dtype=bool)
        if n < 2:
            return mask
        lats, lons, ts = traces.lats, traces.lons, traces.timestamps
        dist = haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])
        dur = np.diff(ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            speeds = np.where(dur > 0.0, dist / np.where(dur > 0.0, dur, 1.0), np.inf)
        speeds = np.where((dur == 0.0) & (dist == 0.0), 0.0, speeds)
        below = speeds <= self.config.max_stationary_speed_mps
        below &= traces.user_index[:-1] == traces.user_index[1:]
        mask[:-1] |= below
        mask[1:] |= below
        return mask

    @staticmethod
    def _dbscan(xs: np.ndarray, ys: np.ndarray, eps: float, min_points: int) -> np.ndarray:
        """A compact DBSCAN over planar points; returns labels (-1 = noise).

        Complexity is O(n^2) in the number of stationary fixes of one user,
        which stays small (thousands) for the workloads of this reproduction.
        Seeds are scanned in index order, so clusters are numbered by their
        smallest core and a border point joins the earliest-numbered
        adjacent cluster — the deterministic semantics the vectorized path
        reproduces.
        """
        n = xs.size
        labels = np.full(n, -1, dtype=int)
        visited = np.zeros(n, dtype=bool)
        # Pairwise squared distances, computed once.
        d2 = (xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2
        eps2 = eps * eps
        neighbours = [np.nonzero(d2[i] <= eps2)[0] for i in range(n)]

        cluster = 0
        for i in range(n):
            if visited[i]:
                continue
            visited[i] = True
            if neighbours[i].size < min_points:
                continue
            # Start a new cluster and expand it breadth-first.
            labels[i] = cluster
            frontier = list(neighbours[i])
            while frontier:
                j = frontier.pop()
                if labels[j] == -1:
                    labels[j] = cluster
                if visited[j]:
                    continue
                visited[j] = True
                if neighbours[j].size >= min_points:
                    frontier.extend(neighbours[j])
            cluster += 1
        return labels


def dj_cluster(trajectory: Trajectory, **kwargs) -> List[ExtractedPoi]:
    """Convenience wrapper: run DJ-Cluster on one trajectory."""
    return DjCluster(DjClusterConfig(**kwargs)).extract(trajectory)
