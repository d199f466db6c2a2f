"""Wait-For-Me baseline: (k, δ)-anonymity for trajectories (Abul et al., 2010).

Wait For Me (W4M) enforces *(k, δ)-anonymity*: at every instant, each
published trajectory must be accompanied by at least ``k - 1`` others within a
cylinder of diameter ``δ``.  The original algorithm proceeds in two phases:

1. **Clustering** — greedily group trajectories into clusters of at least
   ``k`` members using a synchronized trajectory distance (trajectories are
   resampled on a common time grid first); trajectories that cannot be
   grouped without excessive distortion are discarded (the "trash bin").
2. **Space translation** — inside each cluster and at each time step, points
   lying farther than ``δ/2`` from the cluster centroid are pulled toward the
   centroid until they fit inside the cylinder.

The published data therefore satisfies the anonymity property at the cost of
spatial edits that grow with the spread of each cluster — the utility loss the
paper contrasts with its distortion-free approach.  As the paper notes, W4M
"performs well with a synthetic dataset but [has] more difficulties to
maintain a correct utility with a real-life dataset"; experiments E1/E2/E6
reproduce that trade-off.

This implementation follows the published algorithm at the level of its
observable behaviour (synchronized clustering, trash bin, centroid-pull
editing); the EDR-based ad-hoc clustering distance of the original is replaced
by the synchronized Euclidean distance, which the authors themselves use for
the space-translation phase.

The clustering phase runs on the columnar kernel layer
(:mod:`repro.geo.kernels`): trajectories are resampled onto the common time
grid and projected as contiguous ``(n_users, n_steps)`` coordinate planes,
and each greedy round scores *every* remaining candidate with one batched
masked-distance query against a
:class:`~repro.geo.kernels.SyncedDistances` workspace instead of a Python
loop of per-pair reductions.  The scalar implementation is retained as
:meth:`Wait4MeMechanism.publish_reference`, the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..api.registry import register_mechanism
from ..api.result import PublicationResult
from ..core.trajectory import MobilityDataset, Trajectory
from ..geo.kernels import SyncedDistances
from ..geo.projection import LocalProjection
from .base import PublicationMechanism

__all__ = ["Wait4MeConfig", "Wait4MeMechanism"]


@register_mechanism("wait4me", aliases=("w4m",))
def _wait4me_mechanism(
    k: int = 4,
    delta_m: float = 500.0,
    time_step_s: float = 300.0,
    max_cluster_radius_m: float = 4000.0,
    seed: Optional[int] = 0,
) -> "Wait4MeMechanism":
    """(k, delta)-anonymity, e.g. ``wait4me:k=8,delta_m=1000``."""
    return Wait4MeMechanism(
        Wait4MeConfig(
            k=k,
            delta_m=delta_m,
            time_step_s=time_step_s,
            max_cluster_radius_m=max_cluster_radius_m,
            seed=seed,
        )
    )


@dataclass(frozen=True)
class Wait4MeConfig:
    """Parameters of the (k, δ)-anonymization.

    Attributes
    ----------
    k:
        Minimum size of each anonymity group.
    delta_m:
        Diameter (meters) of the cylinder inside which the members of a group
        must lie at every synchronized time step.
    time_step_s:
        Resolution of the common time grid used to synchronize trajectories.
    max_cluster_radius_m:
        Trajectories farther than this from every existing cluster seed are
        sent to the trash bin (suppressed) instead of being force-fitted,
        bounding the worst-case distortion as in the original paper.
    seed:
        Seed used to pick cluster seeds (ordering only; no noise is added).
    """

    k: int = 4
    delta_m: float = 500.0
    time_step_s: float = 300.0
    max_cluster_radius_m: float = 4000.0
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.delta_m <= 0.0:
            raise ValueError("delta_m must be positive")
        if self.time_step_s <= 0.0:
            raise ValueError("time_step_s must be positive")
        if self.max_cluster_radius_m <= 0.0:
            raise ValueError("max_cluster_radius_m must be positive")


class Wait4MeMechanism(PublicationMechanism):
    """(k, δ)-anonymity by trajectory clustering and space translation."""

    name = "wait4me"

    def __init__(self, config: Optional[Wait4MeConfig] = None) -> None:
        self.config = config or Wait4MeConfig()

    # -- public API --------------------------------------------------------------------

    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        """Anonymize the dataset; users sent to the trash bin are dropped."""
        return self._publish(dataset, self._cluster)

    def publish_reference(self, dataset: MobilityDataset) -> PublicationResult:
        """Scalar oracle of :meth:`publish`, clustering with :meth:`_cluster_reference`."""
        return self._publish(dataset, self._cluster_reference)

    def _publish(
        self,
        dataset: MobilityDataset,
        cluster: Callable[[np.ndarray, np.ndarray], Tuple[List[List[int]], List[int]]],
    ) -> PublicationResult:
        non_empty = [t for t in dataset if len(t) >= 2]
        if len(non_empty) < self.config.k:
            # Not enough users to form a single anonymity group: nothing can
            # be published under (k, δ)-anonymity.
            return PublicationResult(MobilityDataset(), mechanism=self.name)

        grid, xs, ys, users, projection = self._synchronize(non_empty)
        clusters, trashed = cluster(xs, ys)
        published = self._space_translate(grid, xs, ys, users, clusters, projection)
        return PublicationResult(MobilityDataset(published), mechanism=self.name)

    # -- phase 1: synchronization ---------------------------------------------------------

    def _synchronize(
        self, trajectories: Sequence[Trajectory]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[str], LocalProjection]:
        """Resample every trajectory on a common time grid.

        Returns the grid (timestamps), the ``(n_users, n_grid)`` planes of
        planar x / y positions in meters (NaN where a user is not observed,
        i.e. outside her recording interval), the user ids indexing their
        rows and the projection the planes are expressed in.

        Coordinates are interpolated in degrees and the resampled matrices
        projected with one batched call: the local projection is linear, so
        projecting after interpolation is exact and touches ``n_users x
        n_grid`` points instead of every raw fix.
        """
        cfg = self.config
        t_min = min(float(t.timestamps[0]) for t in trajectories)
        t_max = max(float(t.timestamps[-1]) for t in trajectories)
        n_steps = max(2, int(np.ceil((t_max - t_min) / cfg.time_step_s)) + 1)
        grid = t_min + np.arange(n_steps) * cfg.time_step_s

        n_points = sum(len(t) for t in trajectories)
        projection = LocalProjection(
            sum(float(np.sum(t.lats)) for t in trajectories) / n_points,
            sum(float(np.sum(t.lons)) for t in trajectories) / n_points,
        )
        grid_lats = np.empty((len(trajectories), n_steps))
        grid_lons = np.empty((len(trajectories), n_steps))
        for k, traj in enumerate(trajectories):
            ts = traj.timestamps
            grid_lats[k] = np.interp(grid, ts, traj.lats, left=np.nan, right=np.nan)
            grid_lons[k] = np.interp(grid, ts, traj.lons, left=np.nan, right=np.nan)
        xs, ys = projection.project_array_inplace(grid_lats, grid_lons)
        return grid, xs, ys, [t.user_id for t in trajectories], projection

    # -- phase 2: greedy clustering ----------------------------------------------------------

    def _cluster(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[List[List[int]], List[int]]:
        """Greedy clustering into groups of at least ``k`` users (batched).

        Repeatedly pick an unassigned seed user, attach its ``k - 1`` nearest
        unassigned users (by synchronized distance), and reject the group if
        any member is farther than ``max_cluster_radius_m`` from the seed (the
        seed is then trashed).  Leftover users that cannot form a final group
        are appended to the nearest existing cluster, as in the original
        algorithm's "k-anonymity preserving" post-processing.

        Each round scores every remaining candidate with one batched query
        against a :class:`~repro.geo.kernels.SyncedDistances` workspace;
        clusters and the trash bin are returned as row indices into the
        planes.
        """
        cfg = self.config
        n = xs.shape[0]
        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(n)
        synced = SyncedDistances.from_planes(xs, ys, dtype=self._distance_dtype(xs, ys))
        unassigned = np.ones(n, dtype=bool)
        clusters: List[List[int]] = []
        trashed: List[int] = []

        for seed_user in order:
            seed_user = int(seed_user)
            if not unassigned[seed_user]:
                continue
            candidates = np.flatnonzero(unassigned)
            candidates = candidates[candidates != seed_user]
            if candidates.size < cfg.k - 1:
                break
            distances = synced.distances_from(seed_user, candidates)
            nearest = np.argsort(distances, kind="stable")[: cfg.k - 1]
            worst = float(distances[nearest[-1]])
            if not np.isfinite(worst) or worst > cfg.max_cluster_radius_m:
                trashed.append(seed_user)
                unassigned[seed_user] = False
                continue
            group = [seed_user] + [int(c) for c in candidates[nearest]]
            clusters.append(group)
            unassigned[group] = False

        # Attach leftovers to their nearest cluster rather than publishing a
        # group smaller than k.
        for user in np.flatnonzero(unassigned):
            user = int(user)
            unassigned[user] = False
            if not clusters:
                trashed.append(user)
                continue
            seeds = np.array([cluster[0] for cluster in clusters])
            distances = synced.distances_from(user, seeds)
            best = int(np.argmin(distances))
            if np.isfinite(distances[best]) and distances[best] <= cfg.max_cluster_radius_m:
                clusters[best].append(user)
            else:
                trashed.append(user)
        return clusters, trashed

    def _cluster_reference(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[List[List[int]], List[int]]:
        """Scalar reference of :meth:`_cluster` (the equivalence oracle).

        Same greedy semantics with plain Python loops and one scalar distance
        query per candidate pair; retained for the property tests that pin
        the vectorized path to it.  Distances come from the same float32
        workspace semantics as :meth:`_cluster` so the two paths face
        identical numbers.
        """
        cfg = self.config
        n = xs.shape[0]
        rng = np.random.default_rng(cfg.seed)
        order = [int(i) for i in rng.permutation(n)]
        synced = SyncedDistances.from_planes(xs, ys, dtype=self._distance_dtype(xs, ys))
        unassigned = set(range(n))
        clusters: List[List[int]] = []
        trashed: List[int] = []

        for seed_user in order:
            if seed_user not in unassigned:
                continue
            candidates = [u for u in sorted(unassigned) if u != seed_user]
            if len(candidates) < cfg.k - 1:
                break
            distances = [
                (synced.pair_distance(seed_user, u), u) for u in candidates
            ]
            distances.sort(key=lambda pair: pair[0])
            group = [seed_user] + [u for _, u in distances[: cfg.k - 1]]
            worst = distances[cfg.k - 2][0]
            if not np.isfinite(worst) or worst > cfg.max_cluster_radius_m:
                trashed.append(seed_user)
                unassigned.discard(seed_user)
                continue
            clusters.append(group)
            unassigned.difference_update(group)

        for user in sorted(unassigned):
            unassigned.discard(user)
            if not clusters:
                trashed.append(user)
                continue
            dists = [
                synced.pair_distance(user, cluster[0]) for cluster in clusters
            ]
            best = min(range(len(clusters)), key=lambda c: dists[c])
            if np.isfinite(dists[best]) and dists[best] <= cfg.max_cluster_radius_m:
                clusters[best].append(user)
            else:
                trashed.append(user)
        return clusters, trashed

    @staticmethod
    def _distance_dtype(xs: np.ndarray, ys: np.ndarray):
        """Workspace precision for the synchronized clustering distances.

        float32 halves the memory traffic of the batched distance queries,
        but its ~1.2e-7 relative quantization is only harmless while planar
        coordinates stay within ~100 km of the projection origin (centimeter
        scale).  Continental extents — real GeoLife users travel abroad —
        fall back to float64.  Both clustering paths share this choice.
        """
        with np.errstate(invalid="ignore"):
            extent = max(
                float(np.nanmax(np.abs(xs), initial=0.0)),
                float(np.nanmax(np.abs(ys), initial=0.0)),
            )
        return np.float32 if extent < 1e5 else np.float64

    @staticmethod
    def _trajectory_distance(a: np.ndarray, b: np.ndarray) -> float:
        """Mean planar distance over the time steps where both users exist.

        The plain-formula statement of the synchronized distance, on an
        ``(n_grid, 2)`` stack.  Not used by either clustering path (both
        query :class:`~repro.geo.kernels.SyncedDistances`); kept as the
        independent oracle the kernel unit tests compare against.
        """
        both = ~np.isnan(a[:, 0]) & ~np.isnan(b[:, 0])
        if not np.any(both):
            return np.inf
        diff = a[both] - b[both]
        dx, dy = diff[:, 0], diff[:, 1]
        return float(np.sum(np.sqrt(dx * dx + dy * dy)) / both.sum())

    # -- phase 3: space translation -------------------------------------------------------------

    def _space_translate(
        self,
        grid: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        users: List[str],
        clusters: List[List[int]],
        projection: LocalProjection,
    ) -> List[Trajectory]:
        """Pull cluster members inside the δ-cylinder around the cluster centroid."""
        cfg = self.config
        half_delta = cfg.delta_m / 2.0
        if not clusters:
            return []
        # One flat batch over every member of every cluster, on contiguous
        # coordinate planes.
        member_rows = np.concatenate([np.asarray(c, dtype=np.int64) for c in clusters])
        sizes = np.array([len(c) for c in clusters])
        cluster_of = np.repeat(np.arange(len(clusters)), sizes)  # (M,)
        px = xs[member_rows]  # (M, n_grid)
        py = ys[member_rows]
        observed = ~np.isnan(px)

        # Per-step cluster centroids in three small matmuls (all-NaN steps
        # stay NaN): the (n_clusters, M) membership indicator against the
        # zero-filled member planes and the observation mask.
        indicator = (cluster_of[None, :] == np.arange(len(clusters))[:, None]).astype(float)
        counts = indicator @ observed.astype(float)  # (n_clusters, n_grid)
        sum_x = indicator @ np.nan_to_num(px)
        sum_y = indicator @ np.nan_to_num(py)
        with np.errstate(invalid="ignore", divide="ignore"):
            centroid_x = np.where(counts > 0, sum_x / counts, np.nan)
            centroid_y = np.where(counts > 0, sum_y / counts, np.nan)
            # One batched pull for every member at once: offsets exceeding
            # δ/2 are scaled down so each member fits in its cluster's
            # cylinder.  NaN steps (member or centroid unobserved) propagate
            # and are masked out per member below.
            center_x = centroid_x[cluster_of]  # (M, n_grid)
            center_y = centroid_y[cluster_of]
            dx = px - center_x
            dy = py - center_y
            radii = np.sqrt(dx * dx + dy * dy)
            scale = np.where(
                radii > half_delta, half_delta / np.where(radii > 0, radii, 1.0), 1.0
            )
            pulled_x = center_x + dx * scale
            pulled_y = center_y + dy * scale
        lats, lons = projection.unproject_array(pulled_x, pulled_y)
        member_observed = ~np.isnan(pulled_x)
        published: List[Trajectory] = []
        for m, user_index in enumerate(member_rows):
            mask = member_observed[m]
            if not np.any(mask):
                continue
            published.append(
                Trajectory.from_sorted(
                    users[user_index], grid[mask], lats[m][mask], lons[m][mask]
                )
            )
        return published
