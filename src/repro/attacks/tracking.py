"""Multi-target tracking attack (Hoh & Gruteser style segment re-linking).

When identifiers are removed or shuffled, an attacker can still try to follow
individual users by *motion continuity*: a trace that disappears at the edge
of a mix-zone probably reappears nearby shortly after, travelling in a
compatible direction.  Hoh & Gruteser showed that such multi-target tracking
defeats naive pseudonymisation; the paper's mix-zone mechanism is designed to
confuse exactly this adversary by making several users disappear and reappear
together.

The attack implemented here works on the published dataset around each
mix-zone:

* for every zone, collect the *incoming* segments (published traces whose last
  fix before the zone window lies near the zone) and the *outgoing* segments
  (traces whose first fix after the window lies near the zone);
* predict where each incoming user would exit using a constant-velocity
  extrapolation of its last two fixes;
* link incoming to outgoing segments with a minimal-cost assignment where the
  cost combines the distance between the predicted and observed exit points
  and the plausibility of the implied speed.

The attack is scored (in :mod:`repro.metrics.privacy`) by the fraction of
zones in which it reconstructs the true incoming→outgoing correspondence.

The attack runs on the columnar kernel layer: the boundary states
of *every* (user, zone) combination are resolved in one pass over
``MobilityDataset.columnar()`` — per-user ``searchsorted`` against the zone
window edges (:func:`repro.geo.kernels.segmented_searchsorted`), batched
haversine radius filtering, and vectorized velocity estimation — and each
zone's cost matrix is filled with one broadcast prediction-error +
implied-speed expression instead of nested Python loops.  The original
per-trajectory walk is retained as :meth:`MultiTargetTracker.link_zones_reference`
— the correctness oracle the vectorized path is pinned against by property
tests.  Both paths evaluate the same IEEE expressions, so cost matrices, and
therefore linkages, are bitwise-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.trajectory import MobilityDataset, Trajectory
from ..geo.distance import haversine, haversine_array
from ..geo.kernels import segmented_searchsorted
from ..mixzones.zones import MixZone

__all__ = ["TrackingConfig", "ZoneLinkage", "MultiTargetTracker"]

#: Upper bound on (n_users x n_zones) cells per boundary-state plane; zone
#: batches are chunked to stay under it (~8 MB per float64 plane), bounding
#: peak memory on workloads with thousands of zones and session pseudo-users.
_MAX_STATE_CELLS = 1_048_576

#: Cost assigned to physically impossible links (exit before entry).
_IMPOSSIBLE_COST = 1e9
#: Cost penalty for links whose implied speed exceeds the plausible maximum.
_SPEED_PENALTY = 1e6


@dataclass(frozen=True)
class TrackingConfig:
    """Parameters of the tracking attack.

    ``search_radius_m`` bounds how far from the zone boundary entry/exit fixes
    are searched; ``max_plausible_speed_mps`` is the speed above which a
    candidate link is considered impossible and heavily penalised.
    """

    search_radius_m: float = 500.0
    max_plausible_speed_mps: float = 40.0

    def __post_init__(self) -> None:
        if self.search_radius_m <= 0.0:
            raise ValueError("search_radius_m must be positive")
        if self.max_plausible_speed_mps <= 0.0:
            raise ValueError("max_plausible_speed_mps must be positive")


@dataclass
class ZoneLinkage:
    """The attacker's reconstruction of one mix-zone traversal.

    ``links`` maps each incoming published label to the outgoing published
    label the attacker believes continues the same physical user.
    """

    zone: MixZone
    links: Dict[str, str]
    incoming: List[str]
    outgoing: List[str]

    def correctness(self, truth: Mapping[str, str]) -> float:
        """Fraction of incoming labels linked to their true continuation.

        Returns ``nan`` when none of the attacker's links concerns a label
        present in ``truth`` — there is nothing to score, which is *not* the
        same as the attacker being wrong everywhere (a ``0.0`` here would
        deflate averaged tracking success and overstate privacy).  Callers
        averaging over zones should skip NaN zones
        (e.g. ``numpy.nanmean``, or :func:`repro.metrics.privacy.mean_zone_correctness`).
        """
        relevant = [u for u in self.links if u in truth]
        if not relevant:
            return float("nan")
        return sum(1 for u in relevant if self.links[u] == truth[u]) / len(relevant)


class MultiTargetTracker:
    """Re-links published trace segments across mix-zones."""

    def __init__(self, config: Optional[TrackingConfig] = None) -> None:
        self.config = config or TrackingConfig()

    # -- public API ------------------------------------------------------------------

    def link_zone(self, published: MobilityDataset, zone: MixZone) -> ZoneLinkage:
        """Reconstruct the incoming→outgoing correspondence of one zone."""
        return self.link_zones(published, [zone])[0]

    def link_zones(
        self, published: MobilityDataset, zones: Sequence[MixZone]
    ) -> List[ZoneLinkage]:
        """Reconstruct every zone of the dataset."""
        zones = list(zones)
        if not zones:
            return []
        # Zones are independent: chunk them so the (n_users, n_zones) state
        # matrices stay bounded (~8 MB per plane) however many zones and
        # session pseudo-users a workload multiplies out to.
        n_users = max(len(published), 1)
        chunk = max(1, _MAX_STATE_CELLS // n_users)
        linkages: List[ZoneLinkage] = []
        for lo in range(0, len(zones), chunk):
            linkages.extend(
                self._link_zones_vectorized(published, zones[lo : lo + chunk])
            )
        return linkages

    def link_zones_reference(
        self, published: MobilityDataset, zones: Sequence[MixZone]
    ) -> List[ZoneLinkage]:
        """Scalar oracle of :meth:`link_zones`: one per-trajectory walk per zone."""
        return [self._link_zone_reference(published, zone) for zone in zones]

    # -- vectorized path ---------------------------------------------------------------

    def _link_zones_vectorized(
        self, published: MobilityDataset, zones: List[MixZone]
    ) -> List[ZoneLinkage]:
        """All zones in one columnar pass over the published dataset.

        Stage 1 resolves the boundary fix of every (user, zone) combination:
        one ``searchsorted`` per user against the stacked zone window edges
        finds the candidate entry/exit fixes, and batched haversine +
        velocity arithmetic reduces them to valid boundary states.  Stage 2
        fills each zone's cost matrix with one broadcast expression and
        solves the assignment exactly like the scalar oracle.
        """
        traces = published.columnar()
        if traces.n_points == 0:
            return [
                ZoneLinkage(zone=zone, links={}, incoming=[], outgoing=[])
                for zone in zones
            ]
        ts = traces.timestamps
        offsets = traces.offsets

        t_starts = np.array([zone.t_start for zone in zones], dtype=float)
        t_ends = np.array([zone.t_end for zone in zones], dtype=float)
        zone_lats = np.array([zone.center_lat for zone in zones], dtype=float)
        zone_lons = np.array([zone.center_lon for zone in zones], dtype=float)
        reaches = np.array(
            [zone.radius_m + self.config.search_radius_m for zone in zones], dtype=float
        )

        # Candidate boundary fixes, (n_users, n_zones), as *global* indices.
        # Entry: the last fix strictly before t_start; exit: the first fix
        # strictly after t_end.  Users without such a fix get index -1.
        counts = np.diff(offsets)
        entry_rel = segmented_searchsorted(ts, offsets, t_starts, side="left") - 1
        exit_rel = segmented_searchsorted(ts, offsets, t_ends, side="right")
        entry_valid = entry_rel >= 0
        exit_valid = exit_rel < counts[:, None]
        entry_idx = np.where(entry_valid, offsets[:-1, None] + entry_rel, 0)
        exit_idx = np.where(exit_valid, offsets[:-1, None] + exit_rel, 0)

        entry_state = self._boundary_states(
            traces, entry_idx, entry_valid, zone_lats, zone_lons, reaches, side="entry"
        )
        exit_state = self._boundary_states(
            traces, exit_idx, exit_valid, zone_lats, zone_lons, reaches, side="exit"
        )

        linkages: List[ZoneLinkage] = []
        user_ids = traces.user_ids
        for z, zone in enumerate(zones):
            in_users = np.nonzero(entry_state["valid"][:, z])[0]
            out_users = np.nonzero(exit_state["valid"][:, z])[0]
            incoming = [user_ids[int(u)] for u in in_users]
            outgoing = [user_ids[int(u)] for u in out_users]
            if in_users.size == 0 or out_users.size == 0:
                linkages.append(
                    ZoneLinkage(zone=zone, links={}, incoming=incoming, outgoing=outgoing)
                )
                continue
            cost = self._cost_matrix(entry_state, exit_state, in_users, out_users, z)
            links: Dict[str, str] = {}
            rows, cols = self._solve_assignment(cost)
            for i, j in zip(rows, cols):
                links[incoming[int(i)]] = outgoing[int(j)]
            linkages.append(
                ZoneLinkage(zone=zone, links=links, incoming=incoming, outgoing=outgoing)
            )
        return linkages

    def _boundary_states(
        self,
        traces,
        idx: np.ndarray,
        candidate: np.ndarray,
        zone_lats: np.ndarray,
        zone_lons: np.ndarray,
        reaches: np.ndarray,
        side: str,
    ) -> Dict[str, np.ndarray]:
        """Validate candidate boundary fixes and estimate their velocities.

        ``idx`` holds the global flat index of each (user, zone) candidate
        fix (0 where ``candidate`` is already false).  A candidate is valid
        when it lies within the zone's search reach; its velocity comes from
        the adjacent fix on the same side of the zone, zero when that fix
        does not exist (user boundary) or shares the timestamp.
        """
        ts, lats, lons = traces.timestamps, traces.lats, traces.lons
        offsets = traces.offsets
        dist = haversine_array(
            lats[idx], lons[idx], zone_lats[None, :], zone_lons[None, :]
        )
        valid = candidate & (dist <= reaches[None, :])

        # Adjacent fix on the same side, clipped into the owning user's slice.
        if side == "entry":
            adjacent = idx - 1
            has_adjacent = adjacent >= offsets[:-1, None]
        else:
            adjacent = idx + 1
            has_adjacent = adjacent < offsets[1:, None]
        adjacent = np.where(has_adjacent, adjacent, idx)
        dt = ts[idx] - ts[adjacent]
        with np.errstate(divide="ignore", invalid="ignore"):
            vlat = np.where(dt != 0.0, (lats[idx] - lats[adjacent]) / dt, 0.0)
            vlon = np.where(dt != 0.0, (lons[idx] - lons[adjacent]) / dt, 0.0)
        return {
            "valid": valid,
            "lat": lats[idx],
            "lon": lons[idx],
            "t": ts[idx],
            "vlat": vlat,
            "vlon": vlon,
        }

    def _cost_matrix(
        self,
        entry_state: Dict[str, np.ndarray],
        exit_state: Dict[str, np.ndarray],
        in_users: np.ndarray,
        out_users: np.ndarray,
        z: int,
    ) -> np.ndarray:
        """One zone's (incoming × outgoing) link-cost matrix, broadcast.

        Evaluates the exact IEEE expressions of :meth:`_link_cost` — constant
        velocity prediction error plus the implausible-speed penalty — over
        the whole matrix at once.
        """
        e_lat = entry_state["lat"][in_users, z][:, None]
        e_lon = entry_state["lon"][in_users, z][:, None]
        e_t = entry_state["t"][in_users, z][:, None]
        e_vlat = entry_state["vlat"][in_users, z][:, None]
        e_vlon = entry_state["vlon"][in_users, z][:, None]
        x_lat = exit_state["lat"][out_users, z][None, :]
        x_lon = exit_state["lon"][out_users, z][None, :]
        x_t = exit_state["t"][out_users, z][None, :]

        dt = x_t - e_t
        possible = dt > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            pred_lat = e_lat + e_vlat * dt
            pred_lon = e_lon + e_vlon * dt
            prediction_error = haversine_array(pred_lat, pred_lon, x_lat, x_lon)
            implied_speed = haversine_array(e_lat, e_lon, x_lat, x_lon) / dt
        cost = prediction_error + np.where(
            implied_speed > self.config.max_plausible_speed_mps, _SPEED_PENALTY, 0.0
        )
        return np.where(possible, cost, _IMPOSSIBLE_COST)

    # -- scalar oracle -----------------------------------------------------------------

    def _link_zone_reference(self, published: MobilityDataset, zone: MixZone) -> ZoneLinkage:
        """The scalar per-trajectory walk (the equivalence oracle)."""
        entries = self._entry_states(published, zone)
        exits = self._exit_states(published, zone)
        incoming = [label for label, _ in entries]
        outgoing = [label for label, _ in exits]
        if not entries or not exits:
            return ZoneLinkage(zone=zone, links={}, incoming=incoming, outgoing=outgoing)

        cost = np.zeros((len(entries), len(exits)))
        for i, (_, entry) in enumerate(entries):
            for j, (_, exit_state) in enumerate(exits):
                cost[i, j] = self._link_cost(entry, exit_state)

        links: Dict[str, str] = {}
        rows, cols = self._solve_assignment(cost)
        for i, j in zip(rows, cols):
            links[incoming[i]] = outgoing[j]
        return ZoneLinkage(zone=zone, links=links, incoming=incoming, outgoing=outgoing)

    def _entry_states(
        self, published: MobilityDataset, zone: MixZone
    ) -> List[Tuple[str, Dict[str, float]]]:
        """Last observed state of every published label entering the zone."""
        states = []
        for traj in published:
            state = self._boundary_state(traj, zone, side="entry")
            if state is not None:
                states.append((traj.user_id, state))
        return states

    def _exit_states(
        self, published: MobilityDataset, zone: MixZone
    ) -> List[Tuple[str, Dict[str, float]]]:
        """First observed state of every published label leaving the zone."""
        states = []
        for traj in published:
            state = self._boundary_state(traj, zone, side="exit")
            if state is not None:
                states.append((traj.user_id, state))
        return states

    def _boundary_state(
        self, trajectory: Trajectory, zone: MixZone, side: str
    ) -> Optional[Dict[str, float]]:
        """The fix (plus a velocity estimate) adjacent to the zone window.

        For the entry side this is the last fix strictly before ``t_start``
        that lies within ``search_radius_m`` of the zone; for the exit side,
        the first fix strictly after ``t_end`` within the same radius.
        """
        if len(trajectory) == 0:
            return None
        ts = np.asarray(trajectory.timestamps)
        lats = np.asarray(trajectory.lats)
        lons = np.asarray(trajectory.lons)
        if side == "entry":
            mask = ts < zone.t_start
            pick = -1
        else:
            mask = ts > zone.t_end
            pick = 0
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            return None
        i = int(idx[pick])
        dist = haversine(float(lats[i]), float(lons[i]), zone.center_lat, zone.center_lon)
        if dist > zone.radius_m + self.config.search_radius_m:
            return None
        state = {
            "lat": float(lats[i]),
            "lon": float(lons[i]),
            "t": float(ts[i]),
            "vlat": 0.0,
            "vlon": 0.0,
        }
        # Velocity from the adjacent fix on the same side of the zone.
        j = i - 1 if side == "entry" else i + 1
        if 0 <= j < len(trajectory):
            dt = float(ts[i] - ts[j])
            if dt != 0.0:
                state["vlat"] = float(lats[i] - lats[j]) / dt
                state["vlon"] = float(lons[i] - lons[j]) / dt
        return state

    def _link_cost(self, entry: Dict[str, float], exit_state: Dict[str, float]) -> float:
        """Cost of linking an entry state to an exit state (lower = likelier)."""
        dt = exit_state["t"] - entry["t"]
        if dt <= 0.0:
            return _IMPOSSIBLE_COST
        # Constant-velocity prediction of where the entering user should be.
        pred_lat = entry["lat"] + entry["vlat"] * dt
        pred_lon = entry["lon"] + entry["vlon"] * dt
        prediction_error = haversine(pred_lat, pred_lon, exit_state["lat"], exit_state["lon"])
        implied_speed = (
            haversine(entry["lat"], entry["lon"], exit_state["lat"], exit_state["lon"]) / dt
        )
        cost = prediction_error
        if implied_speed > self.config.max_plausible_speed_mps:
            cost += _SPEED_PENALTY
        return cost

    @staticmethod
    def _solve_assignment(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Minimal-cost assignment (Hungarian via scipy, greedy fallback)."""
        try:
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment(cost)
        except ImportError:  # pragma: no cover - scipy is present in CI
            n_rows, n_cols = cost.shape
            rows, cols = [], []
            used_cols: set = set()
            for i in np.argsort(cost.min(axis=1)):
                order = np.argsort(cost[i])
                for j in order:
                    if int(j) not in used_cols:
                        rows.append(int(i))
                        cols.append(int(j))
                        used_cols.add(int(j))
                        break
            return np.array(rows, dtype=int), np.array(cols, dtype=int)
