"""Recording-gap inference: POIs from where a trace vanishes and reappears.

The speed-smoothing mechanism hides stops *within* a recording session, but a
published trace still shows where each session ends and where the next one
begins.  When a user's device goes silent near a place and comes back hours
later near the same place, an attacker can reasonably infer a stay there even
though no published fix is ever stationary.  This adversary exploits exactly
that: it is the strongest known attack against the time-distortion approach
and quantifies the residual leak that README "Running the evaluation"
documents as a limitation of the original mechanism.

The attack scans consecutive published fixes of one trace and reports a POI
whenever

* the time gap between them exceeds ``min_gap_s`` (long enough for a
  meaningful stay), and
* the two fixes are within ``max_reappear_distance_m`` of each other (the
  user reappears where she vanished).

All gap candidates of a whole dataset are resolved in one batched pass over
its cached columnar view (gaps never cross users, which the flattened form
encodes in ``user_index``).  The scalar per-candidate scan is retained as
:meth:`GapInferenceAttack.extract_reference` /
:meth:`GapInferenceAttack.extract_dataset_reference` — the correctness oracles
the vectorized path is pinned against by property tests.

Mitigations available in the library: trimming session extremities
(``trim_start_m`` / ``trim_end_m`` in the smoothing configuration) moves the
published endpoints away from the true POI, and mix-zone swapping detaches the
segment before the gap from the segment after it.  Only trimming has been
measured.  Against ``smoothing:epsilon_m=100`` on ``standard:scale=small``
world seeds 0–4, this attack's recall is 0.54–0.61 untrimmed; a 200 m trim
per session end does not lower it consistently (−0.055 to +0.028), while a
500 m trim drops it to 0.03–0.08 on every seed and publishes 13–16 % fewer
points.  Whether swapping lowers recall has not been measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.trajectory import MobilityDataset, Trajectory
from ..geo.distance import haversine, haversine_array
from .poi_extraction import ExtractedPoi

__all__ = ["GapInferenceConfig", "GapInferenceAttack", "infer_pois_from_gaps"]


@dataclass(frozen=True)
class GapInferenceConfig:
    """Parameters of the recording-gap attack.

    ``min_gap_s`` is the minimum silence treated as a potential stay;
    ``max_reappear_distance_m`` is how close the reappearance must be to the
    disappearance for the stay location to be considered known;
    ``merge_distance_m`` merges repeated inferred stays at the same place.
    """

    min_gap_s: float = 3600.0
    max_reappear_distance_m: float = 300.0
    merge_distance_m: float = 150.0

    def __post_init__(self) -> None:
        if self.min_gap_s <= 0.0:
            raise ValueError("min_gap_s must be positive")
        if self.max_reappear_distance_m <= 0.0:
            raise ValueError("max_reappear_distance_m must be positive")
        if self.merge_distance_m < 0.0:
            raise ValueError("merge_distance_m must be non-negative")


class GapInferenceAttack:
    """Infers POIs from recording gaps in published traces."""

    def __init__(self, config: Optional[GapInferenceConfig] = None) -> None:
        self.config = config or GapInferenceConfig()

    def extract(self, trajectory: Trajectory) -> List[ExtractedPoi]:
        """Inferred POIs of one published trace."""
        if len(trajectory) < 2:
            return []
        ts = np.asarray(trajectory.timestamps, dtype=float)
        lats = np.asarray(trajectory.lats, dtype=float)
        lons = np.asarray(trajectory.lons, dtype=float)
        candidates = np.nonzero(np.diff(ts) >= self.config.min_gap_s)[0]
        return self._merge(
            self._pois_at(trajectory.user_id, candidates, ts, lats, lons)
        )

    def extract_dataset(self, dataset: MobilityDataset) -> Dict[str, List[ExtractedPoi]]:
        """Run the attack on every published trace of the dataset.

        Every gap candidate of the whole dataset is screened in one batched
        pass over its cached columnar view, masking out the candidates that
        straddle a user boundary.
        """
        traces = dataset.columnar()
        candidates = np.nonzero(np.diff(traces.timestamps) >= self.config.min_gap_s)[0]
        # A diff at index i spans points (i, i + 1): keep within-user spans only.
        candidates = candidates[
            traces.user_index[candidates] == traces.user_index[candidates + 1]
        ]
        per_user: Dict[str, List[ExtractedPoi]] = {u: [] for u in traces.user_ids}
        for i in self._screen(candidates, traces.lats, traces.lons):
            user = traces.user_ids[int(traces.user_index[i])]
            per_user[user].append(
                self._poi_between(user, i, traces.timestamps, traces.lats, traces.lons)
            )
        return {user: self._merge(pois) for user, pois in per_user.items()}

    def _screen(
        self, candidates: np.ndarray, lats: np.ndarray, lons: np.ndarray
    ) -> List[int]:
        """Gap candidates surviving the batched reappearance-distance screen."""
        if candidates.size == 0:
            return []
        distances = haversine_array(
            lats[candidates], lons[candidates], lats[candidates + 1], lons[candidates + 1]
        )
        return candidates[distances <= self.config.max_reappear_distance_m].tolist()

    def _pois_at(
        self,
        user_id: str,
        candidates: np.ndarray,
        ts: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
    ) -> List[ExtractedPoi]:
        return [
            self._poi_between(user_id, i, ts, lats, lons)
            for i in self._screen(candidates, lats, lons)
        ]

    @staticmethod
    def _poi_between(
        user_id: str, i: int, ts: np.ndarray, lats: np.ndarray, lons: np.ndarray
    ) -> ExtractedPoi:
        """The POI inferred from the gap between points ``i`` and ``i + 1``."""
        return ExtractedPoi(
            user_id=user_id,
            lat=float((lats[i] + lats[i + 1]) / 2.0),
            lon=float((lons[i] + lons[i + 1]) / 2.0),
            t_start=float(ts[i]),
            t_end=float(ts[i + 1]),
            n_points=2,
        )

    def extract_reference(self, trajectory: Trajectory) -> List[ExtractedPoi]:
        """Scalar oracle of :meth:`extract`: per-candidate scan and greedy merge."""
        return self._merge_reference(self._scan_reference(trajectory))

    def extract_dataset_reference(
        self, dataset: MobilityDataset
    ) -> Dict[str, List[ExtractedPoi]]:
        """Scalar oracle of :meth:`extract_dataset`: trajectories one by one."""
        return {traj.user_id: self.extract_reference(traj) for traj in dataset}

    def _scan_reference(self, trajectory: Trajectory) -> List[ExtractedPoi]:
        """Scalar per-candidate scan (the equivalence oracle)."""
        cfg = self.config
        if len(trajectory) < 2:
            return []
        ts = np.asarray(trajectory.timestamps, dtype=float)
        lats = np.asarray(trajectory.lats, dtype=float)
        lons = np.asarray(trajectory.lons, dtype=float)

        inferred: List[ExtractedPoi] = []
        gaps = np.diff(ts)
        for i in np.nonzero(gaps >= cfg.min_gap_s)[0]:
            distance = haversine(
                float(lats[i]), float(lons[i]), float(lats[i + 1]), float(lons[i + 1])
            )
            if distance > cfg.max_reappear_distance_m:
                continue
            inferred.append(
                ExtractedPoi(
                    user_id=trajectory.user_id,
                    lat=float((lats[i] + lats[i + 1]) / 2.0),
                    lon=float((lons[i] + lons[i + 1]) / 2.0),
                    t_start=float(ts[i]),
                    t_end=float(ts[i + 1]),
                    n_points=2,
                )
            )
        return inferred

    def _merge(self, pois: Sequence[ExtractedPoi]) -> List[ExtractedPoi]:
        """Merge inferred stays of the same trace closer than ``merge_distance_m``.

        Greedy first-match grouping against each group's *first* member; the
        candidate distances per stay are batched with :func:`haversine_array`
        over the group-anchor arrays.
        """
        if self.config.merge_distance_m <= 0.0 or len(pois) <= 1:
            return list(pois)
        anchor_lats = np.empty(len(pois))
        anchor_lons = np.empty(len(pois))
        groups: List[List[ExtractedPoi]] = []
        for poi in pois:
            k = len(groups)
            if k:
                distances = haversine_array(
                    poi.lat, poi.lon, anchor_lats[:k], anchor_lons[:k]
                )
                hits = np.nonzero(distances <= self.config.merge_distance_m)[0]
                if hits.size:
                    groups[int(hits[0])].append(poi)
                    continue
            anchor_lats[k] = poi.lat
            anchor_lons[k] = poi.lon
            groups.append([poi])
        return self._collapse(groups)

    def _merge_reference(self, pois: Sequence[ExtractedPoi]) -> List[ExtractedPoi]:
        """Scalar greedy merge of the same semantics (the equivalence oracle)."""
        if self.config.merge_distance_m <= 0.0 or len(pois) <= 1:
            return list(pois)
        groups: List[List[ExtractedPoi]] = []
        for poi in pois:
            for group in groups:
                if (
                    haversine(poi.lat, poi.lon, group[0].lat, group[0].lon)
                    <= self.config.merge_distance_m
                ):
                    group.append(poi)
                    break
            else:
                groups.append([poi])
        return self._collapse(groups)

    @staticmethod
    def _collapse(groups: Sequence[Sequence[ExtractedPoi]]) -> List[ExtractedPoi]:
        """Collapse merge groups into POIs (shared by both merge paths)."""
        return [
            ExtractedPoi(
                user_id=group[0].user_id,
                lat=float(np.mean([p.lat for p in group])),
                lon=float(np.mean([p.lon for p in group])),
                t_start=min(p.t_start for p in group),
                t_end=max(p.t_end for p in group),
                n_points=sum(p.n_points for p in group),
            )
            for group in groups
        ]


def infer_pois_from_gaps(trajectory: Trajectory, **kwargs) -> List[ExtractedPoi]:
    """Convenience wrapper: run the gap-inference attack on one trace."""
    return GapInferenceAttack(GapInferenceConfig(**kwargs)).extract(trajectory)
