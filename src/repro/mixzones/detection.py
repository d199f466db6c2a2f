"""Detection of natural mix-zones (path crossings) in a mobility dataset.

The paper's second mechanism relies on places where users *naturally* meet:
"users continuously meet other users in public transportations, malls, work
places, etc."  This module finds those meetings without any external map data,
directly from the co-location structure of the dataset:

1. **Candidate co-locations.**  Every fix is hashed into a coarse spatial grid
   (cell size = zone radius) and a time bucket (bucket size = the temporal
   tolerance).  Two fixes of *different* users that fall in the same or
   adjacent cells and in the same or adjacent time buckets are candidate
   co-locations; fixes of one user are never paired.  This keeps the
   complexity near-linear in the number of points instead of quadratic in the
   number of users.
2. **Crossing events.**  Each (user pair, merge window) gets one crossing
   event (midpoint position, midpoint time, the two users involved): its
   *first witness*, the candidate with the smallest point-index pair that
   passes the exact time and distance tests.  Candidates are confirmed in
   that order, key by key, and a key stops at its first confirmed
   candidate, so only the candidates that can become the event get a
   distance computed.
3. **Zone clustering.**  Crossing events that are close in space (within one
   zone diameter) and time (within ``merge_gap_s``) are merged with a
   union-find pass; each resulting cluster becomes one :class:`MixZone` whose
   center is the centroid of its events, whose temporal window spans its
   events padded by the tolerance, and whose participants are every user
   involved in any of its events.

The whole search runs on the columnar kernel layer
(:mod:`repro.geo.kernels`): the dataset's cached flattened view is
bin-joined on per-user runs with numpy index arrays, the in-time candidates
are grouped by key once, and each round confirms every open key's smallest
candidate with one batched haversine call — no Python loop ever touches
individual fixes.  :meth:`MixZoneDetector.detect` clusters the kernel's
event arrays directly; :meth:`MixZoneDetector.zones_from_crossings` clusters
:class:`CrossingEvent` objects (the streaming detector's output) and is the
oracle of the array clustering.  A scalar implementation of the crossing
search is retained as :meth:`MixZoneDetector.detect_reference` /
:meth:`MixZoneDetector.find_crossings_reference`, the correctness oracles for
the vectorized path.

Zones with fewer than ``min_users`` participants are dropped (a single user
cannot be mixed with anyone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.trajectory import MobilityDataset
from ..geo.distance import haversine, haversine_array
from ..geo.kernels import (
    ColumnarTraces,
    colocation_events,
    connected_components,
    iter_neighbor_pairs,
    spatial_time_bins,
)
from .zones import MixZone

__all__ = ["MixZoneDetectionConfig", "MixZoneDetector", "CrossingEvent", "detect_mix_zones"]


@dataclass(frozen=True)
class CrossingEvent:
    """A confirmed spatio-temporal co-location between two users."""

    lat: float
    lon: float
    timestamp: float
    user_a: str
    user_b: str


@dataclass(frozen=True)
class MixZoneDetectionConfig:
    """Parameters controlling the search for natural mix-zones.

    Co-locations across the antimeridian (±180° longitude) are not found:
    the candidate bins do not wrap longitude.

    Attributes
    ----------
    radius_m:
        Radius of the produced mix-zones, and the maximum distance between two
        users for their fixes to count as a co-location.
    max_time_gap_s:
        Maximum difference between the timestamps of two fixes for them to
        count as a co-location (users need not be sampled synchronously).
    merge_gap_s:
        Two crossing events closer than ``2 * radius_m`` in space and
        ``merge_gap_s`` in time are merged into the same zone.
    min_users:
        Minimum number of distinct participants for a zone to be kept.
    """

    radius_m: float = 100.0
    max_time_gap_s: float = 120.0
    merge_gap_s: float = 600.0
    min_users: int = 2

    def __post_init__(self) -> None:
        if self.radius_m <= 0.0:
            raise ValueError(f"radius_m must be positive, got {self.radius_m}")
        if self.max_time_gap_s <= 0.0:
            raise ValueError(f"max_time_gap_s must be positive, got {self.max_time_gap_s}")
        if self.merge_gap_s < 0.0:
            raise ValueError(f"merge_gap_s must be non-negative, got {self.merge_gap_s}")
        if self.min_users < 2:
            raise ValueError(f"min_users must be at least 2, got {self.min_users}")


class MixZoneDetector:
    """Finds natural mix-zones in a :class:`MobilityDataset`."""

    def __init__(self, config: MixZoneDetectionConfig | None = None) -> None:
        self.config = config or MixZoneDetectionConfig()

    # -- public API -------------------------------------------------------------

    def detect(self, dataset: MobilityDataset) -> List[MixZone]:
        """Return the mix-zones of ``dataset``, ordered chronologically.

        Clusters the co-location kernel's arrays directly: the same zones as
        ``zones_from_crossings(find_crossings(dataset))``, without building
        one :class:`CrossingEvent` per event.
        """
        traces = dataset.columnar()
        i, j, mid_lat, mid_lon, mid_ts = self._colocations(traces)
        return self.zones_from_columns(
            mid_lat, mid_lon, mid_ts,
            traces.user_index[i], traces.user_index[j], traces.user_ids,
        )

    def detect_reference(self, dataset: MobilityDataset) -> List[MixZone]:
        """Scalar oracle of :meth:`detect`, built on :meth:`find_crossings_reference`."""
        return self.zones_from_crossings(self.find_crossings_reference(dataset))

    def zones_from_crossings(self, events: List[CrossingEvent]) -> List[MixZone]:
        """Cluster crossing events into the kept zones, ordered chronologically.

        The per-object oracle of :meth:`zones_from_columns`.
        """
        return self._kept(self._cluster_events(events))

    def zones_from_columns(
        self,
        lats: np.ndarray,
        lons: np.ndarray,
        times: np.ndarray,
        user_a: np.ndarray,
        user_b: np.ndarray,
        user_ids: Sequence[str],
    ) -> List[MixZone]:
        """:meth:`zones_from_crossings` of events given as columns.

        ``user_a`` / ``user_b`` index ``user_ids``; the row order is free.
        """
        return self._kept(self._cluster_columns(lats, lons, times, user_a, user_b, user_ids))

    def find_crossings(self, dataset: MobilityDataset) -> List[CrossingEvent]:
        """Return every confirmed pairwise co-location of the dataset.

        Events are deduplicated to one per (user pair, merge window),
        canonically keeping the co-location with the smallest point-index
        pair in the dataset's flattened (columnar) order.
        """
        traces = dataset.columnar()
        i, j, mid_lat, mid_lon, mid_ts = self._colocations(traces)
        users = traces.user_ids
        user_index = traces.user_index
        return [
            CrossingEvent(
                lat=float(mid_lat[e]),
                lon=float(mid_lon[e]),
                timestamp=float(mid_ts[e]),
                user_a=users[int(user_index[i[e]])],
                user_b=users[int(user_index[j[e]])],
            )
            for e in range(i.size)
        ]

    def find_crossings_reference(self, dataset: MobilityDataset) -> List[CrossingEvent]:
        """Scalar reference of :meth:`find_crossings` (the equivalence oracle).

        Walks every point pair with plain Python loops, applying the same bin
        adjacency pre-filter, the same confirmation tests and the same
        canonical first-wins deduplication as the columnar kernels.  Runs in
        O(n^2): intended for tests and small datasets only.
        """
        traces = dataset.columnar()
        cfg = self.config
        n = traces.n_points
        if n < 2 or traces.n_observed_users < 2:
            return []
        lats, lons, ts = traces.lats, traces.lons, traces.timestamps
        user_index = traces.user_index
        rows, cols, buckets = spatial_time_bins(
            lats, lons, ts, cfg.radius_m, cfg.max_time_gap_s
        )

        events: List[CrossingEvent] = []
        seen: set = set()
        for i in range(n):
            for j in range(i + 1, n):
                if user_index[i] == user_index[j]:
                    continue
                if (
                    abs(int(rows[i]) - int(rows[j])) > 1
                    or abs(int(cols[i]) - int(cols[j])) > 1
                    or abs(int(buckets[i]) - int(buckets[j])) > 1
                ):
                    continue
                if abs(float(ts[i] - ts[j])) > cfg.max_time_gap_s:
                    continue
                key = (
                    int(min(user_index[i], user_index[j])),
                    int(max(user_index[i], user_index[j])),
                    int(min(float(ts[i]), float(ts[j])) // max(cfg.merge_gap_s, 1.0)),
                )
                if key in seen:
                    continue
                dist = haversine(float(lats[i]), float(lons[i]), float(lats[j]), float(lons[j]))
                if dist > cfg.radius_m:
                    continue
                seen.add(key)
                events.append(
                    CrossingEvent(
                        lat=float((lats[i] + lats[j]) / 2.0),
                        lon=float((lons[i] + lons[j]) / 2.0),
                        timestamp=float((ts[i] + ts[j]) / 2.0),
                        user_a=traces.user_ids[int(user_index[i])],
                        user_b=traces.user_ids[int(user_index[j])],
                    )
                )
        return events

    # -- internals --------------------------------------------------------------

    def _colocations(self, traces: ColumnarTraces) -> Tuple[np.ndarray, ...]:
        cfg = self.config
        return colocation_events(
            traces,
            radius_m=cfg.radius_m,
            max_time_gap_s=cfg.max_time_gap_s,
            merge_gap_s=cfg.merge_gap_s,
        )

    def _kept(self, zones: List[MixZone]) -> List[MixZone]:
        """The zones with enough participants, ordered chronologically."""
        zones = [z for z in zones if z.n_participants >= self.config.min_users]
        return sorted(zones, key=lambda z: z.midpoint_time)

    def _zone_labels(self, lats: np.ndarray, lons: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Cluster labels of crossing events by vectorized transitive closure.

        Events are bin-joined exactly like fixes (cell size = one zone
        diameter, bucket size = the merge gap), candidate pairs are confirmed
        with one batched haversine/time test, and clusters are the connected
        components of the confirmed-pair graph.
        """
        cfg = self.config
        diameter = 2.0 * cfg.radius_m
        rows, cols, buckets = spatial_time_bins(
            lats, lons, times, diameter, max(cfg.merge_gap_s, 1.0)
        )
        edges_a: List[np.ndarray] = []
        edges_b: List[np.ndarray] = []
        for i, j in iter_neighbor_pairs(rows, cols, buckets):
            mask = np.abs(times[i] - times[j]) <= cfg.merge_gap_s
            i, j = i[mask], j[mask]
            if i.size == 0:
                continue
            close = haversine_array(lats[i], lons[i], lats[j], lons[j]) <= diameter
            if close.any():
                edges_a.append(i[close])
                edges_b.append(j[close])
        return connected_components(
            lats.size,
            np.concatenate(edges_a) if edges_a else np.zeros(0, dtype=np.int64),
            np.concatenate(edges_b) if edges_b else np.zeros(0, dtype=np.int64),
        )

    def _cluster_events(self, events: List[CrossingEvent]) -> List[MixZone]:
        """Merge crossing events into mix-zones, one event object at a time.

        The oracle of :meth:`_cluster_columns`, kept for
        :meth:`zones_from_crossings`.
        """
        cfg = self.config
        if not events:
            return []
        # Canonical event order: clustering arithmetic (centroid sums) is then
        # independent of the order the crossing search emitted the events in,
        # so both crossing searches produce bitwise-identical zones.
        events = sorted(
            events, key=lambda e: (e.timestamp, e.lat, e.lon, e.user_a, e.user_b)
        )
        labels = self._zone_labels(
            np.array([e.lat for e in events]),
            np.array([e.lon for e in events]),
            np.array([e.timestamp for e in events]),
        )

        clusters: Dict[int, List[CrossingEvent]] = {}
        for idx, event in enumerate(events):
            clusters.setdefault(int(labels[idx]), []).append(event)

        zones: List[MixZone] = []
        for cluster in clusters.values():
            cluster_lats = np.array([e.lat for e in cluster])
            cluster_lons = np.array([e.lon for e in cluster])
            cluster_times = np.array([e.timestamp for e in cluster])
            participants = frozenset(
                user for e in cluster for user in (e.user_a, e.user_b)
            )
            zones.append(
                MixZone(
                    center_lat=float(cluster_lats.mean()),
                    center_lon=float(cluster_lons.mean()),
                    radius_m=cfg.radius_m,
                    t_start=float(cluster_times.min() - cfg.max_time_gap_s),
                    t_end=float(cluster_times.max() + cfg.max_time_gap_s),
                    participants=participants,
                )
            )
        return zones

    def _cluster_columns(
        self,
        lats: np.ndarray,
        lons: np.ndarray,
        times: np.ndarray,
        user_a: np.ndarray,
        user_b: np.ndarray,
        user_ids: Sequence[str],
    ) -> List[MixZone]:
        """:meth:`_cluster_events` on event columns (``user_*`` index ``user_ids``).

        Same canonical order — users compare by their ids' ranks — same
        clusters in the same order of first appearance, and the same
        arithmetic: every centroid is the ``mean`` of one contiguous row of
        its cluster's members in canonical order (clusters of equal size
        share one ``mean(axis=1)`` call).
        """
        cfg = self.config
        if lats.size == 0:
            return []
        rank = np.empty(len(user_ids), dtype=np.int64)
        rank[sorted(range(len(user_ids)), key=user_ids.__getitem__)] = np.arange(len(user_ids))
        canonical = np.lexsort((rank[user_b], rank[user_a], lons, lats, times))
        lats, lons, times = lats[canonical], lons[canonical], times[canonical]
        labels = self._zone_labels(lats, lons, times)

        # Clusters numbered by first appearance, members in canonical order.
        _, first_seen, cluster = np.unique(labels, return_index=True, return_inverse=True)
        renumber = np.empty(first_seen.size, dtype=np.int64)
        renumber[np.argsort(first_seen)] = np.arange(first_seen.size)
        cluster = renumber[cluster.reshape(-1)]
        members = np.argsort(cluster, kind="stable")
        sizes = np.bincount(cluster)
        starts = np.cumsum(sizes) - sizes

        center_lat = np.empty(sizes.size)
        center_lon = np.empty(sizes.size)
        for size in np.unique(sizes).tolist():
            of_size = np.flatnonzero(sizes == size)
            rows = members[starts[of_size, None] + np.arange(size)]
            center_lat[of_size] = lats[rows].mean(axis=1)
            center_lon[of_size] = lons[rows].mean(axis=1)
        t_start = np.minimum.reduceat(times[members], starts) - cfg.max_time_gap_s
        t_end = np.maximum.reduceat(times[members], starts) + cfg.max_time_gap_s

        users = np.stack([user_a[canonical], user_b[canonical]], axis=1)[members].ravel().tolist()
        return [
            MixZone(
                center_lat=lat,
                center_lon=lon,
                radius_m=cfg.radius_m,
                t_start=first,
                t_end=last,
                participants=frozenset(user_ids[u] for u in users[2 * lo : 2 * (lo + size)]),
            )
            for lat, lon, first, last, lo, size in zip(
                center_lat.tolist(), center_lon.tolist(), t_start.tolist(), t_end.tolist(),
                starts.tolist(), sizes.tolist(),
            )
        ]


def detect_mix_zones(
    dataset: MobilityDataset,
    radius_m: float = 100.0,
    max_time_gap_s: float = 120.0,
    **kwargs,
) -> List[MixZone]:
    """Convenience wrapper around :class:`MixZoneDetector`."""
    config = MixZoneDetectionConfig(radius_m=radius_m, max_time_gap_s=max_time_gap_s, **kwargs)
    return MixZoneDetector(config).detect(dataset)
