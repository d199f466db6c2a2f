"""Sliding-window mix-zone crossing detection over point streams.

The batch detector (:class:`~repro.mixzones.detection.MixZoneDetector`)
bin-joins every pair of fixes and deduplicates confirmed co-locations to one
crossing event per (user pair, merge window).  Here the same events are found
online: a sliding window holds only the fixes of the last ``max_time_gap_s``
seconds, each arrival is tested against that window with the batch
confirmation tests (distinct users, time gap, exact haversine radius), and
the canonical representative of every (user pair, merge window) is
maintained as the candidate with the smallest position pair — exactly the
event the batch kernel's lexsort keeps.  A merge window is *closed* into the
event list once the stream's time has advanced past the point where any
future arrival could still contribute to it, so the resident state is
O(window) + O(open merge windows) + the closed events, never O(history).

``update_many(chunk)`` consumes a :class:`~repro.streaming.sources.
StreamChunk` and returns ``None``.  It bins (the window + the chunk) on the
batch kernel's spatio-temporal grid (cell = radius, bucket = time gap,
longitude step taken from these rows' own extreme latitude) and joins them
through the batch kernel's cross-user ±1 bin join, which builds no
same-user pair, keeping the pairs whose later row is in the chunk.  Those
pairs pass the confirmation tests (time gap, then one batched radius test
decided bitwise as the scalar ``haversine`` decides it), are put in arrival
order (by later row, then earlier row) with one ``lexsort``, and are folded
into the open merge windows; then the merge windows behind the chunk's last
boundary are closed: a merge window can only close after its last
candidate arrived, so closing them at the end of the chunk closes them in
the same order under any chunking.  The window itself is five columns
(user, pos, ts, lat, lon): the tail of (window + chunk) from the chunk's
last boundary on.  Like the batch detector's, these bins do not wrap
longitude, so fixes either side of ±180° are not joined.

``finalize()`` returns the full crossing list in the batch kernel's order
and :meth:`StreamingMixZoneDetector.finalize` clusters it with the batch
detector's own zone pass — both bitwise-identical to the batch attack.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.trajectory import MobilityDataset
from ..geo.kernels import _cross_owner_pairs, haversine_above, spatial_time_bins
from ..mixzones.detection import CrossingEvent, MixZoneDetectionConfig, MixZoneDetector
from ..mixzones.zones import MixZone
from .sources import ReplaySource, StreamChunk

__all__ = [
    "StreamingCrossingDetector",
    "StreamingMixZoneDetector",
    "replay_find_crossings",
    "replay_detect_mix_zones",
]

#: A pending canonical representative: (pos_lo, pos_hi, lat, lon, timestamp).
_Candidate = Tuple[int, int, float, float, float]


class StreamingCrossingDetector:
    """Online co-location detection with batch-identical deduplication.

    ``user_ids`` is the source's roster, which ``chunk.user_index`` indexes.
    """

    def __init__(
        self,
        config: Optional[MixZoneDetectionConfig] = None,
        *,
        user_ids: Sequence[str],
    ) -> None:
        self.config = config or MixZoneDetectionConfig()
        self._user_ids = tuple(user_ids)
        #: Fixes of the last ``max_time_gap_s`` seconds (the sliding window),
        #: as columns (user, pos, ts, lat, lon) in arrival order.
        index, values = np.zeros(0, dtype=np.int64), np.zeros(0)
        self._window: Tuple[np.ndarray, ...] = (index, index, values, values, values)
        #: Open merge windows: win -> (lo_user, hi_user) -> representative.
        self._pending: Dict[int, Dict[Tuple[int, int], _Candidate]] = {}
        #: Closed events with their sort key (lo_user, hi_user, win).
        self._emitted: List[Tuple[Tuple[int, int, int], CrossingEvent]] = []

    @property
    def window_points(self) -> int:
        """Fixes currently inside the sliding window (resident state)."""
        return int(self._window[2].size)

    # -- online updates ---------------------------------------------------------

    def update_many(self, chunk: StreamChunk) -> None:
        """Feed a chunk; close the merge windows it puts behind the stream."""
        cfg = self.config
        chunk.require_roster(self._user_ids)
        if len(chunk) == 0:
            return
        w = self.window_points
        user, pos, ts, lats, lons = (
            np.concatenate([held, new])
            for held, new in zip(
                self._window,
                (chunk.user_index, chunk.pos, chunk.timestamps, chunk.lats, chunk.lons),
            )
        )

        # The batch kernel's cross-user ±1 bin join over (window + chunk), on
        # the rows stably sorted by user (its owners must be non-decreasing).
        # Of each pair, the later row i is the arrival and the earlier row j
        # the fix it meets; only pairs whose arrival is in the chunk are new.
        gap = cfg.max_time_gap_s
        by_user = np.argsort(user, kind="stable")
        rows, cols, buckets = spatial_time_bins(lats, lons, ts, cfg.radius_m, gap)
        order, pairs = _cross_owner_pairs(
            rows[by_user], cols[by_user], buckets[by_user], user[by_user]
        )
        row_of = by_user[order]
        found_i: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        found_j: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        for left, right in pairs:
            a, b = row_of[left], row_of[right]
            i, j = np.maximum(a, b), np.minimum(a, b)
            keep = (i >= w) & (ts[j] >= ts[i] - gap)
            found_i.append(i[keep])
            found_j.append(j[keep])
        i, j = np.concatenate(found_i), np.concatenate(found_j)
        keep = ~haversine_above(lats[j], lons[j], lats[i], lons[i], cfg.radius_m)
        # Arrival order: by the later row, then the earlier one.
        order = np.lexsort((j[keep], i[keep]))
        i, j = i[keep][order], j[keep][order]
        divisor = max(cfg.merge_gap_s, 1.0)
        if i.size:
            lo = np.where(user[j] < user[i], j, i)
            hi = np.where(user[j] < user[i], i, j)
            # Per (merge window, lo user, hi user), only the chunk's smallest
            # (lo pos, hi pos) can replace the held representative; keys are
            # folded in the arrival order of their first pair.
            win = (ts[j] // divisor).astype(np.int64)
            order = np.lexsort((pos[hi], pos[lo], user[hi], user[lo], win))
            key = np.stack([win, user[lo], user[hi]])[:, order]
            starts = np.flatnonzero(
                np.concatenate([[True], (key[:, 1:] != key[:, :-1]).any(axis=0)])
            )
            first = order[starts][np.argsort(np.minimum.reduceat(order, starts))]
            i, j, lo, hi = i[first], j[first], lo[first], hi[first]
            rows = zip(
                win[first].tolist(),
                user[lo].tolist(),
                user[hi].tolist(),
                pos[lo].tolist(),
                pos[hi].tolist(),
                ((lats[j] + lats[i]) / 2.0).tolist(),
                ((lons[j] + lons[i]) / 2.0).tolist(),
                ((ts[j] + ts[i]) / 2.0).tolist(),
            )
            pending = self._pending
            for win_k, lo_user, hi_user, lo_pos, hi_pos, lat, lon, t in rows:
                bucket = pending.setdefault(win_k, {})
                pair = (lo_user, hi_user)
                held = bucket.get(pair)
                if held is None or (lo_pos, hi_pos) < held[:2]:
                    bucket[pair] = (lo_pos, hi_pos, lat, lon, t)

        # A future pair's earliest timestamp is at least the last row's
        # minus the gap: the window keeps the rows from there on, and the
        # merge windows before that boundary are final (none of them can
        # have closed earlier in the chunk).
        floor_ts = float(ts[-1]) - gap
        keep = int(np.searchsorted(ts, floor_ts, side="left"))
        self._window = (user[keep:], pos[keep:], ts[keep:], lats[keep:], lons[keep:])
        self._close_before(int(floor_ts // divisor))

    def finalize(self) -> List[CrossingEvent]:
        """All crossing events, in the batch kernel's canonical order."""
        self._close_before(math.inf)
        self._emitted.sort(key=lambda item: item[0])
        return [event for _, event in self._emitted]

    def event_columns(self) -> Tuple[Any, ...]:
        """Closed events as ``(lats, lons, times, user_a, user_b, user_ids)``.

        ``user_a`` / ``user_b`` index ``user_ids``; rows are in emission order.
        """
        events = [event for _, event in self._emitted]
        keys = np.array([key[:2] for key, _ in self._emitted], dtype=np.int64).reshape(-1, 2)
        return (
            np.array([e.lat for e in events], dtype=float),
            np.array([e.lon for e in events], dtype=float),
            np.array([e.timestamp for e in events], dtype=float),
            keys[:, 0],
            keys[:, 1],
            self._user_ids,
        )

    def _close_before(self, boundary: float) -> None:
        """Move the open merge windows before ``boundary`` to ``_emitted``."""
        for win in sorted(w for w in self._pending if w < boundary):
            for (lo_user, hi_user), candidate in self._pending.pop(win).items():
                event = CrossingEvent(
                    lat=candidate[2],
                    lon=candidate[3],
                    timestamp=candidate[4],
                    user_a=self._user_ids[lo_user],
                    user_b=self._user_ids[hi_user],
                )
                self._emitted.append(((lo_user, hi_user, win), event))


class StreamingMixZoneDetector:
    """Online crossing detection plus the batch zone-clustering pass."""

    def __init__(
        self,
        config: Optional[MixZoneDetectionConfig] = None,
        *,
        user_ids: Sequence[str],
    ) -> None:
        self.config = config or MixZoneDetectionConfig()
        self._detector = MixZoneDetector(self.config)
        self.crossings = StreamingCrossingDetector(self.config, user_ids=user_ids)

    def update_many(self, chunk: StreamChunk) -> None:
        self.crossings.update_many(chunk)

    def finalize(self) -> List[MixZone]:
        """The stream's mix-zones, bitwise-identical to the batch detector.

        Clusters the emitted events' columns with the batch detector's own
        columnar pass; :meth:`MixZoneDetector.zones_from_crossings` over
        ``crossings.finalize()`` is its per-object oracle.
        """
        self.crossings.finalize()
        return self._detector.zones_from_columns(*self.crossings.event_columns())


def replay_find_crossings(
    dataset: MobilityDataset, config: Optional[MixZoneDetectionConfig] = None
) -> List[CrossingEvent]:
    """Replay ``dataset`` through the sliding-window detector (batch-identical)."""
    source = ReplaySource(dataset)
    detector = StreamingCrossingDetector(config, user_ids=source.user_ids)
    for chunk in source.chunks():
        detector.update_many(chunk)
    return detector.finalize()


def replay_detect_mix_zones(
    dataset: MobilityDataset, config: Optional[MixZoneDetectionConfig] = None
) -> List[MixZone]:
    """Replay ``dataset`` through the streaming detector (batch-identical zones)."""
    source = ReplaySource(dataset)
    detector = StreamingMixZoneDetector(config, user_ids=source.user_ids)
    for chunk in source.chunks():
        detector.update_many(chunk)
    return detector.finalize()
