"""Streaming DJ-Cluster: an online stationarity filter and a batch finalize.

The batch attack (:class:`~repro.attacks.djcluster.DjCluster`) projects a
user's stationary fixes to planar meters and labels them with one grid
DBSCAN (:func:`~repro.geo.kernels.grid_dbscan`).  Density clusters are
defined over the whole history, so there is no provisional output to keep
up to date: the stream resolves *which* fixes the clustering sees, and
``finalize()`` clusters them once.

* Stationarity resolves with one point of lookahead (a fix is stationary
  when either adjacent segment is slow; the segment out of a fix is known
  when the next fix arrives, and the last fix resolves at ``finalize``),
  replaying the exact speed arithmetic of :meth:`Trajectory.speeds`.
* Each stationary fix is projected against its user's first-fix anchor (the
  anchor the batch engines use) and appended to growable numpy columns
  shared by all users: ``x, y, lat, lon, ts, user``.

``update_many(chunk)`` resolves a chunk for every user at once with one
batched haversine, decided bitwise as the scalar test (speeds within a
relative band of the threshold are re-decided by the scalar
:meth:`_segment_below`), and appends the chunk's stationary fixes in the
order the fix after each arrived, so any chunking of a stream leaves the
same columns behind.  It returns nothing.

``finalize()`` labels the resident fixes with the batch kernel itself (one
``grid_dbscan`` call keyed by user) and emits per-cluster POIs with the
batch centroid arithmetic — bitwise-identical to
``DjCluster.extract_dataset`` on the same data.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attacks.djcluster import DjCluster, DjClusterConfig
from ..attacks.poi_extraction import ExtractedPoi
from ..core.trajectory import MobilityDataset
from ..geo.distance import haversine, haversine_array, meters_per_degree
from ..geo.kernels import grid_dbscan
from .sources import ReplaySource, StreamChunk

__all__ = ["StreamingDjCluster", "replay_extract_djclusters"]

#: Relative band around ``max_stationary_speed_mps`` inside which a chunk's
#: batched speeds are re-decided with the scalar :meth:`_segment_below`.
_SPEED_BAND = 1e-9


class _Columns:
    """Parallel numpy columns that grow by doubling."""

    def __init__(self, **dtypes: type) -> None:
        self.size = 0
        self._names = tuple(dtypes)
        for name, dtype in dtypes.items():
            setattr(self, name, np.zeros(64, dtype=dtype))

    def grow(self, extra: int) -> slice:
        """Room for ``extra`` more rows; returns their slice (size not bumped)."""
        need = self.size + extra
        cap = getattr(self, self._names[0]).size
        if need > cap:
            cap = max(need, 2 * cap)
            for name in self._names:
                old = getattr(self, name)
                new = np.zeros(cap, dtype=old.dtype)
                new[: self.size] = old[: self.size]
                setattr(self, name, new)
        return slice(self.size, need)


class _UserState:
    """Per-user stream state; the fixes themselves live in the shared columns."""

    __slots__ = ("anchor", "prev", "prev_below")

    def __init__(self) -> None:
        # (lat0, lon0, lat_m, lon_m) — set by the user's first fix.
        self.anchor: Optional[Tuple[float, float, float, float]] = None
        # The latest fix (ts, lat, lon), stationarity not yet resolved.
        self.prev: Optional[Tuple[float, float, float]] = None
        self.prev_below = False  # was the segment *into* ``prev`` slow?


class StreamingDjCluster:
    """Online stationarity filter with a batch-pinned ``finalize()``.

    ``user_ids`` is the source's roster; a user's position in it is the
    ``user`` code of its resident fixes.
    """

    def __init__(
        self,
        config: Optional[DjClusterConfig] = None,
        *,
        user_ids: Sequence[str],
    ) -> None:
        self.config = config or DjClusterConfig()
        self._user_ids = tuple(user_ids)
        self._states = [_UserState() for _ in self._user_ids]
        # Every stationary fix, all users, in insertion order.
        self._fixes = _Columns(x=float, y=float, lat=float, lon=float, ts=float, user=np.int64)

    @property
    def stationary_points(self) -> int:
        """Stationary fixes currently indexed across users (resident state)."""
        return self._fixes.size

    # -- online updates ---------------------------------------------------------

    def update_many(self, chunk: StreamChunk) -> None:
        """Feed a chunk; resolve the stationarity of each fix it follows."""
        chunk.require_roster(self._user_ids)
        if len(chunk) == 0:
            return
        codes, ts, lats, lons = self._resolve_chunk(chunk)
        if codes.size:
            self._append(codes, ts, lats, lons)

    def finalize(self) -> Dict[str, List[ExtractedPoi]]:
        """Per-user cluster POIs, bitwise-identical to the batch attack."""
        held = [
            code for code, st in enumerate(self._states) if st.prev is not None and st.prev_below
        ]
        if held:
            ts, lats, lons = np.array([self._states[code].prev for code in held], dtype=float).T
            self._append(np.array(held, dtype=np.int64), ts, lats, lons)
            for code in held:
                self._states[code].prev_below = False  # resolved; finalize stays idempotent
        fx = self._fixes
        n = fx.size
        labels = grid_dbscan(
            fx.x[:n], fx.y[:n], self.config.eps_m, self.config.min_points,
            segments=fx.user[:n],
        )
        # Per user, its fixes in insertion order (resident ids ascend in it).
        order = np.argsort(fx.user[:n], kind="stable")
        bounds = np.searchsorted(fx.user[:n][order], np.arange(len(self._states) + 1))
        out: Dict[str, List[ExtractedPoi]] = {}
        for code, user_id in enumerate(self._user_ids):
            rows = order[bounds[code] : bounds[code + 1]]
            out[user_id] = DjCluster._user_pois(
                user_id, labels[rows], fx.ts[rows], fx.lat[rows], fx.lon[rows],
                np.arange(rows.size),
            )
        return out

    # -- stationarity (one point of lookahead) ----------------------------------

    def _segment_below(
        self, t0: float, lat0: float, lon0: float, t1: float, lat1: float, lon1: float
    ) -> bool:
        """Is the segment slow?  Exact :meth:`Trajectory.speeds` arithmetic."""
        dist = haversine(lat0, lon0, lat1, lon1)
        dur = t1 - t0
        if dur > 0.0:
            speed = dist / dur
        elif dist == 0.0:
            speed = 0.0
        else:
            speed = math.inf
        return speed <= self.config.max_stationary_speed_mps

    def _segments_below(
        self, ts: np.ndarray, lats: np.ndarray, lons: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """:meth:`_segment_below` of the ``valid`` consecutive pairs, batched.

        Speeds inside a relative band of the threshold, and zero-duration
        segments, are re-decided by the scalar method itself.
        """
        vmax = self.config.max_stationary_speed_mps
        dur = ts[1:] - ts[:-1]
        dist = haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = dist / dur
        below = (speed <= vmax) & valid
        recheck = valid & ((dur <= 0.0) | (np.abs(speed - vmax) <= _SPEED_BAND * vmax))
        for k in np.flatnonzero(recheck).tolist():
            below[k] = self._segment_below(
                float(ts[k]), float(lats[k]), float(lons[k]),
                float(ts[k + 1]), float(lats[k + 1]), float(lons[k + 1]),
            )
        return below

    def _resolve_chunk(
        self, chunk: StreamChunk
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The stationary fixes a chunk resolves, every user at once.

        Returns ``(user codes, ts, lats, lons)`` in the arrival order of the
        fix after each, which no chunking changes.
        """
        order = np.argsort(chunk.user_index, kind="stable")
        roster = chunk.user_index[order]
        first = np.flatnonzero(np.concatenate([[True], roster[1:] != roster[:-1]]))
        present = roster[first]
        states = [self._states[code] for code in present.tolist()]
        ts, lats, lons = chunk.timestamps[order], chunk.lats[order], chunk.lons[order]
        for st, row in zip(states, first.tolist()):
            if st.anchor is None:
                lat_m, lon_m = meters_per_degree(float(lats[row]))
                st.anchor = (float(lats[row]), float(lons[row]), lat_m, lon_m)
        # Each user's run, preceded by its held (unresolved) fix if any.
        held = [k for k, st in enumerate(states) if st.prev is not None]
        prev = np.array([states[k].prev for k in held], dtype=float).reshape(-1, 3)
        at = first[held]
        ts = np.insert(ts, at, prev[:, 0])
        lats = np.insert(lats, at, prev[:, 1])
        lons = np.insert(lons, at, prev[:, 2])
        rows = np.insert(order, at, -1)
        opens = np.zeros(order.size, dtype=np.int64)
        opens[first] = 1
        run = np.insert(np.cumsum(opens) - 1, at, held)
        same = run[1:] == run[:-1]
        below = self._segments_below(ts, lats, lons, same)
        is_first = np.concatenate([[True], ~same])
        is_last = np.concatenate([~same, [True]])
        # A fix is stationary when the segment into it or out of it is slow;
        # it is inserted when the fix after it arrives.
        into = np.concatenate([[False], below])
        into[is_first] = [states[k].prev_below for k in run[is_first].tolist()]
        fixes = np.flatnonzero(~is_last & (into | np.concatenate([below, [False]])))
        for st, last, length in zip(
            states,
            np.flatnonzero(is_last).tolist(),
            np.diff(np.concatenate([np.flatnonzero(is_first), [run.size]])).tolist(),
        ):
            st.prev = (float(ts[last]), float(lats[last]), float(lons[last]))
            if length > 1:
                st.prev_below = bool(below[last - 1])
        fixes = fixes[np.argsort(rows[fixes + 1], kind="stable")]
        return present[run[fixes]], ts[fixes], lats[fixes], lons[fixes]

    # -- resident columns -------------------------------------------------------

    def _append(
        self, codes: np.ndarray, ts: np.ndarray, lats: np.ndarray, lons: np.ndarray
    ) -> None:
        """Project resolved stationary fixes against their users' anchors; append them."""
        present, slot = np.unique(codes, return_inverse=True)
        anchors = np.array(
            [self._states[code].anchor for code in present.tolist()], dtype=float
        ).reshape(-1, 4)
        lat0, lon0, lat_m, lon_m = anchors[slot.reshape(-1)].T
        fx = self._fixes
        span = fx.grow(codes.size)
        fx.x[span] = (lons - lon0) * lon_m
        fx.y[span] = (lats - lat0) * lat_m
        fx.lat[span], fx.lon[span], fx.ts[span], fx.user[span] = lats, lons, ts, codes
        fx.size = span.stop


def replay_extract_djclusters(
    dataset: MobilityDataset, config: Optional[DjClusterConfig] = None
) -> Dict[str, List[ExtractedPoi]]:
    """Replay ``dataset`` through the streaming DJ-Cluster (batch-identical)."""
    source = ReplaySource(dataset)
    clusterer = StreamingDjCluster(config, user_ids=source.user_ids)
    for chunk in source.chunks():
        clusterer.update_many(chunk)
    return clusterer.finalize()
