"""Speed smoothing: hiding points of interest by enforcing a constant speed.

This module implements the first mechanism of the paper (Section III): a
published trajectory is re-sampled so that **consecutive points are separated
by a constant distance and a constant duration**, hence a constant apparent
speed.  Stops become indistinguishable from movement because the user never
appears stationary, while the *geometry* of the path is preserved almost
exactly (only linear-interpolation error along the recorded polyline).

Algorithm
---------
Given a raw recording session and a target spatial spacing ``epsilon_m``:

1. Walk through the raw fixes in order, keeping track of the *last emitted*
   position.  Each time the straight-line distance from the last emitted
   position to the current raw fix reaches ``epsilon_m``, interpolate a new
   position exactly ``epsilon_m`` meters away (on the segment toward the
   current fix) and emit it.  Consecutive emitted points are therefore exactly
   ``epsilon_m`` apart.  Crucially, the spacing is *chained*: GPS jitter while
   the user is stopped wanders inside a circle much smaller than
   ``epsilon_m`` and never gets far enough from the last emitted point to
   produce one, so the dozens of fixes recorded inside a POI collapse to (at
   most) a single published point — this is what hides POIs.
2. Re-assign timestamps uniformly between the departure time of the session
   and its arrival time, so that both the inter-point distance *and* the
   inter-point duration are constant.
3. Optionally drop the first ``trim_start_m`` / last ``trim_end_m`` meters of
   emitted points.  The extremities of a trace are usually POIs themselves
   (the trip starts at home and ends at work); removing a short prefix and
   suffix hides them, as done by the authors' follow-up implementation.

Trajectories are processed one recording session at a time (sessions are
delimited by sampling gaps longer than ``session_gap_s``), because the
constant speed is only meaningful over a continuously recorded period: mixing
an unrecorded night into the duration would drive the apparent speed to zero.

The result is returned as a new :class:`~repro.core.trajectory.Trajectory`;
raw data is never modified.

Implementation
--------------
:meth:`SpeedSmoother.smooth_dataset` (and :meth:`SpeedSmoother.smooth`, on a
one-user view) runs in one pass over the dataset's columnar view.  Session
cuts come from ``np.diff`` of the flattened timestamps, and all sessions walk
in lockstep, one step per round:

* runs of raw fixes that stay within ``epsilon_m`` of the last emitted point
  are skipped in batched probe rounds: a fix whose batched distance is below
  ``epsilon_m`` by more than a ``1e-9`` relative band emits nothing, and so
  does every following fix whose travelled arc length from it is below the
  remaining slack (triangle inequality), the pattern of
  :func:`~repro.geo.kernels.windowed_stay_spans`;
* every other candidate is confirmed with the scalar
  :func:`~repro.geo.distance.haversine` of the walk, and an emission uses
  that exact distance for its fraction ``epsilon_m / d``, so every emitted
  coordinate is bitwise the walk's.

Each user's output is built once with ``Trajectory.from_sorted``.  The
point-by-point walk survives unchanged as the scalar oracles
:meth:`SpeedSmoother.smooth_reference` and
:meth:`SpeedSmoother.smooth_dataset_reference`; the kernel must reproduce
them bitwise (``tests/test_kernel_equivalence.py``).

A deliberately *naive* variant (:func:`smooth_trajectory_naive`) that
re-samples by point index instead of chained distance is provided as an
ablation baseline: it demonstrates why the distance-based walk is required
(index resampling keeps the points clustered inside POIs and does not hide
them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geo.distance import haversine, haversine_array
from ..geo.geometry import interpolate_position
from ..geo.kernels import ColumnarTraces, concat_ranges
from .trajectory import MobilityDataset, Trajectory

__all__ = [
    "SpeedSmoothingConfig",
    "SpeedSmoother",
    "smooth_trajectory",
    "smooth_trajectory_naive",
    "smooth_dataset",
]


@dataclass(frozen=True)
class SpeedSmoothingConfig:
    """Parameters of the constant-speed transformation.

    Attributes
    ----------
    epsilon_m:
        Target spacing in meters between consecutive published points.  This
        is the privacy/utility knob: larger values hide POIs more aggressively
        (any stop shorter than the time needed to cover ``epsilon_m`` at the
        trace's average speed is invisible) but publish fewer points.
    trim_start_m / trim_end_m:
        Length of path removed at the beginning / end of the trace before
        resampling, to hide the departure and arrival POIs.  Defaults to 0
        (publish the full path).
    min_points:
        Traces with fewer raw fixes than this are considered too short to be
        protected and are dropped (an empty trajectory is returned).
    session_gap_s:
        Recording sessions are smoothed independently: whenever the gap
        between two consecutive raw fixes exceeds this value, the trace is
        split and each piece gets its own constant speed.  This mirrors how
        the mechanism is applied to real datasets, where each GPS recording
        session (a GeoLife PLT file, a trip) is one trace.  Smoothing a
        multi-day history as a single trace would mix long unrecorded periods
        into the duration and drive the apparent speed toward zero.  Set to
        ``None`` to smooth the whole trajectory as one piece.
    """

    epsilon_m: float = 100.0
    trim_start_m: float = 0.0
    trim_end_m: float = 0.0
    min_points: int = 2
    session_gap_s: Optional[float] = 1800.0

    def __post_init__(self) -> None:
        if self.epsilon_m <= 0.0:
            raise ValueError(f"epsilon_m must be positive, got {self.epsilon_m}")
        if self.trim_start_m < 0.0 or self.trim_end_m < 0.0:
            raise ValueError("trim distances must be non-negative")
        if self.min_points < 2:
            raise ValueError(f"min_points must be at least 2, got {self.min_points}")
        if self.session_gap_s is not None and self.session_gap_s <= 0.0:
            raise ValueError(f"session_gap_s must be positive or None, got {self.session_gap_s}")


#: Relative band around ``epsilon_m`` inside which a batched probe distance
#: decides nothing.  The batched and scalar haversine agree to a few ulps
#: (~1e-15 relative), so a probe below the band is certainly below
#: ``epsilon_m`` for the walk's scalar distance too.
_PROBE_BAND = 1e-9

#: Meters kept off every arc-length skip: the triangle inequality holds in
#: exact arithmetic, and one millimeter dwarfs the float error of the
#: cumulative path sum (the margin of ``windowed_stay_spans``).
_SKIP_MARGIN_M = 1e-3


def _session_bounds(
    timestamps: np.ndarray, offsets: np.ndarray, session_gap_s: Optional[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Half-open ``[start, stop)`` point ranges of every recording session."""
    cuts = [offsets]
    if session_gap_s is not None:
        cuts.append(np.nonzero(np.diff(timestamps) > session_gap_s)[0] + 1)
    bounds = np.unique(np.concatenate(cuts))
    return bounds[:-1], bounds[1:]


def _chained_walk(
    lats: np.ndarray,
    lons: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    epsilon_m: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chained walk of every session ``[starts[k], stops[k])``, in lockstep.

    Each round advances every unfinished session by one step: either a skip
    over fixes certainly within ``epsilon_m`` of the last emitted position,
    or one exact test of the fix at hand (an emission when it is
    ``epsilon_m`` or farther).  Returns ``(session, lats, lons)`` of every
    emitted position, grouped by session, in walk order within each.
    """
    seg = haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    band = _PROBE_BAND * max(abs(epsilon_m), 1.0)
    sessions = [np.arange(starts.size)]
    out_lats, out_lons = [lats[starts]], [lons[starts]]
    cur_lat, cur_lon = out_lats[0].copy(), out_lons[0].copy()
    pos = starts + 1  # the raw fix each session examines next
    active = np.nonzero(pos < stops)[0]
    while active.size:
        probe = pos[active]
        d = haversine_array(cur_lat[active], cur_lon[active], lats[probe], lons[probe])
        near = d < epsilon_m - band
        # The probe emits nothing, nor does any later fix whose arc length
        # from it stays below the remaining slack.
        slack = (epsilon_m - d[near]) - _SKIP_MARGIN_M
        reach = np.searchsorted(cum, cum[probe[near]] + slack, side="left")
        pos[active[near]] = np.maximum(probe[near] + 1, reach)

        candidates = active[~near]
        target = pos[candidates]
        lat0, lon0 = cur_lat[candidates], cur_lon[candidates]
        lat1, lon1 = lats[target], lons[target]
        exact = np.array([
            haversine(a, b, c, e)  # repro: allow=R3 -- each fraction needs the walk's exact distance
            for a, b, c, e in zip(lat0.tolist(), lon0.tolist(), lat1.tolist(), lon1.tolist())
        ])
        emit = exact >= epsilon_m
        pos[candidates[~emit]] += 1
        fraction = np.minimum(1.0, np.maximum(0.0, epsilon_m / exact[emit]))
        lat0, lon0 = lat0[emit], lon0[emit]
        new_lat = lat0 + fraction * (lat1[emit] - lat0)
        new_lon = lon0 + fraction * (lon1[emit] - lon0)
        emitters = candidates[emit]
        cur_lat[emitters] = new_lat
        cur_lon[emitters] = new_lon
        sessions.append(emitters)
        out_lats.append(new_lat)
        out_lons.append(new_lon)
        active = active[pos[active] < stops[active]]
    session = np.concatenate(sessions)
    order = np.argsort(session, kind="stable")
    return session[order], np.concatenate(out_lats)[order], np.concatenate(out_lons)[order]


def _uniform_times(t_start: np.ndarray, t_end: np.ndarray, num: np.ndarray) -> np.ndarray:
    """``np.linspace(t_start[k], t_end[k], num[k])`` for every ``k``, concatenated.

    Reproduces linspace's arithmetic, ``i * step + start`` with an exact
    endpoint, so the result is bitwise the per-call one; every ``num[k]`` is
    at least 2.  (linspace's other branch, for a step that underflows to
    zero, differs only for a subnormal nonzero time span.)
    """
    session = np.repeat(np.arange(num.size), num)
    index = (np.arange(int(num.sum())) - np.repeat(np.cumsum(num) - num, num)).astype(float)
    div = (num - 1)[session]
    step = (t_end - t_start)[session] / div
    return np.where(index == div, t_end[session], index * step + t_start[session])


class SpeedSmoother:
    """Applies the constant-speed transformation to trajectories and datasets."""

    def __init__(self, config: Optional[SpeedSmoothingConfig] = None) -> None:
        self.config = config or SpeedSmoothingConfig()

    # -- single trajectory ---------------------------------------------------

    def smooth(self, trajectory: Trajectory) -> Trajectory:
        """Return the constant-speed version of ``trajectory``.

        The trajectory is first split into recording sessions at sampling gaps
        larger than ``session_gap_s`` (see :class:`SpeedSmoothingConfig`);
        each session is smoothed independently and the results are
        concatenated.  Within each session, the output satisfies, up to
        floating point error:

        * consecutive points are exactly ``epsilon_m`` meters apart
          (straight-line distance);
        * consecutive points are separated by a constant duration;
        * the first published timestamp equals the raw departure time and the
          last published timestamp equals the raw arrival time;
        * every published position lies on or between recorded positions (the
          walk interpolates on chords of the recorded path), so the spatial
          error stays below the raw sampling geometry.

        Sessions shorter than ``min_points`` fixes, or whose path is shorter
        than one ``epsilon_m`` step after trimming, are suppressed entirely:
        they cannot be protected (publishing one or two points of a stationary
        user would reveal a POI directly).  A trajectory whose sessions are
        all suppressed yields an empty trajectory.
        """
        (smoothed,) = self._smooth_columnar(
            ColumnarTraces.from_trajectories([trajectory]), drop_empty=False
        )
        return smoothed

    # -- whole dataset ---------------------------------------------------------

    def smooth_dataset(self, dataset: MobilityDataset, drop_empty: bool = True) -> MobilityDataset:
        """Apply :meth:`smooth` to every user of ``dataset``.

        When ``drop_empty`` is true (the default), users whose protected
        trajectory ends up empty are removed from the published dataset, which
        matches the publication semantics of the paper (a record that cannot
        be protected is withheld rather than released raw).
        """
        return MobilityDataset(self._smooth_columnar(dataset.columnar(), drop_empty))

    def _smooth_columnar(self, columnar: ColumnarTraces, drop_empty: bool) -> List[Trajectory]:
        """The smoothed trajectory of every user of ``columnar``, in user order."""
        cfg = self.config
        starts, stops = _session_bounds(columnar.timestamps, columnar.offsets, cfg.session_gap_s)
        long_enough = stops - starts >= cfg.min_points
        starts, stops = starts[long_enough], stops[long_enough]
        session, lats, lons = _chained_walk(
            columnar.lats, columnar.lons, starts, stops, cfg.epsilon_m
        )

        # Trim as the walk's slice ``[drop_start:max(count - drop_end, 0)]`` does.
        count = np.bincount(session, minlength=starts.size)
        drop_start = int(np.ceil(cfg.trim_start_m / cfg.epsilon_m)) if cfg.trim_start_m else 0
        drop_end = int(np.ceil(cfg.trim_end_m / cfg.epsilon_m)) if cfg.trim_end_m else 0
        lo = np.minimum(drop_start, count)
        kept = np.maximum(count - drop_end - lo, 0)
        # Sessions left with fewer than two points are suppressed.
        published = kept >= 2
        starts, stops, kept = starts[published], stops[published], kept[published]
        points = concat_ranges((np.cumsum(count) - count + lo)[published], kept)
        out_lats, out_lons = lats[points], lons[points]
        ts = columnar.timestamps
        out_times = _uniform_times(ts[starts], ts[stops - 1], kept)

        per_user = np.zeros(columnar.n_users, dtype=np.int64)
        np.add.at(per_user, columnar.user_index[starts], kept)
        bounds = np.concatenate([[0], np.cumsum(per_user)]).tolist()
        trajectories = []
        for k, user_id in enumerate(columnar.user_ids):
            lo_k, hi_k = bounds[k], bounds[k + 1]
            if lo_k < hi_k:
                trajectories.append(Trajectory.from_sorted(
                    user_id, out_times[lo_k:hi_k], out_lats[lo_k:hi_k], out_lons[lo_k:hi_k]
                ))
            elif not drop_empty:
                trajectories.append(Trajectory.empty(user_id))
        return trajectories

    # -- scalar oracle ---------------------------------------------------------

    def smooth_reference(self, trajectory: Trajectory) -> Trajectory:
        """:meth:`smooth` by the point-by-point walk (the scalar oracle)."""
        cfg = self.config
        if cfg.session_gap_s is not None and len(trajectory) >= 2:
            sessions = trajectory.split_by_gap(cfg.session_gap_s)
        else:
            sessions = [trajectory]
        smoothed = [self._smooth_session_reference(session) for session in sessions]
        smoothed = [s for s in smoothed if len(s) > 0]
        if not smoothed:
            return Trajectory.empty(trajectory.user_id)
        result = smoothed[0]
        for piece in smoothed[1:]:
            result = result.append(piece)
        return result

    def smooth_dataset_reference(
        self, dataset: MobilityDataset, drop_empty: bool = True
    ) -> MobilityDataset:
        """:meth:`smooth_dataset` by the point-by-point walk (the scalar oracle)."""
        protected = dataset.map_trajectories(self.smooth_reference)
        return protected.without_empty() if drop_empty else protected

    def _smooth_session_reference(self, trajectory: Trajectory) -> Trajectory:
        """Smooth one recording session (no gap splitting)."""
        cfg = self.config
        if len(trajectory) < cfg.min_points:
            return Trajectory.empty(trajectory.user_id)

        out_lats, out_lons = self._chained_resample_reference(trajectory, cfg.epsilon_m)

        # Drop the prefix / suffix hiding the departure and arrival POIs.
        drop_start = int(np.ceil(cfg.trim_start_m / cfg.epsilon_m)) if cfg.trim_start_m else 0
        drop_end = int(np.ceil(cfg.trim_end_m / cfg.epsilon_m)) if cfg.trim_end_m else 0
        if drop_start or drop_end:
            # Clamped: trimming more than was emitted leaves nothing, never
            # a negative end index counting back from the end.
            end_index = max(len(out_lats) - drop_end, 0)
            out_lats = out_lats[drop_start:end_index]
            out_lons = out_lons[drop_start:end_index]

        if len(out_lats) < 2:
            # The session is spatially too small to hide anything: publishing
            # it would amount to publishing the POI itself, so suppress it.
            return Trajectory.empty(trajectory.user_id)

        t_start = float(trajectory.timestamps[0])
        t_end = float(trajectory.timestamps[-1])
        out_times = np.linspace(t_start, t_end, num=len(out_lats))
        return Trajectory(trajectory.user_id, out_times, out_lats, out_lons)

    @staticmethod
    def _chained_resample_reference(
        trajectory: Trajectory, epsilon_m: float
    ) -> Tuple[List[float], List[float]]:
        """Positions spaced exactly ``epsilon_m`` apart, walked through the raw fixes.

        Starting from the first raw fix, a new position is emitted every time
        the straight-line distance from the last emitted position to the raw
        fix being examined reaches ``epsilon_m``; the new position is placed by
        linear interpolation so that the spacing is exact, and the walk resumes
        from it (several positions can be emitted inside one long raw segment).
        Raw fixes that never get ``epsilon_m`` away from the last emitted
        position (GPS jitter inside a POI) produce nothing.
        """
        raw_lats = np.asarray(trajectory.lats, dtype=float)
        raw_lons = np.asarray(trajectory.lons, dtype=float)
        out_lats: List[float] = [float(raw_lats[0])]
        out_lons: List[float] = [float(raw_lons[0])]
        current_lat = float(raw_lats[0])
        current_lon = float(raw_lons[0])
        for lat, lon in zip(raw_lats[1:], raw_lons[1:]):
            distance = haversine(current_lat, current_lon, float(lat), float(lon))
            while distance >= epsilon_m:
                fraction = epsilon_m / distance
                current_lat, current_lon = interpolate_position(
                    current_lat, current_lon, float(lat), float(lon), fraction
                )
                out_lats.append(current_lat)
                out_lons.append(current_lon)
                distance = haversine(current_lat, current_lon, float(lat), float(lon))
        return out_lats, out_lons


def smooth_trajectory(
    trajectory: Trajectory, epsilon_m: float = 100.0, **kwargs
) -> Trajectory:
    """Convenience function: smooth one trajectory with spacing ``epsilon_m``."""
    return SpeedSmoother(SpeedSmoothingConfig(epsilon_m=epsilon_m, **kwargs)).smooth(trajectory)


def smooth_dataset(
    dataset: MobilityDataset, epsilon_m: float = 100.0, **kwargs
) -> MobilityDataset:
    """Convenience function: smooth every trajectory of ``dataset``."""
    smoother = SpeedSmoother(SpeedSmoothingConfig(epsilon_m=epsilon_m, **kwargs))
    return smoother.smooth_dataset(dataset)


def smooth_trajectory_naive(trajectory: Trajectory, keep_every: int = 10) -> Trajectory:
    """Ablation baseline: re-sample by *index* instead of arc-length.

    Keeps one raw fix out of ``keep_every`` and spreads timestamps uniformly.
    Because raw fixes are denser inside POIs (the user lingers there), the
    kept points remain clustered around POIs and the stop structure leaks
    through the uniform timestamps — exactly the failure mode the arc-length
    version avoids.  Used by the E2 ablation benchmark.
    """
    if keep_every < 1:
        raise ValueError(f"keep_every must be >= 1, got {keep_every}")
    if len(trajectory) < 2:
        return Trajectory.empty(trajectory.user_id)
    idx = np.arange(0, len(trajectory), keep_every)
    if idx[-1] != len(trajectory) - 1:
        idx = np.concatenate([idx, [len(trajectory) - 1]])
    lats = np.asarray(trajectory.lats)[idx]
    lons = np.asarray(trajectory.lons)[idx]
    t_start = float(trajectory.timestamps[0])
    t_end = float(trajectory.timestamps[-1])
    times = np.linspace(t_start, t_end, num=idx.size)
    return Trajectory(trajectory.user_id, times, lats, lons)
