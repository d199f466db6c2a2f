"""The mobility data model: points, trajectories and datasets.

The whole library is built on three types:

* :class:`Point` — a single timestamped GPS fix ``(lat, lon, timestamp)``;
* :class:`Trajectory` — the ordered sequence of fixes of one user, backed by
  numpy arrays and kept sorted by time;
* :class:`MobilityDataset` — a set of trajectories keyed by user identifier,
  i.e. the object that gets *published* after anonymization.

Timestamps are expressed as POSIX seconds (floats).  Trajectories are value
objects: all transformation methods return new instances and never mutate the
receiver, which keeps privacy mechanisms free of aliasing bugs and lets tests
compare raw versus protected data safely.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..geo.distance import haversine, haversine_array
from ..geo.geometry import BoundingBox
from ..geo.kernels import ColumnarTraces
from ..geo.polyline import cumulative_distances, path_length

__all__ = ["Point", "Trajectory", "MobilityDataset"]


@dataclass(frozen=True, order=True)
class Point:
    """A single timestamped location fix.

    Ordering is by timestamp first (then latitude/longitude), which makes a
    list of points sortable into chronological order directly.
    """

    timestamp: float
    lat: float
    lon: float

    def distance_to(self, other: "Point") -> float:
        """Great-circle distance in meters to another point."""
        return haversine(self.lat, self.lon, other.lat, other.lon)

    def time_to(self, other: "Point") -> float:
        """Signed time difference in seconds (positive when ``other`` is later)."""
        return other.timestamp - self.timestamp

    def speed_to(self, other: "Point") -> float:
        """Average speed in m/s between this fix and ``other``.

        Returns ``inf`` when the two fixes share the same timestamp but not the
        same position, and 0 when they are identical.
        """
        d = self.distance_to(other)
        dt = abs(self.time_to(other))
        if dt == 0.0:
            return 0.0 if d == 0.0 else math.inf
        return d / dt


class Trajectory:
    """The chronologically ordered trace of a single user.

    Internally stores three parallel numpy arrays (timestamps, latitudes,
    longitudes).  Construction validates that coordinates are finite and within
    WGS84 bounds and sorts fixes by timestamp; duplicate timestamps are allowed
    (real GPS loggers emit them) but non-finite values are rejected.
    """

    __slots__ = ("user_id", "_timestamps", "_lats", "_lons")

    def __init__(
        self,
        user_id: str,
        timestamps: Sequence[float],
        lats: Sequence[float],
        lons: Sequence[float],
    ) -> None:
        timestamps = np.asarray(timestamps, dtype=float)
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        if not (timestamps.shape == lats.shape == lons.shape):
            raise ValueError(
                "timestamps, lats and lons must have identical shapes, got "
                f"{timestamps.shape}, {lats.shape}, {lons.shape}"
            )
        if timestamps.ndim != 1:
            raise ValueError("trajectory arrays must be one-dimensional")
        if timestamps.size:
            if not np.all(np.isfinite(timestamps)):
                raise ValueError("trajectory timestamps must be finite")
            if not np.all(np.isfinite(lats)) or not np.all(np.isfinite(lons)):
                raise ValueError("trajectory coordinates must be finite")
            if np.any(lats < -90.0) or np.any(lats > 90.0):
                raise ValueError("latitudes must lie in [-90, 90]")
            if np.any(lons < -180.0) or np.any(lons > 180.0):
                raise ValueError("longitudes must lie in [-180, 180]")
        order = np.argsort(timestamps, kind="stable")
        self.user_id = str(user_id)
        self._timestamps = np.ascontiguousarray(timestamps[order])
        self._lats = np.ascontiguousarray(lats[order])
        self._lons = np.ascontiguousarray(lons[order])

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_sorted(
        cls,
        user_id: str,
        timestamps: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
    ) -> "Trajectory":
        """Trusted constructor for already-validated, time-sorted arrays.

        Skips the finiteness/range checks and the stable sort of the public
        constructor.  Library hot paths (publication mechanisms, masking
        transforms) use it on arrays they derived from an existing trajectory,
        where the invariants hold by construction; external data must go
        through ``Trajectory(...)``.
        """
        traj = cls.__new__(cls)
        traj.user_id = str(user_id)
        traj._timestamps = np.ascontiguousarray(timestamps, dtype=float)
        traj._lats = np.ascontiguousarray(lats, dtype=float)
        traj._lons = np.ascontiguousarray(lons, dtype=float)
        return traj

    @classmethod
    def from_points(cls, user_id: str, points: Iterable[Point]) -> "Trajectory":
        """Build a trajectory from an iterable of :class:`Point`."""
        pts = list(points)
        return cls(
            user_id,
            [p.timestamp for p in pts],
            [p.lat for p in pts],
            [p.lon for p in pts],
        )

    @classmethod
    def empty(cls, user_id: str) -> "Trajectory":
        """A trajectory with no fixes."""
        return cls(user_id, [], [], [])

    # -- array accessors ----------------------------------------------------

    @property
    def timestamps(self) -> np.ndarray:
        """POSIX timestamps in seconds (read-only view)."""
        return self._readonly(self._timestamps)

    @property
    def lats(self) -> np.ndarray:
        """Latitudes in decimal degrees (read-only view)."""
        return self._readonly(self._lats)

    @property
    def lons(self) -> np.ndarray:
        """Longitudes in decimal degrees (read-only view)."""
        return self._readonly(self._lons)

    @staticmethod
    def _readonly(arr: np.ndarray) -> np.ndarray:
        view = arr.view()
        view.flags.writeable = False
        return view

    # -- dunder protocol ----------------------------------------------------

    def __len__(self) -> int:
        return int(self._timestamps.size)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Point]:
        for t, lat, lon in zip(self._timestamps, self._lats, self._lons):
            yield Point(float(t), float(lat), float(lon))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trajectory(
                self.user_id,
                self._timestamps[index],
                self._lats[index],
                self._lons[index],
            )
        i = int(index)
        return Point(float(self._timestamps[i]), float(self._lats[i]), float(self._lons[i]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.user_id == other.user_id
            and len(self) == len(other)
            and bool(np.array_equal(self._timestamps, other._timestamps))
            and bool(np.array_equal(self._lats, other._lats))
            and bool(np.array_equal(self._lons, other._lons))
        )

    def __repr__(self) -> str:
        if len(self) == 0:
            return f"Trajectory(user_id={self.user_id!r}, empty)"
        return (
            f"Trajectory(user_id={self.user_id!r}, n={len(self)}, "
            f"span={self.duration:.0f}s, length={self.length_m:.0f}m)"
        )

    # -- summary statistics --------------------------------------------------

    @property
    def first(self) -> Point:
        """The earliest fix; raises ``IndexError`` on an empty trajectory."""
        return self[0]

    @property
    def last(self) -> Point:
        """The latest fix; raises ``IndexError`` on an empty trajectory."""
        return self[-1]

    @property
    def duration(self) -> float:
        """Time span in seconds between the first and last fix (0 when empty)."""
        if len(self) < 2:
            return 0.0
        return float(self._timestamps[-1] - self._timestamps[0])

    @property
    def length_m(self) -> float:
        """Total travelled distance in meters along the recorded path."""
        return path_length(self._lats, self._lons)

    @property
    def bbox(self) -> BoundingBox:
        """Smallest bounding box containing every fix."""
        if len(self) == 0:
            raise ValueError("empty trajectory has no bounding box")
        return BoundingBox.from_points(self._lats, self._lons)

    def cumulative_distances(self) -> np.ndarray:
        """Arc-length in meters of each fix from the first one."""
        return cumulative_distances(self._lats, self._lons)

    def segment_distances(self) -> np.ndarray:
        """Distance in meters between consecutive fixes (length ``n - 1``)."""
        if len(self) < 2:
            return np.zeros(0)
        return haversine_array(self._lats[:-1], self._lons[:-1], self._lats[1:], self._lons[1:])

    def segment_durations(self) -> np.ndarray:
        """Time in seconds between consecutive fixes (length ``n - 1``)."""
        if len(self) < 2:
            return np.zeros(0)
        return np.diff(self._timestamps)

    def speeds(self) -> np.ndarray:
        """Per-segment average speed in m/s (``inf`` on zero-duration segments)."""
        dist = self.segment_distances()
        dur = self.segment_durations()
        with np.errstate(divide="ignore", invalid="ignore"):
            speeds = np.where(dur > 0.0, dist / np.where(dur > 0.0, dur, 1.0), np.inf)
        speeds = np.where((dur == 0.0) & (dist == 0.0), 0.0, speeds)
        return speeds

    def sampling_intervals(self) -> np.ndarray:
        """Alias of :meth:`segment_durations` (the sampling rate profile)."""
        return self.segment_durations()

    # -- transformations (all return new trajectories) -----------------------

    def with_user_id(self, user_id: str) -> "Trajectory":
        """Same fixes, different identifier (used by the swapping engine)."""
        return Trajectory.from_sorted(user_id, self._timestamps, self._lats, self._lons)

    def slice_time(self, start: float, end: float) -> "Trajectory":
        """Fixes with timestamps in ``[start, end]`` (inclusive bounds)."""
        mask = (self._timestamps >= start) & (self._timestamps <= end)
        return self._masked(mask)

    def remove_time(self, start: float, end: float) -> "Trajectory":
        """Fixes outside ``[start, end]`` — the complement of :meth:`slice_time`."""
        mask = (self._timestamps < start) | (self._timestamps > end)
        return self._masked(mask)

    def filter_mask(self, mask: np.ndarray) -> "Trajectory":
        """Keep only fixes where ``mask`` is true (mask length must match)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._timestamps.shape:
            raise ValueError("mask shape does not match trajectory length")
        return self._masked(mask)

    def _masked(self, mask: np.ndarray) -> "Trajectory":
        # Masking preserves chronological order and validity.
        return Trajectory.from_sorted(
            self.user_id, self._timestamps[mask], self._lats[mask], self._lons[mask]
        )

    def append(self, other: "Trajectory") -> "Trajectory":
        """Concatenate another trajectory's fixes (re-sorted by timestamp)."""
        return Trajectory(
            self.user_id,
            np.concatenate([self._timestamps, other._timestamps]),
            np.concatenate([self._lats, other._lats]),
            np.concatenate([self._lons, other._lons]),
        )

    def downsample(self, factor: int) -> "Trajectory":
        """Keep one fix out of every ``factor`` (always keeps the first fix)."""
        if factor < 1:
            raise ValueError(f"downsampling factor must be >= 1, got {factor}")
        return Trajectory.from_sorted(
            self.user_id,
            self._timestamps[::factor],
            self._lats[::factor],
            self._lons[::factor],
        )

    def shift_time(self, offset_s: float) -> "Trajectory":
        """Translate every timestamp by ``offset_s`` seconds."""
        return Trajectory(self.user_id, self._timestamps + offset_s, self._lats, self._lons)

    def split_by_gap(self, max_gap_s: float) -> List["Trajectory"]:
        """Split into sub-trajectories wherever the sampling gap exceeds ``max_gap_s``.

        Real GPS logs contain long silent periods (device off, indoors); most
        algorithms should treat the segments on each side independently.
        """
        if max_gap_s <= 0.0:
            raise ValueError(f"max_gap_s must be positive, got {max_gap_s}")
        if len(self) == 0:
            return []
        gaps = np.diff(self._timestamps)
        cut_points = np.nonzero(gaps > max_gap_s)[0] + 1
        # Pieces are contiguous index ranges: slice the arrays directly
        # (slices of a sorted, validated trajectory keep its invariants).
        bounds = np.concatenate([[0], cut_points, [len(self)]])
        return [
            Trajectory.from_sorted(
                self.user_id,
                self._timestamps[lo:hi],
                self._lats[lo:hi],
                self._lons[lo:hi],
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    # -- interoperability -----------------------------------------------------

    def to_points(self) -> List[Point]:
        """Materialise the trajectory as a list of :class:`Point`."""
        return list(self)

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return copies of the ``(timestamps, lats, lons)`` arrays."""
        return self._timestamps.copy(), self._lats.copy(), self._lons.copy()


class MobilityDataset:
    """A collection of user trajectories — the unit of publication.

    The dataset maps user identifiers to :class:`Trajectory` objects.  Like
    trajectories, datasets are value objects: transformation helpers return new
    datasets.  Iteration order is the insertion order of users, which makes
    experiments reproducible.
    """

    __slots__ = ("_trajectories", "_columnar", "_fingerprint")

    def __init__(self, trajectories: Iterable[Trajectory] = ()) -> None:
        self._trajectories: Dict[str, Trajectory] = {}
        self._columnar: Optional[ColumnarTraces] = None
        self._fingerprint: Optional[Tuple[int, int, Tuple[float, float], int]] = None
        for traj in trajectories:
            self._add(traj)

    def _add(self, traj: Trajectory) -> None:
        if traj.user_id in self._trajectories:
            raise ValueError(f"duplicate user id {traj.user_id!r} in dataset")
        self._trajectories[traj.user_id] = traj

    def __getstate__(self):
        # The cached columnar view is derived data: shipping it through
        # pickle (multiprocessing fan-out) would double the payload, and
        # receivers rebuild it lazily anyway.
        return self._trajectories

    def __setstate__(self, state) -> None:
        self._trajectories = state
        self._columnar = None
        self._fingerprint = None

    # -- mapping protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self._trajectories.values())

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._trajectories

    def __getitem__(self, user_id: str) -> Trajectory:
        return self._trajectories[user_id]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MobilityDataset):
            return NotImplemented
        if set(self.user_ids) != set(other.user_ids):
            return False
        return all(self[u] == other[u] for u in self.user_ids)

    def __repr__(self) -> str:
        return f"MobilityDataset(users={len(self)}, points={self.n_points})"

    @property
    def user_ids(self) -> List[str]:
        """User identifiers in insertion order."""
        return list(self._trajectories.keys())

    @property
    def n_points(self) -> int:
        """Total number of fixes across all users."""
        return sum(len(t) for t in self)

    def get(self, user_id: str, default: Optional[Trajectory] = None) -> Optional[Trajectory]:
        """Dictionary-style access with a default."""
        return self._trajectories.get(user_id, default)

    # -- dataset-level statistics ---------------------------------------------

    @property
    def bbox(self) -> BoundingBox:
        """Smallest bounding box containing every fix of every user."""
        non_empty = [t for t in self if len(t) > 0]
        if not non_empty:
            raise ValueError("empty dataset has no bounding box")
        lats = np.concatenate([t.lats for t in non_empty])
        lons = np.concatenate([t.lons for t in non_empty])
        return BoundingBox.from_points(lats, lons)

    @property
    def time_span(self) -> Tuple[float, float]:
        """``(earliest, latest)`` timestamp across all users."""
        non_empty = [t for t in self if len(t) > 0]
        if not non_empty:
            raise ValueError("empty dataset has no time span")
        return (
            min(t.first.timestamp for t in non_empty),
            max(t.last.timestamp for t in non_empty),
        )

    def content_fingerprint(self) -> Tuple[int, int, Tuple[float, float], int]:
        """A content fingerprint strong enough to key cached result rows by.

        Shape alone (user/point counts, time span) is not enough — two
        datasets differing only in coordinates would alias — so a CRC over a
        sample of the coordinate arrays is included.  Computed once and
        cached on the dataset (datasets are value objects); store-backed
        datasets carry it pre-computed from their artifact header, so opening
        a world never re-hashes its points.  Raises ``ValueError`` on an
        empty dataset (which has no time span).
        """
        if self._fingerprint is None:
            self._fingerprint = self._compute_fingerprint()
        return self._fingerprint

    def _compute_fingerprint(self) -> Tuple[int, int, Tuple[float, float], int]:
        columnar = self.columnar()  # shared read-only views: no copies
        lats, lons = columnar.lats, columnar.lons
        stride = max(1, lats.size // 1024)
        checksum = zlib.crc32(lats[::stride].tobytes())
        checksum = zlib.crc32(lons[::stride].tobytes(), checksum)
        return (len(self), self.n_points, self.time_span, checksum)

    def all_coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated ``(lats, lons)`` arrays of every fix of every user.

        Returns fresh writable copies (the historical contract); read-only
        consumers should prefer :meth:`columnar`, which shares its arrays.
        """
        columnar = self.columnar()
        return columnar.lats.copy(), columnar.lons.copy()

    def columnar(self) -> ColumnarTraces:
        """The dataset flattened into parallel per-point arrays (cached).

        Datasets are value objects (never mutated after construction), so the
        columnar view is built once on first use and shared by every hot path
        — mix-zone detection, Wait-For-Me synchronization, fingerprinting.
        """
        if self._columnar is None:
            self._columnar = ColumnarTraces.from_trajectories(list(self))
        return self._columnar

    # -- transformations --------------------------------------------------------

    def map_trajectories(self, func) -> "MobilityDataset":
        """Apply ``func(trajectory) -> trajectory`` to each user independently."""
        return MobilityDataset(func(t) for t in self)

    def filter_users(self, predicate) -> "MobilityDataset":
        """Keep only the users for which ``predicate(trajectory)`` is true."""
        return MobilityDataset(t for t in self if predicate(t))

    def without_empty(self) -> "MobilityDataset":
        """Drop users whose trajectories have no fixes."""
        return self.filter_users(lambda t: len(t) > 0)

    def subset(self, user_ids: Iterable[str]) -> "MobilityDataset":
        """Dataset restricted to the given users (order follows ``user_ids``)."""
        return MobilityDataset(self[u] for u in user_ids)

    def relabel(self, mapping: Mapping[str, str]) -> "MobilityDataset":
        """Rename users according to ``mapping`` (identity for absent keys).

        The new labels must remain unique; this is the low-level primitive the
        mix-zone swapping engine builds on.
        """
        return MobilityDataset(
            t.with_user_id(mapping.get(t.user_id, t.user_id)) for t in self
        )

    def merge(self, other: "MobilityDataset") -> "MobilityDataset":
        """Union of two datasets with disjoint user identifiers."""
        return MobilityDataset(list(self) + list(other))

    def slice_time(self, start: float, end: float) -> "MobilityDataset":
        """Apply :meth:`Trajectory.slice_time` to every user."""
        return self.map_trajectories(lambda t: t.slice_time(start, end))
