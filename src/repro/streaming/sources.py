"""Stream sources: where points come from in the online tier.

A :class:`StreamSource` delivers a dataset as one interleaved per-user point
stream in non-decreasing timestamp order.  Two sources are provided:

* :class:`ReplaySource` replays any :class:`~repro.core.trajectory.
  MobilityDataset` — including a memmapped ``WorldStore``-backed one — by
  k-way-merging the per-user chronological slices of its columnar view.
  Resident state is one cursor per user (O(users)), never a sorted copy of
  the point arrays, so replay of an out-of-core world stays out of core.
* :class:`LiveSource` synthesises an endless-capable stream of random
  walkers with stationary dwell periods from one seed — the workload of
  ``benchmarks/bench_stream.py`` and of soak tests that never materialise a
  dataset at all.

Ties are ordered exactly like the batch engine's flattened (columnar) view:
by timestamp first, then by user index, then by the point's position within
its user — the order a stable sort of the flattened timestamps produces.
The streaming attacks rely on this when they pin their ``finalize()`` output
bitwise-identical to the batch attacks.

Both sources also deliver the same stream as :class:`StreamChunk` column
arrays through ``chunks()`` — consecutive runs of at most about
:data:`CHUNK_POINTS` points, concatenating to exactly the ``__iter__``
order.  Every consumer's ``update_many(chunk)`` takes them, and the
``replay_*`` helpers (hence the engine's ``mode="stream"``) replay this way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..core.trajectory import MobilityDataset

__all__ = [
    "CHUNK_POINTS",
    "StreamChunk",
    "StreamPoint",
    "StreamSource",
    "ReplaySource",
    "LiveSource",
]

#: Target length of the chunks ``chunks()`` yields.  Large enough that the
#: per-chunk numpy calls amortise, small enough that a chunk's pair joins
#: stay a few MB.  A chunk may exceed it only by fixes sharing one timestamp.
CHUNK_POINTS = 4096

#: Cap on the horizon search rounds of one replay chunk.
_HORIZON_ROUNDS = 24


@dataclass(frozen=True)
class StreamPoint:
    """One fix arriving on the stream.

    ``user_index`` is the user's position in the source's ``user_ids`` and
    ``pos`` the point's chronological position within that user — together
    they are the streaming equivalent of the batch engine's flat columnar
    index ``offsets[user_index] + pos``.
    """

    user_id: str
    user_index: int
    pos: int
    timestamp: float
    lat: float
    lon: float


@dataclass(frozen=True, eq=False)
class StreamChunk:
    """A run of consecutive stream points as parallel column arrays.

    Row ``i`` is the point a per-point iteration would yield at that place:
    ``user_ids[user_index[i]]`` owns it and ``pos[i]`` is its position
    within that user.  ``user_ids`` is the source's roster.
    """

    user_ids: Tuple[str, ...]
    user_index: np.ndarray
    pos: np.ndarray
    timestamps: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @classmethod
    def from_points(
        cls, points: Sequence[StreamPoint], user_ids: Sequence[str]
    ) -> "StreamChunk":
        """The chunk holding ``points`` in order (``user_ids`` is the roster)."""
        return cls(
            user_ids=tuple(user_ids),
            user_index=np.array([p.user_index for p in points], dtype=np.int64),
            pos=np.array([p.pos for p in points], dtype=np.int64),
            timestamps=np.array([p.timestamp for p in points], dtype=float),
            lats=np.array([p.lat for p in points], dtype=float),
            lons=np.array([p.lon for p in points], dtype=float),
        )

    def users_in_order(self) -> List[str]:
        """The chunk's users, in order of first appearance."""
        keys, first = np.unique(self.user_index, return_index=True)
        return [self.user_ids[k] for k in keys[np.argsort(first)].tolist()]

    def rows_by_user(self) -> Iterator[Tuple[str, np.ndarray]]:
        """``(user_id, rows)`` per user in the chunk, rows ascending."""
        order = np.argsort(self.user_index, kind="stable")
        keys, starts = np.unique(self.user_index[order], return_index=True)
        bounds = np.append(starts, order.size)
        for k, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            yield self.user_ids[int(keys[k])], order[lo:hi]


class StreamSource(Protocol):
    """A finite or endless point stream in non-decreasing timestamp order."""

    @property
    def user_ids(self) -> Tuple[str, ...]:
        """Every user that may appear on the stream, in canonical order."""
        ...

    def __iter__(self) -> Iterator[StreamPoint]:
        ...

    def chunks(self) -> Iterator[StreamChunk]:
        """The same stream as consecutive :class:`StreamChunk` runs."""
        ...


class ReplaySource:
    """Replay a dataset's points in global timestamp order.

    The per-user slices of the columnar view are already chronological, so a
    k-way heap merge keyed ``(timestamp, user_index, pos)`` yields exactly
    the order a stable sort of the flattened timestamps would — with one
    heap entry per user of resident state instead of an O(points) index
    array, which keeps replay of memmapped worlds bounded-memory.
    """

    def __init__(self, dataset: MobilityDataset) -> None:
        self._traces = dataset.columnar()
        self._user_ids: Tuple[str, ...] = tuple(self._traces.user_ids)

    @property
    def user_ids(self) -> Tuple[str, ...]:
        return self._user_ids

    @property
    def n_points(self) -> int:
        return int(self._traces.offsets[-1])

    def __iter__(self) -> Iterator[StreamPoint]:
        traces = self._traces
        ts, lats, lons = traces.timestamps, traces.lats, traces.lons
        offsets = traces.offsets
        heap: List[Tuple[float, int, int]] = []
        for k in range(len(self._user_ids)):
            if offsets[k + 1] > offsets[k]:
                heap.append((float(ts[offsets[k]]), k, 0))
        heapq.heapify(heap)
        while heap:
            timestamp, k, pos = heapq.heappop(heap)
            flat = int(offsets[k]) + pos
            yield StreamPoint(
                user_id=self._user_ids[k],
                user_index=k,
                pos=pos,
                timestamp=timestamp,
                lat=float(lats[flat]),
                lon=float(lons[flat]),
            )
            nxt = flat + 1
            if nxt < int(offsets[k + 1]):
                heapq.heappush(heap, (float(ts[nxt]), k, pos + 1))

    def chunks(self) -> Iterator[StreamChunk]:
        """The heap order as column chunks, without an O(points) index.

        Each chunk takes, per user, every remaining fix up to a time
        *horizon* (one ``searchsorted`` per user), then orders them with one
        stable sort of their timestamps over the user-major concatenation —
        ties stay in ``(user_index, pos)`` order, exactly the heap's key.
        Every fix left behind is later than the horizon, so consecutive
        chunks concatenate to the ``__iter__`` order.  Resident state is the
        chunk plus one cursor per user.
        """
        traces = self._traces
        ts, offsets = traces.timestamps, traces.offsets
        cursor = offsets[:-1].copy()
        end = offsets[1:]
        while True:
            live = np.flatnonzero(cursor < end)
            if not live.size:
                return
            start = cursor[live]
            count = self._horizon_stops(ts, start, end[live]) - start
            flat = np.concatenate(
                [np.arange(lo, lo + c) for lo, c in zip(start.tolist(), count.tolist())]
            )
            order = np.argsort(ts[flat], kind="stable")
            flat = flat[order]
            users = np.repeat(live, count)[order]
            yield StreamChunk(
                user_ids=self._user_ids,
                user_index=users,
                pos=flat - offsets[users],
                timestamps=np.asarray(ts[flat], dtype=float),
                lats=np.asarray(traces.lats[flat], dtype=float),
                lons=np.asarray(traces.lons[flat], dtype=float),
            )
            cursor[live] += count

    @staticmethod
    def _horizon_stops(ts: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Per-user stop indices of the next chunk: every fix up to a horizon.

        The first horizon is the earliest ``m``-th next timestamp over the
        users, with ``m`` an even share of :data:`CHUNK_POINTS` — no user
        contributes more than ``m`` fixes (plus ties at the horizon), so it
        always fits.  The horizon then grows, doubling ``m`` and bisecting
        once it overshoots, while the chunk stays within
        :data:`CHUNK_POINTS`; a handful of rounds lands it at half full or
        more.
        """

        def stops_at(horizon: float) -> np.ndarray:
            return np.array(
                [
                    lo + int(np.searchsorted(ts[lo:hi], horizon, side="right"))
                    for lo, hi in zip(start.tolist(), end.tolist())
                ],
                dtype=np.int64,
            )

        share = max(1, CHUNK_POINTS // start.size)
        fit = float(ts[np.minimum(start + share, end) - 1].min())
        best = stops_at(fit)
        over: Optional[float] = None
        for _ in range(_HORIZON_ROUNDS):
            total = int((best - start).sum())
            if 2 * total >= CHUNK_POINTS or bool((best == end).all()):
                break
            if over is None:
                # Users the horizon already drains no longer bound it.
                share *= 2
                open_ = best < end
                probe = float(
                    ts[np.minimum(start[open_] + share, end[open_]) - 1].min()
                )
                if probe <= fit:
                    continue
            else:
                probe = fit + (over - fit) / 2.0
                if not fit < probe < over:
                    break
            stops = stops_at(probe)
            if int((stops - start).sum()) > CHUNK_POINTS:
                over = probe
            else:
                fit, best = probe, stops
        return best


class LiveSource:
    """A seeded synthetic live stream: random walkers with dwell periods.

    Each user alternates between *dwelling* (small jitter around a fixed
    anchor, which stay-point and DJ-Cluster attacks should detect) and
    *moving* (a directed random walk), reporting every ``interval_s``
    seconds.  All randomness comes from one ``numpy`` generator seeded at
    construction, so a given ``(seed, n_users, n_points)`` triple always
    produces the same stream.
    """

    def __init__(
        self,
        n_users: int = 8,
        n_points: int = 1000,
        seed: int = 0,
        interval_s: float = 30.0,
        center_lat: float = 45.76,
        center_lon: float = 4.84,
    ) -> None:
        if n_users < 1:
            raise ValueError("n_users must be at least 1")
        if n_points < 0:
            raise ValueError("n_points must be non-negative")
        self.n_users = n_users
        self.n_points = n_points
        self.seed = seed
        self.interval_s = interval_s
        self.center_lat = center_lat
        self.center_lon = center_lon
        self._user_ids = tuple(f"live-{i:03d}" for i in range(n_users))

    @property
    def user_ids(self) -> Tuple[str, ...]:
        return self._user_ids

    def __iter__(self) -> Iterator[StreamPoint]:
        rng = np.random.default_rng(self.seed)
        lat = self.center_lat + rng.uniform(-0.02, 0.02, self.n_users)
        lon = self.center_lon + rng.uniform(-0.02, 0.02, self.n_users)
        # Remaining points of the current dwell (0 = currently moving).
        dwell = rng.integers(0, 40, self.n_users)
        heading = rng.uniform(0.0, 2.0 * np.pi, self.n_users)
        pos = [0] * self.n_users
        emitted = 0
        t = 0.0
        while emitted < self.n_points:
            for k in range(self.n_users):
                if emitted >= self.n_points:
                    break
                if dwell[k] > 0:
                    dwell[k] -= 1
                    jitter = rng.normal(0.0, 2e-5, 2)
                    point_lat, point_lon = lat[k] + jitter[0], lon[k] + jitter[1]
                else:
                    heading[k] += rng.normal(0.0, 0.3)
                    step = rng.uniform(1e-4, 4e-4)
                    lat[k] += step * np.sin(heading[k])
                    lon[k] += step * np.cos(heading[k])
                    point_lat, point_lon = lat[k], lon[k]
                    if rng.uniform() < 0.05:
                        dwell[k] = rng.integers(20, 60)
                yield StreamPoint(
                    user_id=self._user_ids[k],
                    user_index=k,
                    pos=pos[k],
                    timestamp=t + k * 1e-3,
                    lat=float(point_lat),
                    lon=float(point_lon),
                )
                pos[k] += 1
                emitted += 1
            t += self.interval_s

    def chunks(self) -> Iterator[StreamChunk]:
        """The synthetic stream in runs of :data:`CHUNK_POINTS` points."""
        batch: List[StreamPoint] = []
        for point in self:
            batch.append(point)
            if len(batch) == CHUNK_POINTS:
                yield StreamChunk.from_points(batch, self._user_ids)
                batch = []
        if batch:
            yield StreamChunk.from_points(batch, self._user_ids)
