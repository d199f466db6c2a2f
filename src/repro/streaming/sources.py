"""The stream source of the online tier: a dataset replayed as column chunks.

:class:`ReplaySource` replays any :class:`~repro.core.trajectory.
MobilityDataset` — including a memmapped ``WorldStore``-backed one — as one
interleaved per-user stream of :class:`StreamChunk` column arrays,
consecutive runs of at most about :data:`CHUNK_POINTS` points.  Resident
state is the chunk plus one cursor per user (O(users)), never a sorted copy
of the point arrays, so replay of an out-of-core world stays out of core.

The chunks concatenate to the order a stable sort of the flattened
(columnar) timestamps produces — by timestamp first, then by user index,
then by the point's position within its user — the batch engine's order.
The streaming attacks rely on this when they pin their ``finalize()``
output bitwise-identical to the batch attacks.  Every consumer takes the
chunks through ``update_many(chunk)``, and is built on the source's roster
``user_ids``, which every chunk carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..core.trajectory import MobilityDataset

__all__ = ["CHUNK_POINTS", "StreamChunk", "ReplaySource"]

#: Target length of the chunks ``chunks()`` yields.  Large enough that the
#: per-chunk numpy calls amortise, small enough that a chunk's pair joins
#: stay a few MB.  A chunk may exceed it only by fixes sharing one timestamp.
CHUNK_POINTS = 4096

#: Cap on the horizon search rounds of one replay chunk.
_HORIZON_ROUNDS = 24


@dataclass(frozen=True, eq=False)
class StreamChunk:
    """A run of consecutive stream points as parallel column arrays.

    ``user_ids`` is the source's roster: ``user_ids[user_index[i]]`` owns
    row ``i`` and ``pos[i]`` is its chronological position within that user
    — together the streaming equivalent of the batch engine's flat columnar
    index ``offsets[user_index] + pos``.
    """

    user_ids: Tuple[str, ...]
    user_index: np.ndarray
    pos: np.ndarray
    timestamps: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def require_roster(self, user_ids: Tuple[str, ...]) -> None:
        """Raise ``ValueError`` unless ``user_ids`` is this chunk's roster."""
        if self.user_ids != user_ids:
            raise ValueError(
                "the chunk's roster is not the consumer's user_ids; build the "
                "consumer with user_ids=source.user_ids"
            )

    def rows_by_user(self) -> Iterator[Tuple[str, np.ndarray]]:
        """``(user_id, rows)`` per user in the chunk, rows ascending."""
        order = np.argsort(self.user_index, kind="stable")
        keys, starts = np.unique(self.user_index[order], return_index=True)
        bounds = np.append(starts, order.size)
        for k, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            yield self.user_ids[int(keys[k])], order[lo:hi]


class ReplaySource:
    """Replay a dataset's points in global timestamp order, chunk by chunk."""

    def __init__(self, dataset: MobilityDataset) -> None:
        self._traces = dataset.columnar()
        self._user_ids: Tuple[str, ...] = tuple(self._traces.user_ids)

    @property
    def user_ids(self) -> Tuple[str, ...]:
        """Every user of the stream, in canonical order (the roster)."""
        return self._user_ids

    @property
    def n_points(self) -> int:
        return int(self._traces.offsets[-1])

    def chunks(self) -> Iterator[StreamChunk]:
        """The stream as column chunks, without an O(points) index.

        Each chunk takes, per user, every remaining fix up to a time
        *horizon* (one ``searchsorted`` per user), then orders them with one
        stable sort of their timestamps over the user-major concatenation —
        ties stay in ``(user_index, pos)`` order.  Every fix left behind is
        later than the horizon, so consecutive chunks concatenate to the
        stable sort of the flattened timestamps.  Resident state is the
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
