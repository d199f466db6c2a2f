"""Incremental stay-point extraction over per-user point streams.

The batch attack (:class:`~repro.attacks.poi_extraction.PoiExtractor`) scans
a finished trace with a two-pointer window.  Here the same scan runs *online*
as an appendable window: each user keeps only the fixes of the currently open
candidate stay, a new point is verified against the open window's anchor as
it arrives, and a stay is recorded the moment a violating point (or a
too-large sampling gap) closes the window — the window is then drained, so
memory is O(open window) per user plus the closed stays, never O(history).
``update_many(chunk)`` returns ``None``; the stream's one answer is
``finalize()``.

``finalize()`` drains the open windows and runs the batch extractor's own
merge pass, so its output is bitwise-identical to
``PoiExtractor.extract_dataset`` on the same data: the window arithmetic
below replays the scalar scan's float operations exactly (which the batch
vectorized kernel is in turn pinned against), and centroid emission uses the
same ``np.mean`` over the same values in the same order.

``update_many(chunk)`` appends each user's rows of a chunk at once and runs
the same scan over them, so any chunking of a stream leaves the same stays
and open windows.  The reach of every anchor of every user's window
(its first fix past a gap or outside the diameter) is resolved at once in
batched probe rounds, as the batch kernel
:func:`~repro.geo.kernels.windowed_stay_spans` does, each probe decided
bitwise as the scalar test by :func:`~repro.geo.kernels.haversine_above`;
the scan then steps only through the anchors that emit or stop it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..attacks.poi_extraction import ExtractedPoi, PoiExtractionConfig, PoiExtractor
from ..core.trajectory import MobilityDataset
from ..geo.distance import haversine, haversine_array
from ..geo.kernels import _STAY_SKIP_MARGIN_M, haversine_above
from .sources import ReplaySource, StreamChunk

__all__ = ["StreamingPoiExtractor", "replay_extract_staypoints"]


class _OpenWindow:
    """The currently open candidate stay of one user (parallel value lists)."""

    __slots__ = ("ts", "lats", "lons", "verified")

    def __init__(self) -> None:
        self.ts: List[float] = []
        self.lats: List[float] = []
        self.lons: List[float] = []
        #: Fixes after the anchor already verified against it (gap + extent),
        #: so an arrival only checks the new fixes — never a full rescan.
        self.verified: int = 0


class StreamingPoiExtractor:
    """Online stay-point extraction fed by ``update_many``.

    ``user_ids`` is the source's roster.  Stays are recorded unmerged as
    their windows close; :meth:`finalize` returns the per-user merged POIs
    of the whole stream, pinned bitwise-identical to the batch
    ``extract_dataset``.
    """

    def __init__(
        self,
        config: Optional[PoiExtractionConfig] = None,
        *,
        user_ids: Sequence[str],
    ) -> None:
        self.config = config or PoiExtractionConfig()
        self._batch = PoiExtractor(self.config)
        self._user_ids = tuple(user_ids)
        self._windows: Dict[str, _OpenWindow] = {u: _OpenWindow() for u in self._user_ids}
        self._stays: Dict[str, List[ExtractedPoi]] = {u: [] for u in self._user_ids}

    @property
    def open_points(self) -> int:
        """Fixes currently buffered across all open windows (resident state)."""
        return sum(len(w.ts) for w in self._windows.values())

    # -- online updates ---------------------------------------------------------

    def update_many(self, chunk: StreamChunk) -> None:
        """Feed a chunk; close every window its fixes resolve.

        Every user's window is extended by its rows at once; the reach of
        every anchor of every window (its first violating fix) comes from
        :func:`_window_reaches`, and the scan then visits only the anchors
        that emit a stay or stop it.
        """
        chunk.require_roster(self._user_ids)
        if len(chunk) == 0:
            return
        cfg = self.config
        users = []
        for user_id, rows in chunk.rows_by_user():
            window = self._windows[user_id]
            users.append((user_id, window))
            window.ts.extend(chunk.timestamps[rows].tolist())
            window.lats.extend(chunk.lats[rows].tolist())
            window.lons.extend(chunk.lons[rows].tolist())
        sizes = [len(window.ts) for _, window in users]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        ts = np.concatenate([window.ts for _, window in users])
        lats = np.concatenate([window.lats for _, window in users])
        lons = np.concatenate([window.lons for _, window in users])
        reach = _window_reaches(ts, lats, lons, offsets, cfg.max_diameter_m, cfg.max_gap_s)
        idx = np.arange(ts.size)
        end = np.repeat(offsets[1:], sizes)
        closed = reach < end
        last = ts[np.minimum(reach, end) - 1]
        visit = ~closed | ((last - ts >= cfg.min_duration_s) & (reach - idx >= 2))
        for (user_id, window), lo, hi in zip(users, offsets[:-1].tolist(), offsets[1:].tolist()):
            stops = np.flatnonzero(visit[lo:hi]).tolist()
            self._emit(user_id, window, reach[lo:hi] - lo, stops)

    def _emit(
        self, user_id: str, window: _OpenWindow, reach: np.ndarray, stops: List[int]
    ) -> None:
        """The two-pointer scan over one extended window, given every anchor's reach.

        Between two emissions the scan steps one anchor at a time without
        emitting, so it lands on the next anchor that emits a stay or has
        no violating fix yet (``stops``).
        """
        ts, lats, lons = window.ts, window.lats, window.lons
        n = len(ts)
        anchor, k = 0, 0
        while True:
            k = bisect_left(stops, anchor, k)
            stop = stops[k]
            cut = int(reach[stop])
            if cut >= n:
                window.verified = n - 1 - stop
                anchor = stop
                break
            stay = ExtractedPoi(
                user_id=user_id,
                lat=float(np.mean(np.asarray(lats[stop:cut]))),
                lon=float(np.mean(np.asarray(lons[stop:cut]))),
                t_start=float(ts[stop]),
                t_end=float(ts[cut - 1]),
                n_points=int(cut - stop),
            )
            self._stays[user_id].append(stay)
            anchor = cut
        del ts[:anchor], lats[:anchor], lons[:anchor]

    def finalize(self) -> Dict[str, List[ExtractedPoi]]:
        """Drain open windows; per-user merged POIs (batch-identical)."""
        for user_id, window in self._windows.items():
            self._resolve(user_id, window)
        return {
            user_id: self._batch._merge(stays)
            for user_id, stays in self._stays.items()
        }

    # -- the appendable-window scan ---------------------------------------------

    def _resolve(self, user_id: str, window: _OpenWindow) -> None:
        """Drain one open window at the end of the stream.

        Exactly the batch scan over the buffered fixes: extend ``j`` from the
        anchor while the gap and extent tests pass; when a fix violates, or
        the buffer ends, the window resolves — emit if it lasted long
        enough, then restart after it (or one past the anchor) and
        re-verify the surviving fixes against the new anchor.
        """
        cfg = self.config
        ts, lats, lons = window.ts, window.lats, window.lons
        while ts:
            n = len(ts)
            j = window.verified + 1
            cut = n
            while j < n:
                if ts[j] - ts[j - 1] > cfg.max_gap_s:
                    cut = j
                    break
                if haversine(lats[0], lons[0], lats[j], lons[j]) > cfg.max_diameter_m:
                    cut = j
                    break
                j += 1
            duration = ts[cut - 1] - ts[0]
            if duration >= cfg.min_duration_s and cut >= 2:
                stay = ExtractedPoi(
                    user_id=user_id,
                    lat=float(np.mean(np.asarray(lats[:cut]))),
                    lon=float(np.mean(np.asarray(lons[:cut]))),
                    t_start=float(ts[0]),
                    t_end=float(ts[cut - 1]),
                    n_points=int(cut),
                )
                self._stays[user_id].append(stay)
                drop = cut
            else:
                drop = 1
            del ts[:drop], lats[:drop], lons[:drop]
            window.verified = 0


def _window_reaches(
    ts: np.ndarray,
    lats: np.ndarray,
    lons: np.ndarray,
    offsets: np.ndarray,
    max_diameter_m: float,
    max_gap_s: float,
) -> np.ndarray:
    """Per anchor of several windows, its first violating fix (or its window's end).

    Window ``k`` holds ``[offsets[k], offsets[k + 1])``.  Fix ``j > a``
    violates anchor ``a`` when it follows a gap longer than ``max_gap_s`` or
    when ``haversine(anchor, j) > max_diameter_m``.  Reaches are resolved
    for every anchor at once in batched probe rounds, as in
    :func:`~repro.geo.kernels.windowed_stay_spans`: fixes whose travelled
    path from the anchor is shorter than the diameter are skipped as
    certified, and each probed fix is decided by
    :func:`~repro.geo.kernels.haversine_above`, bitwise the scalar test.
    """
    n = ts.size
    idx = np.arange(n, dtype=np.int64)
    end = np.repeat(offsets[1:], np.diff(offsets))
    # cap[a]: the first gap break after a, else its window's end.
    gap = np.flatnonzero(ts[1:] - ts[:-1] > max_gap_s) + 1
    nxt = np.searchsorted(gap, idx, side="right")
    cap = np.minimum(np.append(gap, n)[nxt], end)
    # Travelled path: cum[j] - cum[a] bounds the anchor distance within a
    # window (segments between windows cancel out of the difference).
    seg = haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    reach = cap.copy()
    probe = np.maximum(
        np.searchsorted(cum, cum + (max_diameter_m - _STAY_SKIP_MARGIN_M), side="left"), idx + 1
    )
    active = np.flatnonzero(probe < cap)
    probe = probe[active]
    while active.size:
        far = haversine_above(
            lats[active], lons[active], lats[probe], lons[probe], max_diameter_m
        )
        reach[active[far]] = probe[far]
        active, probe = active[~far], probe[~far]
        d = haversine_array(lats[active], lons[active], lats[probe], lons[probe])
        slack = (max_diameter_m - d) - _STAY_SKIP_MARGIN_M
        probe = np.maximum(probe + 1, np.searchsorted(cum, cum[probe] + slack, side="left"))
        alive = probe < cap[active]
        active, probe = active[alive], probe[alive]
    return reach


def replay_extract_staypoints(
    dataset: MobilityDataset, config: Optional[PoiExtractionConfig] = None
) -> Dict[str, List[ExtractedPoi]]:
    """Replay ``dataset`` through the streaming extractor (batch-identical)."""
    source = ReplaySource(dataset)
    extractor = StreamingPoiExtractor(config, user_ids=source.user_ids)
    for chunk in source.chunks():
        extractor.update_many(chunk)
    return extractor.finalize()
