"""Incremental stay-point extraction over per-user point streams.

The batch attack (:class:`~repro.attacks.poi_extraction.PoiExtractor`) scans
a finished trace with a two-pointer window.  Here the same scan runs *online*
as an appendable window: each user keeps only the fixes of the currently open
candidate stay, a new point is verified against the open window's anchor as
it arrives, and a stay is emitted the moment a violating point (or a
too-large sampling gap) closes the window — memory is O(open window) per
user, never O(history).

``finalize()`` drains the open windows and runs the batch extractor's own
merge pass, so its output is bitwise-identical to
``PoiExtractor.extract_dataset`` on the same data: the window arithmetic
below replays the scalar scan's float operations exactly (which the batch
vectorized kernel is in turn pinned against), and centroid emission uses the
same ``np.mean`` over the same values in the same order.

``update_many(chunk)`` appends each user's rows of a chunk at once and runs
the same scan over them, testing each anchor's extent against the rest of
the buffer with one batched haversine (decided bitwise as the scalar test
by :func:`~repro.geo.kernels.haversine_above`).  A stay is credited to the
row whose arrival let the per-point scan reach its closing fix — the
furthest fix the scan has examined — so the events are exactly the
concatenated per-point ``update()`` events.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attacks.poi_extraction import ExtractedPoi, PoiExtractionConfig, PoiExtractor
from ..core.trajectory import MobilityDataset
from ..geo.distance import haversine
from ..geo.kernels import haversine_above
from .sources import ReplaySource, StreamChunk, StreamPoint

__all__ = ["StreamingPoiExtractor", "replay_extract_staypoints"]

#: Fixes an anchor tests one by one before batching the rest of its window:
#: a moving fix usually breaks the window at once.
_SCALAR_PROBES = 16


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
    """Online stay-point extraction with ``update(point) -> stays``.

    Stays are emitted unmerged as their windows close; :meth:`finalize`
    returns the per-user merged POIs of the whole stream, pinned
    bitwise-identical to the batch ``extract_dataset``.
    """

    def __init__(
        self,
        config: Optional[PoiExtractionConfig] = None,
        user_ids: Sequence[str] = (),
    ) -> None:
        self.config = config or PoiExtractionConfig()
        self._batch = PoiExtractor(self.config)
        self._windows: Dict[str, _OpenWindow] = {}
        self._stays: Dict[str, List[ExtractedPoi]] = {}
        for user_id in user_ids:
            self.register_user(user_id)

    def register_user(self, user_id: str) -> None:
        """Declare a user (streams may also introduce users via points)."""
        if user_id not in self._stays:
            self._stays[user_id] = []
            self._windows[user_id] = _OpenWindow()

    @property
    def open_points(self) -> int:
        """Fixes currently buffered across all open windows (resident state)."""
        return sum(len(w.ts) for w in self._windows.values())

    # -- online updates ---------------------------------------------------------

    def update(self, point: StreamPoint) -> List[ExtractedPoi]:
        """Append one fix; return the stays whose windows it closed."""
        self.register_user(point.user_id)
        window = self._windows[point.user_id]
        window.ts.append(point.timestamp)
        window.lats.append(point.lat)
        window.lons.append(point.lon)
        return self._resolve(point.user_id, window, final=False)

    def update_many(self, chunk: StreamChunk) -> List[ExtractedPoi]:
        """Feed a chunk; the concatenated stays of per-point ``update()``."""
        return [stay for _, stay in self._update_chunk(chunk)]

    def _update_chunk(self, chunk: StreamChunk) -> List[Tuple[int, ExtractedPoi]]:
        """``(arrival row, stay)`` for every stay the chunk closes, in order."""
        if len(chunk) == 0:
            return []
        for user_id in chunk.users_in_order():
            self.register_user(user_id)
        tagged: List[Tuple[int, ExtractedPoi]] = []
        for user_id, rows in chunk.rows_by_user():
            window = self._windows[user_id]
            tagged.extend(self._scan_appended(user_id, window, chunk, rows))
        tagged.sort(key=lambda item: item[0])
        return tagged

    def _scan_appended(
        self, user_id: str, window: _OpenWindow, chunk: StreamChunk, rows: np.ndarray
    ) -> List[Tuple[int, ExtractedPoi]]:
        """:meth:`_resolve` over a window extended by several fixes at once.

        ``seen`` tracks the furthest fix examined: in the per-point scan,
        whatever happens while that fix is the newest happens during its
        ``update()``.
        """
        cfg = self.config
        n_old = len(window.ts)
        window.ts.extend(chunk.timestamps[rows].tolist())
        window.lats.extend(chunk.lats[rows].tolist())
        window.lons.extend(chunk.lons[rows].tolist())
        ts, lats, lons = window.ts, window.lats, window.lons
        ts_arr, lat_arr, lon_arr = np.asarray(ts), np.asarray(lats), np.asarray(lons)
        n = len(ts)
        arrival = rows.tolist()
        out: List[Tuple[int, ExtractedPoi]] = []
        anchor, verified, seen = 0, window.verified, n_old - 1
        while anchor < n:
            j = anchor + verified + 1
            cut = -1
            probes = 0
            while j < n and probes < _SCALAR_PROBES:
                if ts[j] - ts[j - 1] > cfg.max_gap_s:
                    cut = j
                    break
                if haversine(lats[anchor], lons[anchor], lats[j], lons[j]) > cfg.max_diameter_m:
                    cut = j
                    break
                j += 1
                probes += 1
            block = _SCALAR_PROBES
            while cut < 0 and j < n:
                # Blocks grow 4x, so a long stay costs O(its length) in a
                # few calls and a short one never pays for the whole buffer.
                block *= 4
                hi = min(n, j + block)
                breaks = (ts_arr[j:hi] - ts_arr[j - 1 : hi - 1] > cfg.max_gap_s) | haversine_above(
                    lats[anchor], lons[anchor], lat_arr[j:hi], lon_arr[j:hi], cfg.max_diameter_m
                )
                first = int(np.argmax(breaks))
                if breaks[first]:
                    cut = j + first
                j = hi
            seen = max(seen, cut if cut >= 0 else n - 1)
            if cut < 0:
                verified = n - 1 - anchor
                break
            duration = ts[cut - 1] - ts[anchor]
            if duration >= cfg.min_duration_s and cut - anchor >= 2:
                stay = ExtractedPoi(
                    user_id=user_id,
                    lat=float(np.mean(np.asarray(lats[anchor:cut]))),
                    lon=float(np.mean(np.asarray(lons[anchor:cut]))),
                    t_start=float(ts[anchor]),
                    t_end=float(ts[cut - 1]),
                    n_points=int(cut - anchor),
                )
                self._stays[user_id].append(stay)
                out.append((arrival[seen - n_old], stay))
                anchor = cut
            else:
                anchor += 1
            verified = 0
        del ts[:anchor], lats[:anchor], lons[:anchor]
        window.verified = verified if ts else 0
        return out

    def finalize(self) -> Dict[str, List[ExtractedPoi]]:
        """Drain open windows; per-user merged POIs (batch-identical)."""
        for user_id, window in self._windows.items():
            self._resolve(user_id, window, final=True)
        return {
            user_id: self._batch._merge(stays)
            for user_id, stays in self._stays.items()
        }

    # -- the appendable-window scan ---------------------------------------------

    def _resolve(self, user_id: str, window: _OpenWindow, final: bool) -> List[ExtractedPoi]:
        """Advance the two-pointer scan as far as the buffered fixes allow.

        Exactly the batch scan with the trace cut at the buffer end: extend
        ``j`` from the anchor while the gap and extent tests pass; when a fix
        violates (or, on ``final``, the stream ends) the window resolves —
        emit if it lasted long enough, then restart after it (or one past the
        anchor) and re-verify the surviving fixes against the new anchor.
        """
        cfg = self.config
        ts, lats, lons = window.ts, window.lats, window.lons
        emitted: List[ExtractedPoi] = []
        while ts:
            n = len(ts)
            j = window.verified + 1
            cut = -1
            while j < n:
                if ts[j] - ts[j - 1] > cfg.max_gap_s:
                    cut = j
                    break
                if haversine(lats[0], lons[0], lats[j], lons[j]) > cfg.max_diameter_m:
                    cut = j
                    break
                j += 1
            if cut < 0:
                window.verified = n - 1
                if not final:
                    break
                cut = n  # end of stream: resolve the whole open window
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
                emitted.append(stay)
                drop = cut
            else:
                drop = 1
            del ts[:drop], lats[:drop], lons[:drop]
            window.verified = 0
        return emitted


def replay_extract_staypoints(
    dataset: MobilityDataset, config: Optional[PoiExtractionConfig] = None
) -> Dict[str, List[ExtractedPoi]]:
    """Replay ``dataset`` through the streaming extractor (batch-identical)."""
    source = ReplaySource(dataset)
    extractor = StreamingPoiExtractor(config, user_ids=source.user_ids)
    for chunk in source.chunks():
        extractor.update_many(chunk)
    return extractor.finalize()
