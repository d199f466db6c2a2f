"""R6 fixture: incremental consumers that stay O(window) per update()."""

from collections import deque


class WindowScanner:
    """Prunes a deque before scanning it — a genuine sliding window."""

    def __init__(self, horizon_s):
        self.horizon_s = horizon_s
        self._window = deque()

    def update(self, point):
        while self._window and self._window[0].timestamp < point.timestamp - self.horizon_s:
            self._window.popleft()
        hits = [p for p in self._window if p.user_id != point.user_id]
        self._window.append(point)
        return hits


class BucketProber:
    """Grows an append-only grid but probes one bucket, never the history."""

    def __init__(self):
        self._grid = {}
        self._seen = []

    def update(self, point):
        cell = (int(point.lat * 100), int(point.lon * 100))
        self._seen.append(point)
        self._grid.setdefault(cell, []).append(point)
        return list(self._grid.get(cell, ()))  # bucket access: not a rescan

    def finalize(self):
        # finalize() runs once per stream — folding all state here is legal.
        return [p for p in self._seen]


class ChunkWindow:
    """A chunked consumer that evicts its window before joining a chunk to it."""

    def __init__(self, horizon_s):
        self.horizon_s = horizon_s
        self._window = deque()

    def update_many(self, chunk):
        floor = chunk[-1].timestamp - self.horizon_s
        while self._window and self._window[0].timestamp < floor:
            self._window.popleft()
        hits = [(p, q) for q in chunk for p in self._window if p.user_id != q.user_id]
        self._window.extend(chunk)
        return hits
