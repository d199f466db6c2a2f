"""R6 fixture: update() paths that rescan grown-but-never-pruned buffers."""


class HistoryScanner:
    """Appends every point and rescans the lot on each arrival."""

    def __init__(self):
        self._history = []
        self._by_user = {}

    def update(self, point):
        self._history.append(point)
        hits = [p for p in self._history if p.user_id == point.user_id]  # rescans all
        self._index(point)
        return hits

    def _index(self, point):
        self._by_user.setdefault(point.user_id, []).append(point)
        for user_id, points in self._by_user.items():  # walks every user's history
            if len(points) > 10_000:
                raise RuntimeError(user_id)

    def finalize(self):
        return list(self._history)


class AliasedScanner:
    """The same rescan hidden behind a local alias and a sorted() wrapper."""

    def __init__(self):
        self._events = []

    def update(self, point):
        self._events.append(point)
        events = self._events
        for event in sorted(events, key=lambda e: e.timestamp):  # full-history sort
            if event.timestamp > point.timestamp:
                return event
        return None


class ChunkScanner:
    """The chunked entry point rescans the history it keeps growing."""

    def __init__(self):
        self._seen = []

    def update_many(self, chunk):
        self._seen.extend(chunk)
        return self._match(chunk)

    def _match(self, chunk):
        return [p for p in self._seen if p.user_id in chunk]  # rescans all
