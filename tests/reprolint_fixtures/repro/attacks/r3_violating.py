"""R3 fixture: per-point loops and scalar distances in a hot-path module."""

from repro.geo.distance import haversine


def centroid(trajectory):
    total = 0.0
    for lat in trajectory.lats:  # per-point loop over a trajectory array
        total += lat
    return total / len(trajectory.lats)


def pairwise(trajectory, lat0, lon0):
    out = []
    for i in range(len(trajectory)):
        out.append(haversine(trajectory.lats[i], trajectory.lons[i], lat0, lon0))
    return out


def span_sum(trajectory):
    return sum(t for t in trajectory.timestamps)  # per-point comprehension


def _walk(trajectory):
    # Called only from a runtime branch on a setting: a branch is not oracle
    # scope, so the comprehension and its scalar haversine are both flagged.
    return [haversine(a, b, 0.0, 0.0) for a, b in zip(trajectory.lats, trajectory.lons)]


class Extractor:
    def __init__(self, engine):
        self.engine = engine

    def extract(self, trajectory):
        if self.engine == "reference":
            return _walk(trajectory)
        return centroid(trajectory)
