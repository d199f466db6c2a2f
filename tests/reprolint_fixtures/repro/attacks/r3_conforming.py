"""R3 fixture: columnar batches, named oracle functions and their helpers."""

import numpy as np

from repro.geo.distance import haversine, haversine_array


def centroid(trajectory):
    return float(np.mean(trajectory.lats))  # whole-array op, no Python loop


def pairwise(trajectory, lat0, lon0):
    return haversine_array(trajectory.lats, trajectory.lons, lat0, lon0)


def _distance_reference(trajectory, lat0, lon0):
    # Name contains "reference": oracle scope, scalar loop allowed.
    out = []
    for i in range(len(trajectory.lats)):
        out.append(haversine(trajectory.lats[i], trajectory.lons[i], lat0, lon0))
    return out


def _accumulate(trajectory):
    # Private helper called only from oracle scope: inherits oracle scope.
    return [haversine(a, b, 0.0, 0.0) for a, b in zip(trajectory.lats, trajectory.lons)]


class Extractor:
    def extract(self, trajectory):
        return pairwise(trajectory, 0.0, 0.0)

    def extract_reference(self, trajectory):
        # The oracle is a named entry point beside the production method.
        return _accumulate(trajectory)
