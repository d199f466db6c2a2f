"""R3 fixture: a core module on batched distances, with a named oracle."""

import numpy as np

from repro.geo.distance import haversine, haversine_array


def path_length(lats, lons):
    # One batched call for every segment: no per-point Python loop.
    return float(np.sum(haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])))


def resample_reference(trajectory, epsilon_m):
    # Name contains "reference": oracle scope, the scalar walk is allowed.
    return _walk(trajectory, epsilon_m)


def _walk(trajectory, epsilon_m):
    # Private and reached only from the oracle: oracle scope too.
    out = [(trajectory.lats[0], trajectory.lons[0])]
    for lat, lon in zip(trajectory.lats, trajectory.lons):
        if haversine(out[-1][0], out[-1][1], lat, lon) >= epsilon_m:
            out.append((lat, lon))
    return out
