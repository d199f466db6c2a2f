"""R3 fixture: point-by-point walks in a core (publication) module."""

from repro.geo.distance import haversine


def resample(trajectory, epsilon_m):
    out = [(trajectory.lats[0], trajectory.lons[0])]
    for lat, lon in zip(trajectory.lats, trajectory.lons):
        if haversine(out[-1][0], out[-1][1], lat, lon) >= epsilon_m:
            out.append((lat, lon))
    return out


def path_length(trajectory):
    lats, lons = trajectory.lats, trajectory.lons
    return sum(
        haversine(a, b, c, d)
        for a, b, c, d in zip(trajectory.lats[:-1], lons[:-1], lats[1:], lons[1:])
    )
