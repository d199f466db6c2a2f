"""R3 fixture: a sequential emission loop in a core module, waived at the call."""

from repro.geo.distance import haversine


def fractions(cur_lats, cur_lons, lats, lons, epsilon_m):
    exact = [
        haversine(a, b, c, d)  # repro: allow=R3 -- each fraction needs the walk's exact distance
        for a, b, c, d in zip(cur_lats, cur_lons, lats, lons)
    ]
    return [epsilon_m / d for d in exact if d >= epsilon_m]
