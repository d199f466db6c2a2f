"""R3 fixture: a short scalar loop in a metrics module, waived at the def line."""

from repro.geo.distance import haversine


def matched(truths, found, radius_m):  # repro: allow=R3 -- tens of POIs per user
    return sum(
        1 for (lat, lon) in truths if any(haversine(lat, lon, a, b) <= radius_m for a, b in found)
    )
