"""R3 fixture: per-fix point-to-path loops in a metrics module."""

import numpy as np

from repro.geo.geometry import point_segment_distance_m, point_to_polyline_distance_m


def distortion(pxs, pys, oxs, oys):
    return np.array(
        [point_to_polyline_distance_m(float(x), float(y), oxs, oys) for x, y in zip(pxs, pys)]
    )


def first_segment_distances(pxs, pys, ax, ay, bx, by):
    out = []
    for x, y in zip(pxs, pys):
        out.append(point_segment_distance_m(x, y, ax, ay, bx, by))
    return out


def mean_latitude(trajectory):
    return sum(lat for lat in trajectory.lats) / len(trajectory)  # per-point comprehension
