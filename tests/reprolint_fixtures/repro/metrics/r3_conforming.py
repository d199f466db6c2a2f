"""R3 fixture: a metrics module on the columnar kernel, with a named oracle."""

import numpy as np

from repro.geo.geometry import point_to_polyline_distance_m
from repro.geo.kernels import polyline_distances


def distortion(pxs, pys, oxs, oys):
    # One kernel call for every fix: no per-fix Python loop.
    return polyline_distances(
        pxs, pys, np.zeros(len(pxs), dtype=np.int64), oxs, oys, np.array([0, len(oxs)])
    )


def distortion_reference(pxs, pys, oxs, oys):
    # Name contains "reference": oracle scope, the scalar loop is allowed.
    return np.array(
        [point_to_polyline_distance_m(float(x), float(y), oxs, oys) for x, y in zip(pxs, pys)]
    )


def single_fix(px, py, oxs, oys):
    # A scalar call outside any loop is not a per-point path.
    return point_to_polyline_distance_m(px, py, oxs, oys)
