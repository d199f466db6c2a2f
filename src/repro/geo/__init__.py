"""Geodesy, planar projection, geometry and spatial indexing substrate."""

from .distance import (
    EARTH_RADIUS_METERS,
    destination_point,
    equirectangular,
    equirectangular_array,
    haversine,
    haversine_array,
    initial_bearing,
    meters_per_degree,
    pairwise_haversine,
)
from .geometry import (
    BoundingBox,
    interpolate_position,
    point_segment_distance_m,
    point_to_polyline_distance_m,
)
from .grid import CellIndex, Grid
from .kernels import (
    ColumnarTraces,
    SyncedDistances,
    colocation_events,
    connected_components,
    iter_neighbor_pairs,
    spatial_time_bins,
)
from .polyline import (
    cumulative_distances,
    path_length,
    position_at_distance,
    resample_at_distances,
    resample_by_distance,
)
from .projection import LocalProjection

__all__ = [
    "EARTH_RADIUS_METERS",
    "haversine",
    "haversine_array",
    "equirectangular",
    "equirectangular_array",
    "pairwise_haversine",
    "destination_point",
    "initial_bearing",
    "meters_per_degree",
    "BoundingBox",
    "interpolate_position",
    "point_segment_distance_m",
    "point_to_polyline_distance_m",
    "Grid",
    "CellIndex",
    "ColumnarTraces",
    "SyncedDistances",
    "spatial_time_bins",
    "iter_neighbor_pairs",
    "colocation_events",
    "connected_components",
    "cumulative_distances",
    "path_length",
    "position_at_distance",
    "resample_at_distances",
    "resample_by_distance",
    "LocalProjection",
]
