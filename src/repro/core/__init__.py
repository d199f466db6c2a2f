"""Core data model and the paper's primary contribution (smoothing + pipeline)."""

from .pipeline import AnonymizationReport, Anonymizer, AnonymizerConfig
from .speed_smoothing import (
    SpeedSmoother,
    SpeedSmoothingConfig,
    smooth_dataset,
    smooth_trajectory,
    smooth_trajectory_naive,
)
from .trajectory import MobilityDataset, Point, Trajectory

__all__ = [
    "Point",
    "Trajectory",
    "MobilityDataset",
    "SpeedSmoother",
    "SpeedSmoothingConfig",
    "smooth_trajectory",
    "smooth_trajectory_naive",
    "smooth_dataset",
    "Anonymizer",
    "AnonymizerConfig",
    "AnonymizationReport",
]
