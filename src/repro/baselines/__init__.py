"""Baseline publication mechanisms compared against the paper's solution."""

from .base import PublicationMechanism
from .geo_indistinguishability import (
    GeoIndConfig,
    GeoIndistinguishabilityMechanism,
    planar_laplace_noise,
)
from .paper import SpeedSmoothingMechanism
from .trivial import DownsamplingMechanism, IdentityMechanism, PseudonymizationMechanism
from .wait4me import Wait4MeConfig, Wait4MeMechanism

__all__ = [
    "PublicationMechanism",
    "GeoIndConfig",
    "GeoIndistinguishabilityMechanism",
    "planar_laplace_noise",
    "Wait4MeConfig",
    "Wait4MeMechanism",
    "IdentityMechanism",
    "DownsamplingMechanism",
    "PseudonymizationMechanism",
    "SpeedSmoothingMechanism",
]
