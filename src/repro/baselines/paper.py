"""The paper's mechanisms as registered publication mechanisms.

* ``smoothing`` — :class:`SpeedSmoothingMechanism`, the first mechanism
  alone (constant speed, Figure 1b);
* ``promesse`` — the full pipeline, smoothing plus mix-zone swapping
  (Figure 1c): the factory returns the :class:`~repro.core.pipeline.Anonymizer`
  itself, whose result carries the
  :class:`~repro.core.pipeline.AnonymizationReport` for provenance-based
  scoring.
"""

from __future__ import annotations

from typing import Optional

from ..api.registry import register_mechanism
from ..api.result import PublicationResult
from ..core.pipeline import Anonymizer, AnonymizerConfig
from ..core.speed_smoothing import SpeedSmoother, SpeedSmoothingConfig
from ..core.trajectory import MobilityDataset
from ..mixzones.detection import MixZoneDetectionConfig
from ..mixzones.swapping import SwapConfig, SwapPolicy
from .base import PublicationMechanism

__all__ = ["SpeedSmoothingMechanism"]


class SpeedSmoothingMechanism(PublicationMechanism):
    """The paper's constant-speed transformation, as a standalone mechanism."""

    name = "speed-smoothing"

    def __init__(self, config: Optional[SpeedSmoothingConfig] = None) -> None:
        self._smoother = SpeedSmoother(config)

    @property
    def config(self) -> SpeedSmoothingConfig:
        """The smoothing configuration in use."""
        return self._smoother.config

    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        return PublicationResult(
            self._smoother.smooth_dataset(dataset), mechanism=self.name
        )


# ---------------------------------------------------------------------------
# Registry factories (flat-parameter spec surface over the nested configs)
# ---------------------------------------------------------------------------


@register_mechanism("smoothing", aliases=("speed-smoothing",))
def _smoothing_mechanism(
    epsilon_m: float = 100.0,
    trim_start_m: float = 0.0,
    trim_end_m: float = 0.0,
    min_points: int = 2,
    session_gap_s: Optional[float] = 1800.0,
) -> SpeedSmoothingMechanism:
    """The paper's speed smoothing alone, e.g. ``smoothing:epsilon_m=200``."""
    return SpeedSmoothingMechanism(
        SpeedSmoothingConfig(
            epsilon_m=epsilon_m,
            trim_start_m=trim_start_m,
            trim_end_m=trim_end_m,
            min_points=min_points,
            session_gap_s=session_gap_s,
        )
    )


@register_mechanism("promesse", aliases=("paper-full", "pipeline"))
def _promesse_mechanism(
    epsilon_m: float = 100.0,
    zone_radius_m: float = 100.0,
    swap: str = "coin_flip",
    seed: Optional[int] = 0,
    pseudonymize: bool = True,
    time_tolerance_s: float = 1800.0,
) -> Anonymizer:
    """The full pipeline, e.g. ``promesse:zone_radius_m=200,swap=always``."""
    policy = SwapPolicy(str(swap).replace("-", "_"))
    return Anonymizer(
        AnonymizerConfig(
            smoothing=SpeedSmoothingConfig(epsilon_m=epsilon_m),
            detection=MixZoneDetectionConfig(radius_m=zone_radius_m),
            swapping=SwapConfig(
                policy=policy,
                pseudonymize=pseudonymize,
                time_tolerance_s=time_tolerance_s,
                seed=seed,
            ),
        )
    )
