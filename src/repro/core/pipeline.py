"""The full anonymization pipeline of the paper.

:class:`Anonymizer` chains the two mechanisms in the order described in
Section III and Figure 1:

1. **Speed smoothing** (:mod:`repro.core.speed_smoothing`): each trajectory is
   re-sampled to a constant distance and duration between points, which hides
   points of interest (Figure 1b).
2. **Mix-zone swapping** (:mod:`repro.mixzones`): natural crossings are
   detected *on the original data* (where the true co-locations are), the
   corresponding points are suppressed from the smoothed data, and user
   identifiers are shuffled inside each zone (Figure 1c).

:meth:`Anonymizer.publish` returns a
:class:`~repro.api.result.PublicationResult` whose ``report`` is an
:class:`AnonymizationReport` carrying every piece of provenance needed by the
evaluation: detected zones, swap records, suppression counts and ground-truth
segment ownership.  The registered ``promesse`` mechanism is an
:class:`Anonymizer`.

As stages, the pipeline is ``detect(input)`` and ``smooth(input)``, then
``swap``.  Detection and smoothing take no seed: an :class:`Anonymizer` is a
:class:`~repro.api.stages.SharedStages`, so when built with
``make_mechanism(spec, memo=...)`` it runs them through the memo, and every
mechanism built with the same memo reuses their outputs (``smoothing:`` runs
the same ``smooth`` stage).  The swap takes the seed and always runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..api.result import PublicationResult
from ..api.stages import SharedStages, Stage
from ..mixzones.detection import MixZoneDetectionConfig, MixZoneDetector
from ..mixzones.swapping import MixZoneSwapper, SwapConfig, SwapRecord, SwapResult
from ..mixzones.zones import MixZone
from .speed_smoothing import SpeedSmoother, SpeedSmoothingConfig
from .trajectory import MobilityDataset

__all__ = ["AnonymizerConfig", "AnonymizationReport", "Anonymizer"]


@dataclass(frozen=True)
class AnonymizerConfig:
    """Complete configuration of the publication pipeline.

    The three sub-configurations mirror the three stages.  Ablations use the
    registered mechanisms instead: ``smoothing:`` is speed smoothing alone,
    ``promesse:swap=never`` suppresses in-zone points but swaps no identifier.
    """

    smoothing: SpeedSmoothingConfig = field(default_factory=SpeedSmoothingConfig)
    detection: MixZoneDetectionConfig = field(default_factory=MixZoneDetectionConfig)
    swapping: SwapConfig = field(default_factory=SwapConfig)


@dataclass
class AnonymizationReport:
    """Provenance and statistics of one pipeline run."""

    input_users: int
    input_points: int
    published_users: int
    published_points: int
    zones: List[MixZone] = field(default_factory=list)
    swap_records: List[SwapRecord] = field(default_factory=list)
    suppressed_points: int = 0
    pseudonym_of: Dict[str, str] = field(default_factory=dict)
    segment_ownership: Dict[str, List[Tuple[float, float, str]]] = field(default_factory=dict)

    @property
    def n_zones(self) -> int:
        """Number of natural mix-zones used by the run."""
        return len(self.zones)

    @property
    def n_swaps(self) -> int:
        """Number of zones where at least one identifier actually changed hands."""
        return sum(1 for r in self.swap_records if r.swapped)

    @property
    def point_retention(self) -> float:
        """Fraction of published points relative to the input (utility indicator)."""
        if self.input_points == 0:
            return 0.0
        return self.published_points / self.input_points

    def summary(self) -> str:
        """A short human-readable summary, used by the examples."""
        return (
            f"{self.input_users} users / {self.input_points} points in -> "
            f"{self.published_users} users / {self.published_points} points out "
            f"({self.point_retention:.1%} retained), "
            f"{self.n_zones} mix-zones, {self.n_swaps} swaps, "
            f"{self.suppressed_points} points suppressed in zones"
        )


class Anonymizer(SharedStages):
    """End-to-end privacy-preserving publication of a mobility dataset.

    Detection and smoothing take no seed, so they go through the bound
    :class:`~repro.api.stages.StageMemo` when there is one; the seeded swap
    always runs.
    """

    name = "promesse"

    def __init__(self, config: Optional[AnonymizerConfig] = None) -> None:
        self.config = config or AnonymizerConfig()
        self._smoother = SpeedSmoother(self.config.smoothing)
        self._detector = MixZoneDetector(self.config.detection)
        self._swapper = MixZoneSwapper(self.config.swapping)

    def input_stages(self) -> Tuple[Stage, ...]:
        return (("detect", self.config.detection), ("smooth", self.config.smoothing))

    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        """Anonymize ``dataset``; the result's ``report`` holds the provenance.

        The original dataset is never modified.
        """
        # Zones are detected on the *original* data: real co-locations are
        # defined by where users actually were, not by the smoothed points.
        config = self.config
        zones: List[MixZone] = self._stage(
            "detect", config.detection, dataset, lambda: self._detector.detect(dataset)
        )
        smoothed = self._stage(
            "smooth", config.smoothing, dataset, lambda: self._smoother.smooth_dataset(dataset)
        )
        swap_result: SwapResult = self._swapper.apply(smoothed, zones)
        published = swap_result.dataset
        report = AnonymizationReport(
            input_users=len(dataset),
            input_points=dataset.n_points,
            published_users=len(published),
            published_points=published.n_points,
            zones=list(zones),
            swap_records=swap_result.records,
            suppressed_points=swap_result.suppressed_points,
            pseudonym_of=swap_result.pseudonym_of,
            segment_ownership=swap_result.segment_ownership,
        )
        return PublicationResult(published, mechanism=self.name, report=report)
