"""The publication result: dataset plus provenance.

Every mechanism's ``publish()`` returns one :class:`PublicationResult`,
which carries the published data *and* whatever provenance the mechanism
produced.  Downstream consumers (attack evaluators, metrics, the evaluation
engine) read the provenance they need instead of reaching into
mechanism-specific attributes:

* ``report`` — the pipeline's :class:`~repro.core.pipeline.AnonymizationReport`
  (zones, swap records, segment ownership) when the mechanism produced one;
* ``pseudonym_of`` — the published-label -> original-user mapping for
  relabeling mechanisms;
* ``properties`` — parameters the mechanism *publicly announces* (e.g. the
  Geo-Indistinguishability ``epsilon``), which adaptive attackers may use;
* ``identity_truth()`` — the ground-truth label mapping linkage attacks are
  scored against, derived from whichever provenance is present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from ..core.trajectory import MobilityDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import AnonymizationReport

__all__ = ["PublicationResult"]


@dataclass
class PublicationResult:
    """The published dataset together with its provenance."""

    dataset: MobilityDataset
    mechanism: str = "mechanism"
    report: Optional["AnonymizationReport"] = None
    pseudonym_of: Optional[Mapping[str, str]] = None
    properties: Mapping[str, object] = field(default_factory=dict)

    def identity_truth(self) -> Dict[str, str]:
        """Published label -> physical user, from the best available provenance.

        Priority order: segment ownership from a pipeline report (majority
        owner by time share, the right truth for swapped traces), then a
        recorded pseudonym mapping, then the identity mapping (mechanisms
        that keep user identifiers untouched).
        """
        if self.report is not None and self.report.segment_ownership:
            from ..metrics.privacy import majority_owner

            truth: Dict[str, str] = {}
            for label, segments in self.report.segment_ownership.items():
                owner = majority_owner(segments)
                if owner is not None:
                    truth[label] = owner
            return truth
        if self.pseudonym_of:
            return dict(self.pseudonym_of)
        return {user_id: user_id for user_id in self.dataset.user_ids}

    def summary(self) -> str:
        """One line for logs and examples."""
        text = (
            f"{self.mechanism}: {len(self.dataset)} users / "
            f"{self.dataset.n_points} points"
        )
        if self.report is not None:
            text += (
                f", {self.report.n_zones} mix-zones, {self.report.n_swaps} swaps,"
                f" {self.report.suppressed_points} points suppressed"
            )
        return text
