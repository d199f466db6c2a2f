"""Sequential composition of mechanisms (spec syntax ``a|b``).

:class:`ChainMechanism` feeds each stage's published dataset to the next and
composes the stages' provenance into one
:class:`~repro.api.result.PublicationResult`, so linkage truth survives
chaining.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core.trajectory import MobilityDataset
from .result import PublicationResult

__all__ = ["ChainMechanism"]


class ChainMechanism:
    """Apply mechanisms in sequence, composing their provenance.

    The published output of each stage feeds the next.  The result keeps the
    last report seen along the chain (the paper's pipeline is the only
    report producer), merges the announced properties in stage order, and
    composes per-stage pseudonym mappings so ``pseudonym_of`` always maps
    *final published labels* to *original user identifiers*.
    """

    name = "chain"

    def __init__(self, stages: Sequence[Any]) -> None:
        if not stages:
            raise ValueError("a chain needs at least one stage")
        self.stages: List[Any] = list(stages)

    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        result = PublicationResult(dataset, mechanism=self.name)
        mapping: Optional[Dict[str, str]] = None
        properties: Dict[str, object] = {}
        for stage in self.stages:
            stage_result = stage.publish(result.dataset)
            result.dataset = stage_result.dataset
            if stage_result.report is not None:
                result.report = stage_result.report
            properties.update(stage_result.properties)
            if stage_result.pseudonym_of:
                mapping = {
                    new_label: (
                        mapping.get(previous_label, previous_label)
                        if mapping is not None
                        else previous_label
                    )
                    for new_label, previous_label in stage_result.pseudonym_of.items()
                }
        result.pseudonym_of = mapping
        result.properties = properties
        return result

    def __repr__(self) -> str:
        return f"ChainMechanism({self.stages!r})"
