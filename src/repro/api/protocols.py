"""Structural protocols of the pluggable evaluation API.

Three component kinds plug into the
:class:`~repro.experiments.engine.EvaluationEngine`; each is resolved from a
string spec through its registry (:mod:`repro.api.registry`):

* :class:`Mechanism` — transforms a dataset into a published
  :class:`~repro.api.result.PublicationResult`; every registered mechanism
  builds its own result, carrying whatever provenance it produced.
* :class:`Attack` — an adversary evaluated against a publication.  The
  engine-facing form returns *row columns*; raw attack algorithms
  (``PoiExtractor``, ``Reidentifier``, ...) are also registered for direct
  use but only evaluator attacks (``poi-retrieval``, ``reident``,
  ``tracking``, ``zone-census``) can sit on an experiment's attack axis.
* :class:`Metric` — a callable scoring ``(original, result)`` into row
  columns; pure-utility metrics only read ``result.dataset``, privacy
  metrics may read ``result.report``.

These are :class:`typing.Protocol` classes: anything with the right shape
conforms, no inheritance required.
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol, runtime_checkable

from ..core.trajectory import MobilityDataset
from .result import PublicationResult

__all__ = ["Mechanism", "Attack", "Metric", "EvaluationContext"]


class EvaluationContext(Protocol):
    """What the engine hands to an attack: the world and the cell's inputs."""

    world: object  # SyntheticWorld (ground truth provider)
    input_dataset: MobilityDataset
    seed: int


@runtime_checkable
class Mechanism(Protocol):
    """A publication mechanism under the unified API."""

    name: str

    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        """Return the published dataset with provenance; never mutates input."""
        ...


@runtime_checkable
class Attack(Protocol):
    """An engine-facing adversary producing result-row columns."""

    name: str

    def run(
        self, result: PublicationResult, context: Optional[EvaluationContext] = None
    ) -> Mapping[str, object]:
        """Attack ``result`` and return the columns to merge into the row."""
        ...


class Metric(Protocol):
    """A metric comparing the original data with a publication."""

    def __call__(
        self, original: MobilityDataset, result: PublicationResult
    ) -> Mapping[str, object]:
        ...
