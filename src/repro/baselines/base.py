"""Common interface of publication mechanisms.

Every protection mechanism evaluated in the reproduction — the paper's
pipeline, Geo-Indistinguishability, Wait-For-Me, and the trivial anchors —
exposes the same minimal interface: ``publish(dataset)`` returns a
:class:`~repro.api.result.PublicationResult` holding the published dataset
and whatever provenance the mechanism produced (a pipeline report, a
pseudonym mapping, publicly announced parameters).  The experiment harness
only relies on this interface, so adding a new mechanism to the comparison
means implementing a single method.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..api.result import PublicationResult
from ..core.trajectory import MobilityDataset

__all__ = ["PublicationMechanism"]


class PublicationMechanism(ABC):
    """A mechanism that turns a raw dataset into a publishable one."""

    #: Short machine-friendly identifier used in experiment tables.
    name: str = "mechanism"

    @abstractmethod
    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        """Return the publication with its provenance; the input is never modified."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
