"""Trivial publication mechanisms used as experiment anchors.

Neither mechanism here offers real protection; they bound the comparison:

* :class:`IdentityMechanism` publishes the raw data unchanged — the utility
  ceiling and the privacy floor of every experiment.
* :class:`DownsamplingMechanism` keeps one fix out of ``factor`` — the naive
  "publish less" strategy sometimes proposed as a privacy measure, which the
  POI attack defeats easily because stops are long relative to any realistic
  sampling interval.
* :class:`PseudonymizationMechanism` replaces user identifiers with fresh
  pseudonyms but leaves locations untouched — the anonymization practice the
  paper's introduction calls "simple anonymization techniques [that] might
  lead to severe privacy threats".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..api.registry import register_mechanism
from ..api.result import PublicationResult
from ..core.trajectory import MobilityDataset
from .base import PublicationMechanism

__all__ = ["IdentityMechanism", "DownsamplingMechanism", "PseudonymizationMechanism"]


@register_mechanism("identity", aliases=("raw",))
class IdentityMechanism(PublicationMechanism):
    """Publish the dataset unchanged (no protection)."""

    name = "identity"

    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        return PublicationResult(dataset, mechanism=self.name)


@register_mechanism("downsampling", aliases=("downsample",))
@dataclass
class DownsamplingMechanism(PublicationMechanism):
    """Publish one fix out of every ``factor`` for each user."""

    factor: int = 10
    name: str = "downsampling"

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ValueError("factor must be at least 1")

    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        return PublicationResult(
            dataset.map_trajectories(lambda t: t.downsample(self.factor)),
            mechanism=self.name,
        )


@register_mechanism("pseudonyms", aliases=("pseudonymization",))
@dataclass
class PseudonymizationMechanism(PublicationMechanism):
    """Replace user identifiers with random pseudonyms; keep locations intact.

    The result's ``pseudonym_of`` maps each pseudonym to its original user
    (it is what linkage attacks are scored against).
    """

    seed: Optional[int] = 0
    name: str = "pseudonyms"

    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        rng = np.random.default_rng(self.seed)
        users = dataset.user_ids
        order = rng.permutation(len(users))
        mapping = {users[i]: f"p{rank:04d}" for rank, i in enumerate(order)}
        return PublicationResult(
            dataset.relabel(mapping),
            mechanism=self.name,
            pseudonym_of={pseudonym: user for user, pseudonym in mapping.items()},
        )
