"""Seedless publication stages, shared between the mechanisms of one group.

The paper's pipeline is three stages (Section III, Fig. 1): detect mix-zones
on the original data, smooth to constant speed, swap inside the zones.  The
first two take no seed, so mechanisms that run them with the same config on
the same input publish the same intermediate data: ``smoothing:epsilon_m=100``
and every ``promesse`` variant at ε = 100 m smooth identically, and the
``promesse:swap=…`` variants detect identical zones.

A :class:`StageMemo` lets them run such a stage once.  A mechanism that is a
:class:`SharedStages` sends each seedless stage through its ``memo`` (bound by
``make_mechanism(spec, memo=...)``); its seeded stages never go through it.
The evaluation engine creates one memo per group evaluation and drops it with
the call, so no stage output outlives the group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Hashable, Optional, Tuple, TypeVar

if TYPE_CHECKING:  # the pipeline imports this module while core initializes
    from ..core.trajectory import MobilityDataset

__all__ = ["Stage", "StageKey", "StageMemo", "SharedStages", "input_stages"]

T = TypeVar("T")

#: A seedless stage as ``(kind, frozen config)``; a memo key is the path of
#: these from the memo's source dataset to the stage.
Stage = Tuple[str, Hashable]
StageKey = Tuple[Stage, ...]


class StageMemo:
    """Outputs of seedless stages run on one source dataset.

    A stage's key is its ``(kind, config)`` appended to the key of its input.
    The ``source`` has the empty key, and an output the memo holds has the key
    it was stored under.  Any other input — a seeded stage's output, or a
    dataset from elsewhere — has no key, so a stage on it always runs.  The
    memo holds stage outputs (datasets, zone lists), never a
    :class:`~repro.api.result.PublicationResult`: a chain reassigns its
    result's dataset, which would corrupt a shared result.
    """

    def __init__(self, source: MobilityDataset) -> None:
        self.source = source
        self._outputs: Dict[StageKey, Any] = {}
        # id() of each held output -> its key; held outputs keep their ids.
        self._key_of: Dict[int, StageKey] = {}

    def run(
        self, kind: str, config: Hashable, dataset: MobilityDataset, compute: Callable[[], T]
    ) -> T:
        """``compute()`` the stage on ``dataset``, or return its memoized output."""
        upstream = () if dataset is self.source else self._key_of.get(id(dataset))
        if upstream is None:
            return compute()
        key = upstream + ((kind, config),)
        if key not in self._outputs:
            output = compute()
            self._outputs[key] = output
            self._key_of[id(output)] = key
        return self._outputs[key]


class SharedStages:
    """A mechanism whose seedless stages a :class:`StageMemo` can share."""

    memo: Optional[StageMemo] = None

    def input_stages(self) -> Tuple[Stage, ...]:
        """The ``(kind, config)`` of each seedless stage run on the input."""
        raise NotImplementedError

    def _stage(
        self, kind: str, config: Hashable, dataset: MobilityDataset, compute: Callable[[], T]
    ) -> T:
        if self.memo is None:
            return compute()
        return self.memo.run(kind, config, dataset, compute)


def input_stages(mechanism: Any) -> FrozenSet[Stage]:
    """The seedless stages ``mechanism`` runs on its input (a chain's first stage's)."""
    from .adapters import ChainMechanism

    if isinstance(mechanism, ChainMechanism):
        mechanism = mechanism.stages[0]
    if isinstance(mechanism, SharedStages):
        return frozenset(mechanism.input_stages())
    return frozenset()
