"""The rule catalogue: one visitor pass per project contract."""

from __future__ import annotations

from typing import List, Optional, Sequence

from .base import Rule
from .cache_key import CacheKeyDriftRule
from .columnar import ColumnarDisciplineRule
from .determinism import DeterminismRule
from .handle_lifecycle import HandleLifecycleRule
from .streaming import StreamingIncrementalityRule

__all__ = ["Rule", "ALL_RULES", "get_rules"]

#: Rule instances in catalogue order (each is stateless; check() is pure).
ALL_RULES: List[Rule] = [
    DeterminismRule(),
    CacheKeyDriftRule(),
    ColumnarDisciplineRule(),
    StreamingIncrementalityRule(),
    HandleLifecycleRule(),
]


def get_rules(ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """The selected rules (all by default); unknown ids raise ValueError."""
    if not ids:
        return list(ALL_RULES)
    by_id = {rule.id: rule for rule in ALL_RULES}
    missing = [i for i in ids if i not in by_id]
    if missing:
        known = ", ".join(sorted(by_id))
        raise ValueError(f"unknown rule id(s) {missing}; known rules: {known}")
    return [by_id[i] for i in ids]
