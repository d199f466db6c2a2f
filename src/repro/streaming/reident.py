"""Online re-identification: fingerprints that grow per chunk.

The batch attackers (:class:`~repro.attacks.reident.Reidentifier` and
:class:`~repro.attacks.reident.FootprintReidentifier`) score a finished
published dataset against fixed background knowledge.  Here the published
side is consumed as a stream: ``update_many(chunk)`` feeds each fix to the
incremental stay-point extractor and adds its knowledge-grid cell to its
pseudonym's footprint, and returns ``None``.
Scores are computed once, by ``finalize()``.

Only the *published* side streams.  The knowledge is attacker training data
and stays batch-built, exactly as in experiment E4.

``finalize(published)`` hands the incrementally maintained fingerprints to
the batch attackers (their ``extracted=`` / ``footprints=`` parameters), so
the final assignments and similarity matrices are bitwise-identical to the
batch attacks on the same data: stay-points are pinned by the incremental
extractor, and footprints are the same sorted unique cell-ID sets the batch
columnar pass produces over the same knowledge grid.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..attacks.reident import (
    FootprintReidentifier,
    KnownPoi,
    ReidentificationResult,
    Reidentifier,
)
from ..core.trajectory import MobilityDataset
from ..geo.grid import Grid
from .sources import ReplaySource, StreamChunk
from .staypoints import StreamingPoiExtractor

__all__ = ["OnlineReidentifier", "replay_reidentify"]


class OnlineReidentifier:
    """Incremental re-identification fingerprints with batch-pinned ``finalize``.

    ``user_ids`` is the roster of the published source.
    """

    def __init__(
        self,
        poi_attacker: Reidentifier,
        fp_attacker: FootprintReidentifier,
        poi_knowledge: Mapping[str, Sequence[KnownPoi]],
        fp_knowledge: Mapping[str, np.ndarray],
        grid: Optional[Grid] = None,
        *,
        user_ids: Sequence[str],
    ) -> None:
        if grid is None:
            grid = getattr(fp_attacker, "_knowledge_grid", None)
        if grid is None:
            raise ValueError(
                "a knowledge grid is required: pass grid= or build fp_knowledge "
                "with FootprintReidentifier.knowledge_from_dataset"
            )
        self.poi_attacker = poi_attacker
        self.fp_attacker = fp_attacker
        self.poi_knowledge = poi_knowledge
        self.fp_knowledge = fp_knowledge
        self.grid = grid
        self._extractor = StreamingPoiExtractor(
            poi_attacker.config.extraction, user_ids=user_ids
        )
        self._cells: Dict[str, Set[int]] = {user_id: set() for user_id in user_ids}

    @property
    def footprint_cells(self) -> int:
        """Distinct cells held across pseudonyms (resident state)."""
        return sum(len(cells) for cells in self._cells.values())

    # -- online updates ---------------------------------------------------------

    def update_many(self, chunk: StreamChunk) -> None:
        """Feed published fixes to the stay-point scan and their footprints."""
        self._extractor.update_many(chunk)  # checks the chunk's roster
        if len(chunk) == 0:
            return
        cells = self.grid.cell_ids(chunk.lats, chunk.lons)
        for user_id, rows in chunk.rows_by_user():
            self._cells[user_id].update(cells[rows].tolist())

    def finalize(
        self, published: MobilityDataset
    ) -> Tuple[ReidentificationResult, ReidentificationResult]:
        """Run both batch attacks on the incrementally built fingerprints.

        ``published`` is the dataset whose points were streamed (it supplies
        the pseudonym roster; its fixes are not re-scanned).  Returns the
        ``(poi, footprint)`` results, bitwise-identical to the batch attacks.
        """
        extracted = self._extractor.finalize()
        poi_result = self.poi_attacker.attack(
            published, self.poi_knowledge, extracted=extracted
        )
        fp_result = self.fp_attacker.attack(
            published, self.fp_knowledge, footprints=self.footprints()
        )
        return poi_result, fp_result

    def footprints(self) -> Dict[str, np.ndarray]:
        """Per-pseudonym sorted unique cell-ID arrays (the batch encoding)."""
        return {
            user_id: np.array(sorted(cells), dtype=np.int64)
            for user_id, cells in self._cells.items()
        }


def replay_reidentify(
    published: MobilityDataset,
    poi_attacker: Reidentifier,
    fp_attacker: FootprintReidentifier,
    poi_knowledge: Mapping[str, Sequence[KnownPoi]],
    fp_knowledge: Mapping[str, np.ndarray],
    grid: Optional[Grid] = None,
) -> Tuple[ReidentificationResult, ReidentificationResult]:
    """Replay ``published`` through the online scorer (batch-identical results)."""
    source = ReplaySource(published)
    online = OnlineReidentifier(
        poi_attacker,
        fp_attacker,
        poi_knowledge,
        fp_knowledge,
        grid=grid,
        user_ids=source.user_ids,
    )
    for chunk in source.chunks():
        online.update_many(chunk)
    return online.finalize(published)
