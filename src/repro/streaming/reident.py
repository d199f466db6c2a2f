"""Online re-identification: linkage scores that update per arrival.

The batch attackers (:class:`~repro.attacks.reident.Reidentifier` and
:class:`~repro.attacks.reident.FootprintReidentifier`) score a finished
published dataset against fixed background knowledge.  Here the published
side is consumed as a stream: stay-points accumulate through the incremental
extractor, footprints grow cell by cell, and every arrival that changes a
pseudonym's fingerprint re-scores that pseudonym against the knowledge —
``update(point)`` returns the refreshed score rows as events, so a live
pipeline can watch a pseudonym's re-identification risk converge while its
trace is still being published.

Only the *published* side streams.  The knowledge is attacker training data
and stays batch-built, exactly as in experiment E4.

``update_many(chunk)`` returns exactly the concatenated per-point events.
It bins the whole chunk with one ``cell_ids`` call and keeps, per
pseudonym, a vector of footprint intersection counts against every
candidate, advanced through a cell -> candidates index built once from the
knowledge.  A footprint row is then ``inter / (|P| + |K| - inter)``: the
same exact integers in the same IEEE division as ``_jaccard``, so the rows
are bitwise the per-point rows without one ``intersect1d``.

``finalize(published)`` hands the incrementally maintained fingerprints to
the batch attackers (their ``extracted=`` / ``footprints=`` parameters), so
the final assignments and similarity matrices are bitwise-identical to the
batch attacks on the same data: stay-points are pinned by the incremental
extractor, and footprints are the same sorted unique cell-ID sets the batch
columnar pass produces over the same knowledge grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..attacks.reident import (
    FootprintReidentifier,
    KnownPoi,
    ReidentificationResult,
    Reidentifier,
    _KnowledgeStack,
)
from ..core.trajectory import MobilityDataset
from ..geo.grid import Grid
from .sources import ReplaySource, StreamChunk, StreamPoint
from .staypoints import StreamingPoiExtractor

__all__ = ["ScoreEvent", "OnlineReidentifier", "replay_reidentify"]


@dataclass(frozen=True)
class ScoreEvent:
    """A refreshed per-candidate score row for one published pseudonym.

    ``kind`` is ``"poi"`` (a stay-point closed and the POI-matching row was
    re-scored) or ``"footprint"`` (the pseudonym entered a new grid cell and
    the Jaccard row was re-scored).  ``scores`` maps candidate user to the
    provisional similarity given everything streamed so far.
    """

    pseudonym: str
    kind: str
    scores: Mapping[str, float]


class OnlineReidentifier:
    """Per-arrival re-identification scoring with batch-pinned ``finalize``."""

    def __init__(
        self,
        poi_attacker: Reidentifier,
        fp_attacker: FootprintReidentifier,
        poi_knowledge: Mapping[str, Sequence[KnownPoi]],
        fp_knowledge: Mapping[str, np.ndarray],
        grid: Optional[Grid] = None,
        user_ids: Sequence[str] = (),
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
        self._stack = _KnowledgeStack.of(poi_knowledge)
        self._extractor = StreamingPoiExtractor(
            poi_attacker.config.extraction, user_ids=user_ids
        )
        self._cells: Dict[str, Set[int]] = {}
        #: Chunk path: cell -> positions in ``fp_knowledge`` holding it
        #: (``None`` unless every knowledge footprint is a sorted unique cell
        #: set), and the knowledge footprint sizes.
        self._holders, self._fp_sizes = self._index_knowledge(fp_knowledge)
        #: Per pseudonym: (cells counted, intersection counts per candidate).
        self._inter: Dict[str, Tuple[int, np.ndarray]] = {}
        for user_id in user_ids:
            self.register_user(user_id)

    def register_user(self, user_id: str) -> None:
        if user_id not in self._cells:
            self._cells[user_id] = set()
            self._extractor.register_user(user_id)

    @property
    def footprint_cells(self) -> int:
        """Distinct cells held across pseudonyms (resident state)."""
        return sum(len(cells) for cells in self._cells.values())

    # -- online updates ---------------------------------------------------------

    def update(self, point: StreamPoint) -> List[ScoreEvent]:
        """Feed one published fix; return the score rows it refreshed."""
        self.register_user(point.user_id)
        events: List[ScoreEvent] = []
        closed = self._extractor.update(point)
        if closed:
            events.append(
                ScoreEvent(
                    pseudonym=point.user_id,
                    kind="poi",
                    scores=self._poi_row(point.user_id),
                )
            )
        cell = int(
            self.grid.cell_ids(
                np.asarray([point.lat]), np.asarray([point.lon])
            )[0]
        )
        cells = self._cells[point.user_id]
        if cell not in cells:
            cells.add(cell)
            events.append(
                ScoreEvent(
                    pseudonym=point.user_id,
                    kind="footprint",
                    scores=self._footprint_row(point.user_id),
                )
            )
        return events

    def update_many(self, chunk: StreamChunk) -> List[ScoreEvent]:
        """Feed a chunk; the concatenated events of per-point ``update()``."""
        if len(chunk) == 0:
            return []
        for user_id in chunk.users_in_order():
            self.register_user(user_id)
        closed: Dict[int, str] = {}
        stays_at: Dict[int, int] = {}
        counts: Dict[str, int] = {}
        for row, stay in self._extractor._update_chunk(chunk):
            closed[row] = stay.user_id
            # A row closes stays of its own user only; remember how many of
            # that user's stays exist once the row is done.
            counts[stay.user_id] = counts.get(stay.user_id, 0) + 1
            stays_at[row] = counts[stay.user_id]
        base = {
            user_id: len(self._extractor._stays[user_id]) - n
            for user_id, n in counts.items()
        }
        cells = self.grid.cell_ids(chunk.lats, chunk.lons).tolist()
        user_ids = chunk.user_ids
        events: List[ScoreEvent] = []
        for row, (k, cell) in enumerate(zip(chunk.user_index.tolist(), cells)):
            user_id = user_ids[k]
            if row in closed:
                events.append(
                    ScoreEvent(
                        pseudonym=user_id,
                        kind="poi",
                        scores=self._poi_row_of(user_id, base[user_id] + stays_at[row]),
                    )
                )
            held = self._cells[user_id]
            if cell not in held:
                held.add(cell)
                events.append(
                    ScoreEvent(
                        pseudonym=user_id,
                        kind="footprint",
                        scores=self._footprint_row_with(user_id, cell),
                    )
                )
        return events

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

    # -- provisional score rows -------------------------------------------------

    def _poi_row(self, pseudonym: str) -> Dict[str, float]:
        merged = self._extractor._batch._merge(self._extractor._stays[pseudonym])
        row = self.poi_attacker._scores_vectorized([pseudonym], {pseudonym: merged}, self._stack)
        return row[pseudonym]

    def _footprint_row(self, pseudonym: str) -> Dict[str, float]:
        footprint = np.array(sorted(self._cells[pseudonym]), dtype=np.int64)
        return {
            candidate: self.fp_attacker._jaccard(footprint, np.asarray(reference))
            for candidate, reference in self.fp_knowledge.items()
        }


    def _poi_row_of(self, pseudonym: str, n_stays: int) -> Dict[str, float]:
        """:meth:`_poi_row` as of the pseudonym's first ``n_stays`` stays."""
        merged = self._extractor._batch._merge(self._extractor._stays[pseudonym][:n_stays])
        row = self.poi_attacker._scores_vectorized([pseudonym], {pseudonym: merged}, self._stack)
        return row[pseudonym]

    def _footprint_row_with(self, pseudonym: str, cell: int) -> Dict[str, float]:
        """:meth:`_footprint_row` right after ``cell`` joined the footprint.

        Advances the pseudonym's intersection counts by the candidates
        holding ``cell`` (recounting first if ``update()`` grew the
        footprint meanwhile).  Knowledge footprints that are not sorted
        unique cell sets fall back to :meth:`_footprint_row`.
        """
        holders = self._holders
        if holders is None:
            return self._footprint_row(pseudonym)
        cells = self._cells[pseudonym]
        counted, inter = self._inter.get(pseudonym, (0, None))
        if inter is None or counted != len(cells) - 1:
            inter = np.zeros(self._fp_sizes.size, dtype=np.int64)
            for known in cells - {cell}:
                inter[holders.get(known, [])] += 1
        inter[holders.get(cell, [])] += 1
        self._inter[pseudonym] = (len(cells), inter)
        rows = inter / (len(cells) + self._fp_sizes - inter)
        return dict(zip(self.fp_knowledge.keys(), rows.tolist()))

    @staticmethod
    def _index_knowledge(
        fp_knowledge: Mapping[str, np.ndarray]
    ) -> Tuple[Optional[Dict[int, List[int]]], np.ndarray]:
        """The cell -> candidate positions index and sizes of ``fp_knowledge``."""
        holders: Dict[int, List[int]] = {}
        sizes = []
        for position, reference in enumerate(fp_knowledge.values()):
            reference = np.asarray(reference)
            sizes.append(int(reference.size))
            if reference.size > 1 and not bool(np.all(reference[1:] > reference[:-1])):
                return None, np.asarray(sizes, dtype=np.int64)
            for cell in reference.tolist():
                holders.setdefault(cell, []).append(position)
        return holders, np.asarray(sizes, dtype=np.int64)


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
