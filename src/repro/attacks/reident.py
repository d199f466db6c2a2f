"""Re-identification attack: linking pseudonymous traces back to known users.

The paper's second threat is re-identification: even with identifiers removed
or replaced by pseudonyms, the *mobility fingerprint* of a user (mainly her
top POIs — home and work) is often unique enough to identify her (Gambs et
al.).  This module implements the standard POI-matching attack:

1. The attacker holds background knowledge: for every candidate user, a set of
   known POIs (obtained e.g. from a previous, non-anonymized release — the
   *training* period in experiment E4).
2. For every pseudonymous published trace, the attacker extracts POIs with
   the stay-point attack and computes a similarity against every candidate's
   known POIs (fraction of published POIs falling within ``match_distance_m``
   of a known POI, symmetrised).
3. Pseudonyms are assigned to candidates either greedily or with an optimal
   one-to-one assignment (Hungarian algorithm, via scipy when available).

The attack succeeds on a pseudonym when the assigned candidate is the user who
actually produced (the majority of) that trace.  Trajectory swapping is
designed to break exactly this: after a swap, the trace published under one
pseudonym mixes segments of several physical users, so its POI fingerprint no
longer matches any single candidate.

A second, stronger adversary is provided by :class:`FootprintReidentifier`:
instead of POIs it matches the *spatial footprint* of a trace (the set of grid
cells it visits) against each candidate's historical footprint.  Because the
paper's speed smoothing does not move locations, the footprint of a smoothed
trace still matches its owner almost perfectly — only the trajectory swapping
step, which mixes segments of different users under one pseudonym, degrades
this attacker.  Experiment E4 reports both adversaries for that reason.

Both attackers run on the columnar kernel layer: the POI matcher
builds each pseudonym's row of the pseudonym × candidate similarity matrix
with *one* batched haversine pass against the stacked POIs of every candidate
(instead of nested Python loops over POI pairs), and the footprint matcher
summarises traces as sorted unique grid-cell ID arrays scored with
``np.intersect1d`` over the dataset's flattened view.  The scalar
per-POI-pair / per-cell pipelines are retained as the
``knowledge_from_dataset_reference`` / ``attack_reference`` methods of each
attacker — the correctness oracles the vectorized paths are pinned against
by property tests.  Both paths of each attacker share the score-finalisation
arithmetic, so similarity matrices (and therefore assignments) are
bitwise-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.trajectory import MobilityDataset, Trajectory
from ..geo.distance import haversine, haversine_array
from ..geo.geometry import BoundingBox
from ..geo.grid import Grid
from .poi_extraction import ExtractedPoi, PoiExtractionConfig, PoiExtractor

__all__ = [
    "KnownPoi",
    "ReidentificationConfig",
    "ReidentificationResult",
    "Reidentifier",
    "FootprintReidentifier",
]


@dataclass(frozen=True)
class KnownPoi:
    """A POI known to the attacker for a candidate user (background knowledge)."""

    lat: float
    lon: float
    weight: float = 1.0


@dataclass(frozen=True)
class ReidentificationConfig:
    """Parameters of the POI-matching linkage attack.

    ``match_distance_m`` is the distance under which an extracted POI is
    considered to match a known POI.  ``assignment`` selects how pseudonyms
    are mapped to candidates: ``"optimal"`` (one-to-one, Hungarian) or
    ``"greedy"`` (each pseudonym independently takes its best candidate,
    allowing collisions).  ``extraction`` configures the embedded stay-point
    extractor used on the published data.
    """

    match_distance_m: float = 250.0
    assignment: str = "optimal"
    extraction: PoiExtractionConfig = field(default_factory=PoiExtractionConfig)

    def __post_init__(self) -> None:
        if self.match_distance_m <= 0.0:
            raise ValueError("match_distance_m must be positive")
        if self.assignment not in ("optimal", "greedy"):
            raise ValueError(f"assignment must be 'optimal' or 'greedy', got {self.assignment!r}")


@dataclass
class ReidentificationResult:
    """Outcome of the attack on one published dataset.

    ``predicted`` maps each published pseudonym to the candidate user chosen
    by the attacker (or ``None`` when no candidate had any similarity).
    ``scores`` holds the full similarity matrix for inspection.
    """

    predicted: Dict[str, Optional[str]]
    scores: Dict[str, Dict[str, float]]

    def accuracy(self, truth: Mapping[str, str]) -> float:
        """Fraction of pseudonyms attributed to their true user.

        ``truth`` maps each published pseudonym to the physical user that
        produced it (or produced most of it, for swapped traces).  Pseudonyms
        absent from ``truth`` are ignored.
        """
        relevant = [p for p in self.predicted if p in truth]
        if not relevant:
            return 0.0
        correct = sum(1 for p in relevant if self.predicted[p] == truth[p])
        return correct / len(relevant)


class Reidentifier:
    """POI-matching linkage attack."""

    def __init__(self, config: Optional[ReidentificationConfig] = None) -> None:
        self.config = config or ReidentificationConfig()
        self._extractor = PoiExtractor(self.config.extraction)

    # -- background knowledge helpers ---------------------------------------------

    def knowledge_from_dataset(self, training: MobilityDataset) -> Dict[str, List[KnownPoi]]:
        """Build attacker background knowledge from a raw training dataset.

        POIs are extracted per user with the stay-point attack; weights are
        the number of supporting fixes (frequently visited places count more).
        """
        return self._knowledge(self._extractor.extract_dataset(training))

    def knowledge_from_dataset_reference(
        self, training: MobilityDataset
    ) -> Dict[str, List[KnownPoi]]:
        """Scalar oracle of :meth:`knowledge_from_dataset` (scalar stay-point scan)."""
        return self._knowledge(self._extractor.extract_dataset_reference(training))

    @staticmethod
    def _knowledge(
        extracted: Mapping[str, Sequence[ExtractedPoi]]
    ) -> Dict[str, List[KnownPoi]]:
        return {
            user_id: [KnownPoi(lat=p.lat, lon=p.lon, weight=float(p.n_points)) for p in pois]
            for user_id, pois in extracted.items()
        }

    # -- attack ----------------------------------------------------------------------

    def attack(
        self,
        published: MobilityDataset,
        knowledge: Mapping[str, Sequence[KnownPoi]],
        extracted: Optional[Mapping[str, Sequence[ExtractedPoi]]] = None,
    ) -> ReidentificationResult:
        """Assign every published pseudonym to the most similar known user.

        ``extracted`` optionally supplies precomputed per-pseudonym POIs
        (the output of the embedded extractor's ``extract_dataset``), letting
        callers that sweep attack parameters over one published dataset pay
        for extraction once.
        """
        candidates = list(knowledge.keys())
        pseudonyms = [t.user_id for t in published]
        if extracted is None:
            extracted = self._extractor.extract_dataset(published)
        scores = self._scores_vectorized(pseudonyms, extracted, candidates, knowledge)
        return self._assign(scores, pseudonyms, candidates, self.config.assignment)

    def attack_reference(
        self,
        published: MobilityDataset,
        knowledge: Mapping[str, Sequence[KnownPoi]],
        extracted: Optional[Mapping[str, Sequence[ExtractedPoi]]] = None,
    ) -> ReidentificationResult:
        """Scalar oracle of :meth:`attack`: scalar extraction and per-POI-pair scores."""
        candidates = list(knowledge.keys())
        pseudonyms = [t.user_id for t in published]
        if extracted is None:
            extracted = self._extractor.extract_dataset_reference(published)
        scores = {
            pseudonym: {
                candidate: self._similarity(extracted[pseudonym], knowledge[candidate])
                for candidate in candidates
            }
            for pseudonym in pseudonyms
        }
        return self._assign(scores, pseudonyms, candidates, self.config.assignment)

    # -- internals --------------------------------------------------------------------

    def _scores_vectorized(
        self,
        pseudonyms: List[str],
        extracted: Mapping[str, Sequence[ExtractedPoi]],
        candidates: List[str],
        knowledge: Mapping[str, Sequence[KnownPoi]],
    ) -> Dict[str, Dict[str, float]]:
        """The similarity matrix, one batched haversine pass per pseudonym.

        The POIs of every candidate are stacked once into flat arrays with
        per-candidate offsets; for each pseudonym one broadcast haversine
        call against the stack resolves every (extracted, known) match at
        once, and the per-candidate reductions reuse the exact slice
        arithmetic of the scalar oracle (:meth:`_pair_score`).
        """
        known_lats = np.concatenate(
            [[k.lat for k in knowledge[c]] for c in candidates] or [[]]
        ).astype(float)
        known_lons = np.concatenate(
            [[k.lon for k in knowledge[c]] for c in candidates] or [[]]
        ).astype(float)
        weights = np.concatenate(
            [[k.weight for k in knowledge[c]] for c in candidates] or [[]]
        ).astype(float)
        counts = np.array([len(knowledge[c]) for c in candidates], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])

        scores: Dict[str, Dict[str, float]] = {}
        for pseudonym in pseudonyms:
            pois = extracted[pseudonym]
            row: Dict[str, float] = {}
            if not pois or known_lats.size == 0:
                scores[pseudonym] = {c: 0.0 for c in candidates}
                continue
            e_lats = np.array([p.lat for p in pois], dtype=float)
            e_lons = np.array([p.lon for p in pois], dtype=float)
            # (n_known, n_extracted) match matrix in one batched pass; the
            # argument order (known first) mirrors the scalar oracle.
            matched = (
                haversine_array(
                    known_lats[:, None], known_lons[:, None], e_lats[None, :], e_lons[None, :]
                )
                <= self.config.match_distance_m
            )
            matched_known = matched.any(axis=1)
            for c_index, candidate in enumerate(candidates):
                lo, hi = int(offsets[c_index]), int(offsets[c_index + 1])
                if lo == hi:
                    row[candidate] = 0.0
                    continue
                row[candidate] = self._pair_score(
                    matched_known[lo:hi],
                    weights[lo:hi],
                    int(np.count_nonzero(matched[lo:hi].any(axis=0))),
                    len(pois),
                )
            scores[pseudonym] = row
        return scores

    def _similarity(
        self, extracted: Sequence[ExtractedPoi], known: Sequence[KnownPoi]
    ) -> float:
        """Symmetric POI-set similarity in [0, 1] (the scalar reference path).

        The score is the harmonic mean of (a) the weighted fraction of known
        POIs that are matched by an extracted POI and (b) the fraction of
        extracted POIs that match a known POI — i.e. an F-score over POI
        matching.  A pair matches when the two centroids are within
        ``match_distance_m``.
        """
        if not extracted or not known:
            return 0.0
        d = self.config.match_distance_m

        matched_known = np.array(
            [
                any(haversine(k.lat, k.lon, e.lat, e.lon) <= d for e in extracted)
                for k in known
            ],
            dtype=bool,
        )
        weights = np.array([k.weight for k in known], dtype=float)
        matched_extracted = sum(
            1 for e in extracted if any(haversine(k.lat, k.lon, e.lat, e.lon) <= d for k in known)
        )
        return self._pair_score(matched_known, weights, matched_extracted, len(extracted))

    @staticmethod
    def _pair_score(
        matched_known: np.ndarray,
        weights: np.ndarray,
        n_matched_extracted: int,
        n_extracted: int,
    ) -> float:
        """Finalise one (pseudonym, candidate) score from match counts.

        Shared by both paths so the recall / precision / F arithmetic —
        including the float summation order over the candidate's weights —
        is literally the same code, making the similarity matrices
        bitwise-identical.
        """
        total_known_weight = float(np.sum(weights))
        matched_known_weight = float(np.sum(np.where(matched_known, weights, 0.0)))
        recall = matched_known_weight / total_known_weight if total_known_weight > 0 else 0.0
        precision = n_matched_extracted / n_extracted
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)

    @classmethod
    def _assign(
        cls,
        scores: Dict[str, Dict[str, float]],
        pseudonyms: List[str],
        candidates: List[str],
        assignment: str,
    ) -> ReidentificationResult:
        """Assign pseudonyms from a similarity matrix (shared by both attackers)."""
        if assignment == "greedy" or not candidates or not pseudonyms:
            predicted = cls._assign_greedy(scores)
        else:
            predicted = cls._assign_optimal(scores, pseudonyms, candidates)
        return ReidentificationResult(predicted=predicted, scores=scores)

    @staticmethod
    def _assign_greedy(scores: Dict[str, Dict[str, float]]) -> Dict[str, Optional[str]]:
        predicted: Dict[str, Optional[str]] = {}
        for pseudonym, row in scores.items():
            if not row:
                predicted[pseudonym] = None
                continue
            best_candidate, best_score = max(row.items(), key=lambda kv: kv[1])
            predicted[pseudonym] = best_candidate if best_score > 0.0 else None
        return predicted

    @classmethod
    def _assign_optimal(
        cls,
        scores: Dict[str, Dict[str, float]],
        pseudonyms: List[str],
        candidates: List[str],
    ) -> Dict[str, Optional[str]]:
        """One-to-one assignment maximising total similarity.

        Uses scipy's Hungarian solver when available and falls back to the
        greedy strategy otherwise (scipy is an optional dependency of the
        attack, not of the library).
        """
        try:
            from scipy.optimize import linear_sum_assignment
        except ImportError:  # pragma: no cover - scipy is present in CI
            return cls._assign_greedy(scores)

        cost = np.zeros((len(pseudonyms), len(candidates)))
        for i, pseudonym in enumerate(pseudonyms):
            for j, candidate in enumerate(candidates):
                cost[i, j] = -scores[pseudonym][candidate]
        rows, cols = linear_sum_assignment(cost)
        predicted: Dict[str, Optional[str]] = {p: None for p in pseudonyms}
        for i, j in zip(rows, cols):
            if scores[pseudonyms[i]][candidates[j]] > 0.0:
                predicted[pseudonyms[i]] = candidates[j]
        return predicted


class FootprintReidentifier:
    """Re-identification by spatial-footprint matching.

    The attacker summarises every trace — published or background knowledge —
    as its *footprint*: the sorted array of distinct grid-cell IDs it visits.
    Each published pseudonym is assigned to the candidate whose historical
    footprint is the most similar under the Jaccard index
    ``|A ∩ B| / |A ∪ B|`` (one-to-one assignment by default).  This adversary
    does not depend on temporal structure at all, so time-distorting
    mechanisms leave it intact; only mechanisms that move locations or mix
    users' segments degrade it.

    Every footprint is computed in one pass over the dataset's columnar view
    (cell IDs of all fixes at once, unique per user slice) and candidate
    pairs are scored with ``np.intersect1d``; the ``*_reference`` oracles
    walk fixes and Python sets with the same semantics.  Intersection and
    union sizes are integers, so both paths produce bitwise-identical scores.
    """

    def __init__(self, cell_size_m: float = 300.0, assignment: str = "optimal") -> None:
        if cell_size_m <= 0.0:
            raise ValueError("cell_size_m must be positive")
        if assignment not in ("optimal", "greedy"):
            raise ValueError(f"assignment must be 'optimal' or 'greedy', got {assignment!r}")
        self.cell_size_m = cell_size_m
        self.assignment = assignment

    # -- background knowledge -------------------------------------------------------

    def knowledge_from_dataset(
        self, training: MobilityDataset, bbox: Optional[BoundingBox] = None
    ) -> Dict[str, np.ndarray]:
        """Per-candidate footprints (sorted unique cell-ID arrays) from raw training data."""
        self._knowledge_grid = self._grid(training, bbox)
        return self._footprints(self._knowledge_grid, training)

    def knowledge_from_dataset_reference(
        self, training: MobilityDataset, bbox: Optional[BoundingBox] = None
    ) -> Dict[str, np.ndarray]:
        """Scalar oracle of :meth:`knowledge_from_dataset` (footprints fix by fix)."""
        self._knowledge_grid = self._grid(training, bbox)
        return self._footprints_reference(self._knowledge_grid, training)

    # -- attack ------------------------------------------------------------------------

    def attack(
        self,
        published: MobilityDataset,
        knowledge: Mapping[str, np.ndarray],
        footprints: Optional[Mapping[str, np.ndarray]] = None,
    ) -> ReidentificationResult:
        """Assign every published pseudonym to the candidate with the closest footprint.

        ``footprints`` optionally supplies precomputed per-pseudonym footprints
        (sorted unique cell-ID arrays against the knowledge grid), letting an
        incrementally-maintained caller skip the batch construction.
        """
        if footprints is None:
            footprints = self._footprints(self._attack_grid(published), published)
        return self._result(published, knowledge, footprints, self._jaccard)

    def attack_reference(
        self,
        published: MobilityDataset,
        knowledge: Mapping[str, np.ndarray],
        footprints: Optional[Mapping[str, np.ndarray]] = None,
    ) -> ReidentificationResult:
        """Scalar oracle of :meth:`attack`: footprints fix by fix, set-based Jaccard."""
        if footprints is None:
            footprints = self._footprints_reference(self._attack_grid(published), published)
        return self._result(published, knowledge, footprints, self._jaccard_reference)

    # -- internals ----------------------------------------------------------------------

    def _grid(self, dataset: MobilityDataset, bbox: Optional[BoundingBox]) -> Grid:
        reference_bbox = bbox or dataset.bbox.expanded(self.cell_size_m)
        return Grid.covering(reference_bbox, self.cell_size_m)

    def _attack_grid(self, published: MobilityDataset) -> Grid:
        """The knowledge grid, or one covering ``published`` when none was built."""
        return getattr(self, "_knowledge_grid", None) or self._grid(published, None)

    def _result(
        self,
        published: MobilityDataset,
        knowledge: Mapping[str, np.ndarray],
        footprints: Mapping[str, np.ndarray],
        similarity: Callable[[np.ndarray, np.ndarray], float],
    ) -> ReidentificationResult:
        """Score every (pseudonym, candidate) footprint pair, then assign."""
        scores = {
            pseudonym: {
                candidate: similarity(footprint, np.asarray(reference))
                for candidate, reference in knowledge.items()
            }
            for pseudonym, footprint in footprints.items()
        }
        return Reidentifier._assign(
            scores, [t.user_id for t in published], list(knowledge.keys()), self.assignment
        )

    def _footprints(self, grid: Grid, dataset: MobilityDataset) -> Dict[str, np.ndarray]:
        """Sorted unique cell-ID arrays per user, from the columnar view."""
        traces = dataset.columnar()
        if traces.n_points == 0:
            return {uid: np.zeros(0, dtype=np.int64) for uid in traces.user_ids}
        cell_ids = grid.cell_ids(traces.lats, traces.lons)
        out: Dict[str, np.ndarray] = {}
        for k, user_id in enumerate(traces.user_ids):
            out[user_id] = np.unique(cell_ids[traces.user_slice(k)])
        return out

    def _footprints_reference(
        self, grid: Grid, dataset: MobilityDataset
    ) -> Dict[str, np.ndarray]:
        """Scalar oracle of :meth:`_footprints`: one trajectory at a time."""
        return {traj.user_id: self._footprint_reference(grid, traj) for traj in dataset}

    def _footprint_reference(self, grid: Grid, trajectory: Trajectory) -> np.ndarray:
        """Scalar footprint construction (the equivalence oracle)."""
        cells = set()
        for point in trajectory:
            row, col = grid.cell_of(point.lat, point.lon)
            cells.add(row * grid.n_cols + col)
        return np.array(sorted(cells), dtype=np.int64)

    @staticmethod
    def _jaccard(a: np.ndarray, b: np.ndarray) -> float:
        """Jaccard index of two sorted unique cell-ID arrays."""
        if a.size == 0 or b.size == 0:
            return 0.0
        intersection = int(np.intersect1d(a, b, assume_unique=True).size)
        union = int(a.size + b.size) - intersection
        if union == 0:
            return 0.0
        return intersection / union

    @staticmethod
    def _jaccard_reference(a: np.ndarray, b: np.ndarray) -> float:
        """Scalar oracle of :meth:`_jaccard` over Python sets."""
        if a.size == 0 or b.size == 0:
            return 0.0
        sa, sb = set(a.tolist()), set(b.tolist())
        intersection = len(sa & sb)
        union = len(sa | sb)
        if union == 0:
            return 0.0
        return intersection / union
