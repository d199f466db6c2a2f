"""Privacy metrics: how well the published data resists the attacks.

Three adversaries are scored, matching the threats of the paper:

* **POI retrieval** — precision / recall / F-score of the POI-extraction
  attack against the ground-truth POIs (experiment E1).  Lower recall means
  better POI hiding; the F-score is the headline number reported by the
  authors' follow-up evaluation.
* **Re-identification rate** — fraction of published pseudonyms correctly
  linked back to their user by the POI-matching attack (experiment E4).
* **Tracking success** — fraction of mix-zone traversals whose
  incoming → outgoing correspondence is correctly reconstructed by the
  multi-target tracker (experiment E5), plus the empirical mixing entropy.

The helpers in this module convert ground truth (synthetic world visits, swap
provenance records) into the reference structures the scores need, so that
benchmarks and examples stay short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..attacks.poi_extraction import ExtractedPoi
from ..attacks.tracking import ZoneLinkage
from ..core.trajectory import MobilityDataset
from ..geo.kernels import haversine_above
from ..mixzones.swapping import SwapRecord, SwapResult
from ..mixzones.zones import permutation_entropy_bits

__all__ = [
    "PoiRetrievalScore",
    "poi_retrieval_pooled",
    "poi_retrieval_per_user",
    "majority_owner",
    "reidentification_truth",
    "zone_link_truth",
    "tracking_success",
    "mean_zone_correctness",
    "empirical_mixing_entropy_bits",
]


# ---------------------------------------------------------------------------
# POI retrieval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoiRetrievalScore:
    """Precision / recall / F-score of a POI-extraction attack."""

    precision: float
    recall: float
    f_score: float
    n_true: int
    n_extracted: int

    @classmethod
    def from_counts(
        cls, matched_true: int, n_true: int, matched_extracted: int, n_extracted: int
    ) -> "PoiRetrievalScore":
        """Build the score from match counts (handles empty sets gracefully)."""
        recall = matched_true / n_true if n_true else 1.0
        precision = matched_extracted / n_extracted if n_extracted else 1.0
        if precision + recall == 0.0:
            f_score = 0.0
        else:
            f_score = 2.0 * precision * recall / (precision + recall)
        return cls(precision, recall, f_score, n_true, n_extracted)


def _match_counts(
    truths: Sequence[Tuple[float, float]],
    found: Sequence[ExtractedPoi],
    match_distance_m: float,
) -> Tuple[int, int]:
    """``(true POIs within reach of a found one, found POIs within reach of a true one)``.

    One ``len(truths) x len(found)`` matrix of :func:`haversine_above`
    decisions (true POI first, as the scalar ``haversine(lat, lon, e.lat,
    e.lon)`` argument order), so every ``<=`` is decided bitwise as the
    scalar function decides it.
    """
    if len(truths) == 0 or len(found) == 0:
        return 0, 0
    true_ll = np.asarray(truths, dtype=float).reshape(-1, 2)
    found_lat = np.array([e.lat for e in found], dtype=float)
    found_lon = np.array([e.lon for e in found], dtype=float)
    near = ~haversine_above(
        true_ll[:, :1], true_ll[:, 1:], found_lat[None, :], found_lon[None, :],
        match_distance_m,
    )
    return int(near.any(axis=1).sum()), int(near.any(axis=0).sum())


def poi_retrieval_pooled(
    true_pois: Sequence[Tuple[float, float]],
    extracted: Sequence[ExtractedPoi],
    match_distance_m: float = 250.0,
) -> PoiRetrievalScore:
    """Score extracted POIs against ground truth, ignoring user identifiers.

    This is the right variant for published data whose identifiers are
    pseudonymous or swapped: the attacker's finding "somebody stops here"
    already violates the location privacy the mechanism tries to protect.
    A true POI counts as retrieved when any extracted POI lies within
    ``match_distance_m``; an extracted POI counts as correct when it lies
    within ``match_distance_m`` of any true POI.
    """
    matched_true, matched_extracted = _match_counts(true_pois, extracted, match_distance_m)
    return PoiRetrievalScore.from_counts(
        matched_true, len(true_pois), matched_extracted, len(extracted)
    )


def poi_retrieval_per_user(
    true_pois: Mapping[str, Sequence[Tuple[float, float]]],
    extracted: Mapping[str, Sequence[ExtractedPoi]],
    match_distance_m: float = 250.0,
) -> PoiRetrievalScore:
    """Score POI extraction user by user (identifiers must align).

    Used for mechanisms that keep user identifiers (raw publication, Geo-I,
    plain smoothing without pseudonymisation): a true POI of user ``u`` only
    counts as retrieved when it is matched by a POI extracted from ``u``'s own
    published trace.
    """
    matched_true = 0
    n_true = 0
    matched_extracted = 0
    n_extracted = 0
    users = set(true_pois) | set(extracted)
    for user in users:
        truths = list(true_pois.get(user, []))
        found = list(extracted.get(user, []))
        n_true += len(truths)
        n_extracted += len(found)
        user_true, user_extracted = _match_counts(truths, found, match_distance_m)
        matched_true += user_true
        matched_extracted += user_extracted
    return PoiRetrievalScore.from_counts(matched_true, n_true, matched_extracted, n_extracted)


# ---------------------------------------------------------------------------
# Re-identification
# ---------------------------------------------------------------------------


def majority_owner(segments: Sequence[Tuple[float, float, str]]) -> Optional[str]:
    """The physical user owning the largest share of a published trace.

    ``segments`` is the ``(t_start, t_end, user)`` list from
    :class:`~repro.mixzones.swapping.SwapResult.segment_ownership`.  Ownership
    share is measured by segment duration.
    """
    if not segments:
        return None
    share: Dict[str, float] = {}
    for t_start, t_end, user in segments:
        share[user] = share.get(user, 0.0) + max(t_end - t_start, 0.0)
    return max(share.items(), key=lambda kv: kv[1])[0]


def reidentification_truth(swap_result: SwapResult) -> Dict[str, str]:
    """Ground-truth ``pseudonym -> physical user`` mapping for scoring.

    For unswapped traces this is simply the pseudonym assignment; for swapped
    traces the majority owner is used (the attacker is deemed correct when it
    names the user who contributed most of the published trace — the most
    favourable convention for the attacker, hence a conservative privacy
    claim).
    """
    truth: Dict[str, str] = {}
    for pseudonym, segments in swap_result.segment_ownership.items():
        owner = majority_owner(segments)
        if owner is not None:
            truth[pseudonym] = owner
    return truth


# ---------------------------------------------------------------------------
# Tracking / mix-zone confusion
# ---------------------------------------------------------------------------


def zone_link_truth(record: SwapRecord) -> Dict[str, str]:
    """True incoming → outgoing label correspondence of one mix-zone.

    For each physical participant, the incoming label is the one it carried
    before the zone and the outgoing label the one it carries after; the true
    link connects the two.
    """
    return {
        record.labels_before[user]: record.labels_after[user] for user in record.labels_before
    }


def tracking_success(
    linkages: Sequence[ZoneLinkage], records: Sequence[SwapRecord]
) -> float:
    """Fraction of individual zone traversals correctly re-linked by the attacker.

    ``linkages`` are the attacker's reconstructions and ``records`` the
    matching provenance records (paired by zone identity: center and window).
    Zones without any attacker link are counted as failures for the attacker.
    """
    truth_by_zone = {id(r.zone): zone_link_truth(r) for r in records}
    zone_index = {
        (r.zone.center_lat, r.zone.center_lon, r.zone.t_start, r.zone.t_end): zone_link_truth(r)
        for r in records
    }
    total = 0
    correct = 0
    for linkage in linkages:
        key = (
            linkage.zone.center_lat,
            linkage.zone.center_lon,
            linkage.zone.t_start,
            linkage.zone.t_end,
        )
        truth = zone_index.get(key)
        if truth is None:
            truth = truth_by_zone.get(id(linkage.zone))
        if truth is None:
            continue
        for incoming, outgoing in truth.items():
            total += 1
            if linkage.links.get(incoming) == outgoing:
                correct += 1
    if total == 0:
        return 0.0
    return correct / total


def mean_zone_correctness(
    linkages: Sequence[ZoneLinkage], truths: Sequence[Mapping[str, str]]
) -> float:
    """Average per-zone linkage correctness, skipping unscorable zones.

    ``ZoneLinkage.correctness`` returns ``nan`` for zones where none of the
    attacker's links overlaps the truth (nothing to score); averaging those
    as zeroes would deflate tracking success and overstate privacy.  Returns
    ``nan`` when no zone is scorable at all.
    """
    values = np.array(
        [linkage.correctness(truth) for linkage, truth in zip(linkages, truths)],
        dtype=float,
    )
    scorable = values[~np.isnan(values)]
    if scorable.size == 0:
        return float("nan")
    return float(np.mean(scorable))


def empirical_mixing_entropy_bits(records: Sequence[SwapRecord]) -> float:
    """Average theoretical mixing entropy (bits) over the traversed zones.

    Each record contributes ``log2(k!)`` bits where ``k`` is the number of
    users actually present in the zone.  This is the information-theoretic
    upper bound on attacker confusion; compare it with the tracking success to
    see how much of the bound the timing side channel gives back.
    """
    if not records:
        return 0.0
    return float(
        np.mean([permutation_entropy_bits(len(r.labels_before)) for r in records])
    )


# ---------------------------------------------------------------------------
# Registry adapters: provenance-based privacy metrics
# ---------------------------------------------------------------------------
#
# These read the AnonymizationReport carried by a PublicationResult; on
# mechanisms without provenance they degrade to zeros, which is the honest
# reading (no mix-zone mixing happened).

from ..api.registry import register_metric


@register_metric("swap-stats")
def _swap_stats_metric():
    """Mix-zone counts from the publication provenance."""

    def compute(original: MobilityDataset, result) -> Dict[str, object]:
        report = result.report
        return {
            "n_zones": report.n_zones if report is not None else 0,
            "n_swaps": report.n_swaps if report is not None else 0,
            "suppressed_points": report.suppressed_points if report is not None else 0,
        }

    return compute


@register_metric("mixing-entropy")
def _mixing_entropy_metric():
    """Average theoretical mixing entropy over traversed zones (bits)."""

    def compute(original: MobilityDataset, result) -> Dict[str, object]:
        report = result.report
        records = report.swap_records if report is not None else []
        return {"mixing_entropy_bits": empirical_mixing_entropy_bits(records)}

    return compute
