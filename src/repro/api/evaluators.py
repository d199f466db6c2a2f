"""Engine-facing attack evaluators.

The raw attack algorithms (stay-point extraction, DJ-Cluster,
re-identification, multi-target tracking) live in :mod:`repro.attacks` as
plain classes and return algorithm-specific objects.  The evaluators here
are the only registered attacks: they wrap those classes behind the uniform
:class:`~repro.api.protocols.Attack` surface the
:class:`~repro.experiments.engine.EvaluationEngine` expects:
``run(result, context) -> row columns``, scored against the synthetic
world's ground truth.

Registered evaluators:

* ``poi-retrieval`` — POI extraction (stay-point or DJ-Cluster) scored as
  precision/recall/F against the world's true POIs; with ``adaptive=true``
  the clustering diameter widens with the noise radius the mechanism
  publicly announces (``PublicationResult.properties``), the informed
  attacker of the paper's Geo-I critique.
* ``reident`` — the POI-matching and spatial-footprint linkage attackers,
  trained on the raw first fraction of the world, scored against the
  publication's provenance truth (``PublicationResult.identity_truth()``).
* ``tracking`` — the multi-target tracker re-linking mix-zone traversals
  recorded in the publication's report.
* ``zone-census`` — not an adversary but a zone survey (experiment E8),
  expressed as an attack so it rides the same engine axis.

Expensive attacker knowledge is cached per world object, so sweeping many
mechanisms over one world pays for knowledge construction once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..attacks.djcluster import DjCluster, DjClusterConfig
from ..attacks.poi_extraction import PoiExtractionConfig, PoiExtractor
from ..attacks.reident import (
    FootprintReidentifier,
    ReidentificationConfig,
    Reidentifier,
)
from ..attacks.tracking import MultiTargetTracker, TrackingConfig
from ..core.trajectory import MobilityDataset
from ..metrics.privacy import poi_retrieval_pooled, tracking_success
from ..mixzones.detection import MixZoneDetectionConfig, MixZoneDetector
from .protocols import EvaluationContext
from .registry import RegistryError, register_attack
from .result import PublicationResult

#: Ground-truth provider: a SyntheticWorld or RealWorld (duck-typed — both
#: expose ``dataset``, ``user_ids`` and ``true_pois_of``; no common base).
World = Any

__all__ = [
    "ground_truth_pois",
    "PoiRetrievalEvaluator",
    "ReidentEvaluator",
    "TrackingEvaluator",
    "ZoneCensusEvaluator",
]


# ---------------------------------------------------------------------------
# Ground truth and per-world caches
# ---------------------------------------------------------------------------


def ground_truth_pois(world: World, min_stay_s: float = 900.0) -> List[Tuple[float, float]]:
    """Distinct ground-truth POI locations visited long enough to be attackable."""
    seen: Dict[str, Tuple[float, float]] = {}
    for user_id in world.user_ids:
        for poi in world.true_pois_of(user_id, min_stay_s=min_stay_s):
            seen[poi.poi_id] = (poi.lat, poi.lon)
    return list(seen.values())


# Caches are keyed by (id(world), params) and hold the world only through a
# weak reference: a live reference makes a recycled id impossible to alias,
# while a dropped world frees its entries (swept on insert) instead of being
# pinned for process lifetime.
_CacheEntry = Tuple[Any, Any]  # (weakref.ref(world), value)
_TRUTH_CACHE: Dict[Tuple, _CacheEntry] = {}
_KNOWLEDGE_CACHE: Dict[Tuple, _CacheEntry] = {}


def _world_cached(
    cache: Dict[Tuple, _CacheEntry], world: World, key: Tuple, build: Callable[[], Any]
) -> Any:
    entry = cache.get(key)
    if entry is not None and entry[0]() is world:
        return entry[1]
    value = build()
    for dead in [k for k, (ref, _) in cache.items() if ref() is None]:
        del cache[dead]
    cache[key] = (weakref.ref(world), value)
    return value


def _truth_pois(world: World, min_stay_s: float) -> List[Tuple[float, float]]:
    key = (id(world), min_stay_s)
    return _world_cached(
        _TRUTH_CACHE, world, key, lambda: ground_truth_pois(world, min_stay_s)
    )


# ---------------------------------------------------------------------------
# POI retrieval
# ---------------------------------------------------------------------------


@register_attack("poi-retrieval")
@dataclass
class PoiRetrievalEvaluator:
    """Score a POI-extraction attack against the world's true POIs.

    ``execution`` selects how the publication is consumed: ``"batch"``
    (default) the vectorized attack over the finished dataset, ``"stream"``
    a chunked replay through :mod:`repro.streaming`'s incremental
    extractors (pinned bitwise-identical to batch).  The engine injects
    ``execution="stream"`` when the spec sets ``mode="stream"``.
    """

    algorithm: str = "staypoint"
    match_distance_m: float = 250.0
    min_stay_s: float = 900.0
    adaptive: bool = True
    base_diameter_m: float = 200.0
    execution: str = "batch"
    name: str = field(default="poi-retrieval", init=False)

    def __post_init__(self) -> None:
        if self.algorithm not in ("staypoint", "djcluster"):
            raise RegistryError(
                f"unknown attack {self.algorithm!r}; choose 'staypoint' or 'djcluster'"
            )
        if self.execution not in ("batch", "stream"):
            raise RegistryError(
                f"unknown execution {self.execution!r}; choose 'batch' or 'stream'"
            )

    def _diameter(self, result: PublicationResult) -> float:
        """Clustering diameter an informed attacker would use.

        The planar Laplace noise of Geo-Indistinguishability has mean radius
        ``2 / epsilon``; two independently noised reports of the same place
        are on average about twice that apart, so the attacker widens the
        standard diameter by four expected noise radii.
        """
        diameter = self.base_diameter_m
        noise_radius = result.properties.get("noise_radius_m") if self.adaptive else None
        if noise_radius:
            diameter += 4.0 * float(noise_radius)
        return diameter

    def _extractor(
        self, diameter: float
    ) -> Callable[[MobilityDataset], Dict[str, list]]:
        if self.algorithm == "staypoint":
            config = PoiExtractionConfig(
                min_duration_s=self.min_stay_s,
                max_diameter_m=diameter,
                merge_distance_m=diameter / 2.0,
            )
            if self.execution == "stream":
                from ..streaming import replay_extract_staypoints

                return lambda dataset: replay_extract_staypoints(dataset, config)
            return PoiExtractor(config).extract_dataset
        dj_config = DjClusterConfig(eps_m=max(100.0, diameter / 2.0))
        if self.execution == "stream":
            from ..streaming import replay_extract_djclusters

            return lambda dataset: replay_extract_djclusters(dataset, dj_config)
        return DjCluster(dj_config).extract_dataset

    def run(
        self, result: PublicationResult, context: Optional[EvaluationContext] = None
    ) -> Dict[str, object]:
        if context is None or getattr(context, "world", None) is None:
            raise ValueError("poi-retrieval needs a world for ground-truth POIs")
        truth = _truth_pois(context.world, self.min_stay_s)
        extract = self._extractor(self._diameter(result))
        extracted = [poi for pois in extract(result.dataset).values() for poi in pois]
        score = poi_retrieval_pooled(
            truth, extracted, match_distance_m=self.match_distance_m
        )
        return {
            "precision": score.precision,
            "recall": score.recall,
            "f_score": score.f_score,
            "n_true_pois": score.n_true,
            "n_extracted": score.n_extracted,
        }


# ---------------------------------------------------------------------------
# Re-identification
# ---------------------------------------------------------------------------


@register_attack("reident")
@dataclass
class ReidentEvaluator:
    """POI-matching and footprint linkage attacks with split-trained knowledge.

    ``execution="stream"`` replays the published dataset chunk by chunk
    through :class:`~repro.streaming.OnlineReidentifier`, which builds the
    pseudonyms' stay-points and footprints as fixes arrive and scores them
    once, at ``finalize()`` (knowledge is attacker training data and stays
    batch-built either way); the scores are pinned bitwise-identical to
    batch.
    """

    train_fraction: float = 0.5
    match_distance_m: float = 250.0
    bbox_margin_m: float = 500.0
    execution: str = "batch"
    name: str = field(default="reident", init=False)

    def __post_init__(self) -> None:
        if self.execution not in ("batch", "stream"):
            raise RegistryError(
                f"unknown execution {self.execution!r}; choose 'batch' or 'stream'"
            )

    def _attackers(
        self, world: World
    ) -> Tuple[Reidentifier, Any, FootprintReidentifier, Any]:
        from ..experiments.workloads import split_train_publish

        def build() -> Tuple[Reidentifier, Any, FootprintReidentifier, Any]:
            training, _ = split_train_publish(world, self.train_fraction)
            poi_attacker = Reidentifier(
                ReidentificationConfig(match_distance_m=self.match_distance_m)
            )
            poi_knowledge = poi_attacker.knowledge_from_dataset(training)
            footprint_attacker = FootprintReidentifier()
            footprint_knowledge = footprint_attacker.knowledge_from_dataset(
                training, bbox=world.dataset.bbox.expanded(self.bbox_margin_m)
            )
            return poi_attacker, poi_knowledge, footprint_attacker, footprint_knowledge

        key = (id(world), self.train_fraction, self.match_distance_m, self.bbox_margin_m)
        return _world_cached(_KNOWLEDGE_CACHE, world, key, build)

    def run(
        self, result: PublicationResult, context: Optional[EvaluationContext] = None
    ) -> Dict[str, object]:
        if context is None or getattr(context, "world", None) is None:
            raise ValueError("reident needs a world for attacker knowledge")
        poi_attacker, poi_knowledge, fp_attacker, fp_knowledge = self._attackers(
            context.world
        )
        truth = result.identity_truth()
        if self.execution == "stream":
            from ..streaming import replay_reidentify

            poi_result, fp_result = replay_reidentify(
                result.dataset, poi_attacker, fp_attacker, poi_knowledge, fp_knowledge
            )
            poi_rate = poi_result.accuracy(truth)
            footprint_rate = fp_result.accuracy(truth)
        else:
            poi_rate = poi_attacker.attack(result.dataset, poi_knowledge).accuracy(truth)
            footprint_rate = fp_attacker.attack(result.dataset, fp_knowledge).accuracy(
                truth
            )
        report = result.report
        return {
            "poi_attack_rate": poi_rate,
            "footprint_attack_rate": footprint_rate,
            "published_users": len(result.dataset),
            "n_zones": report.n_zones if report is not None else 0,
            "n_swaps": report.n_swaps if report is not None else 0,
        }


# ---------------------------------------------------------------------------
# Tracking
# ---------------------------------------------------------------------------


@register_attack("tracking")
@dataclass
class TrackingEvaluator:
    """Multi-target tracking of mix-zone traversals recorded in the report."""

    search_radius_m: float = 500.0
    max_plausible_speed_mps: float = 40.0
    name: str = field(default="tracking", init=False)

    def run(
        self, result: PublicationResult, context: Optional[EvaluationContext] = None
    ) -> Dict[str, object]:
        report = result.report
        if report is None:
            raise ValueError(
                "tracking needs mechanism provenance (a report with swap records); "
                f"mechanism {result.mechanism!r} produced none"
            )
        tracker = MultiTargetTracker(
            TrackingConfig(
                search_radius_m=self.search_radius_m,
                max_plausible_speed_mps=self.max_plausible_speed_mps,
            )
        )
        linkages = tracker.link_zones(
            result.dataset, [record.zone for record in report.swap_records]
        )
        return {"tracking_success": tracking_success(linkages, report.swap_records)}


# ---------------------------------------------------------------------------
# Zone census (E8)
# ---------------------------------------------------------------------------


@register_attack("zone-census")
@dataclass
class ZoneCensusEvaluator:
    """How many natural mix-zones the published data contains at one radius.

    ``execution="stream"`` replays the publication through the
    sliding-window crossing detector (batch-identical zones).
    """

    radius_m: float = 100.0
    execution: str = "batch"
    name: str = field(default="zone-census", init=False)

    def __post_init__(self) -> None:
        if self.execution not in ("batch", "stream"):
            raise RegistryError(
                f"unknown execution {self.execution!r}; choose 'batch' or 'stream'"
            )

    def run(
        self, result: PublicationResult, context: Optional[EvaluationContext] = None
    ) -> Dict[str, object]:
        config = MixZoneDetectionConfig(radius_m=self.radius_m)
        if self.execution == "stream":
            from ..streaming import replay_detect_mix_zones

            zones = replay_detect_mix_zones(result.dataset, config)
        else:
            zones = MixZoneDetector(config).detect(result.dataset)
        sizes = [zone.n_participants for zone in zones] or [0]
        return {
            "zone_radius_m": self.radius_m,
            "n_zones": len(zones),
            "mean_participants": float(np.mean(sizes)),
            "max_participants": int(np.max(sizes)),
            "mean_entropy_bits": float(
                np.mean([zone.anonymity_set_entropy_bits() for zone in zones])
            )
            if zones
            else 0.0,
        }
