"""repro: privacy-preserving publication of mobility data with high utility.

A full reproduction of Primault, Ben Mokhtar and Brunie (ICDCS 2015): a
mobility-data anonymization system that hides points of interest by enforcing
a constant speed along published trajectories (time distortion instead of
location distortion) and confuses re-identification attacks by swapping user
identifiers inside naturally occurring mix-zones.

Quickstart
----------

>>> from repro import generate_world, make_mechanism
>>> world = generate_world(n_users=10, n_days=3, seed=7)
>>> result = make_mechanism("promesse").publish(world.dataset)
>>> print(result.summary())

Mechanisms, attacks and metrics are pluggable: they register by name
(:mod:`repro.api`) and any cross product of them runs through the
declarative engine::

    spec = ExperimentSpec(name="study",
                          mechanisms=["identity", "promesse", "geo-ind"],
                          attacks=["poi-retrieval"],
                          metrics=["spatial-distortion"])
    rows = EvaluationEngine(workers=4).run(spec, worlds={...})

Every mechanism's ``publish()`` returns a :class:`PublicationResult`: the
published ``dataset`` plus its provenance (``report``, ``pseudonym_of``,
``properties``).

See ``examples/`` for complete scenarios and README "Running the evaluation"
for the reproduced evaluation (experiments E1-E8).
"""

from .api import (
    PublicationResult,
    list_attacks,
    list_mechanisms,
    list_metrics,
    make_attack,
    make_mechanism,
    make_metric,
    register_attack,
    register_mechanism,
    register_metric,
)
from .core.pipeline import AnonymizationReport, Anonymizer, AnonymizerConfig
from .core.speed_smoothing import (
    SpeedSmoother,
    SpeedSmoothingConfig,
    smooth_dataset,
    smooth_trajectory,
)
from .core.trajectory import MobilityDataset, Point, Trajectory
from .datagen.mobility import SyntheticWorld, generate_world
from .experiments.engine import EvaluationEngine, ExperimentSpec
from .experiments.worlds import make_world
from .mixzones.detection import MixZoneDetector, detect_mix_zones
from .mixzones.swapping import MixZoneSwapper, SwapPolicy, swap_dataset
from .mixzones.zones import MixZone

__version__ = "2.0.0"

__all__ = [
    "__version__",
    "PublicationResult",
    "make_mechanism",
    "make_attack",
    "make_metric",
    "list_mechanisms",
    "list_attacks",
    "list_metrics",
    "register_mechanism",
    "register_attack",
    "register_metric",
    "ExperimentSpec",
    "EvaluationEngine",
    "make_world",
    "Point",
    "Trajectory",
    "MobilityDataset",
    "SpeedSmoother",
    "SpeedSmoothingConfig",
    "smooth_trajectory",
    "smooth_dataset",
    "Anonymizer",
    "AnonymizerConfig",
    "AnonymizationReport",
    "MixZone",
    "MixZoneDetector",
    "detect_mix_zones",
    "MixZoneSwapper",
    "SwapPolicy",
    "swap_dataset",
    "SyntheticWorld",
    "generate_world",
]
