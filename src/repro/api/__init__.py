"""Public pluggable API: registries, protocols and the unified result.

This package is the stable surface for extending the reproduction:

>>> from repro.api import list_mechanisms, make_mechanism
>>> list_mechanisms()
['downsampling', 'geo-ind', 'identity', ...]
>>> result = make_mechanism("geo-ind:epsilon_per_m=0.005,seed=7").publish(dataset)
>>> result.dataset, result.properties["noise_radius_m"]

Third-party mechanisms/attacks/metrics plug in with the ``register_*``
decorators; everything registered becomes addressable by string spec from the
:class:`~repro.experiments.engine.ExperimentSpec` /
:class:`~repro.experiments.engine.EvaluationEngine` pair.
"""

from .adapters import ChainMechanism
from .protocols import Attack, Mechanism, Metric
from .registry import (
    RegistryError,
    format_spec,
    list_attacks,
    list_mechanisms,
    list_metrics,
    make_attack,
    make_mechanism,
    make_metric,
    parse_spec,
    register_attack,
    register_mechanism,
    register_metric,
)
from .result import PublicationResult

__all__ = [
    "PublicationResult",
    "Mechanism",
    "Attack",
    "Metric",
    "ChainMechanism",
    "RegistryError",
    "parse_spec",
    "format_spec",
    "register_mechanism",
    "register_attack",
    "register_metric",
    "make_mechanism",
    "make_attack",
    "make_metric",
    "list_mechanisms",
    "list_attacks",
    "list_metrics",
]
