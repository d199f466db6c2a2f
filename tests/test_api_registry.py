"""Tests for the pluggable API: registries, spec parsing, the result contract, parity."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import (
    ChainMechanism,
    PublicationResult,
    RegistryError,
    list_attacks,
    list_mechanisms,
    list_metrics,
    make_attack,
    make_mechanism,
    make_metric,
    parse_spec,
    register_mechanism,
)
from repro.api.evaluators import PoiRetrievalEvaluator, ReidentEvaluator, TrackingEvaluator
from repro.api.registry import MECHANISMS, format_spec
from repro.attacks.djcluster import DjClusterConfig, dj_cluster
from repro.attacks.gap_inference import GapInferenceConfig, infer_pois_from_gaps
from repro.attacks.poi_extraction import PoiExtractionConfig, extract_pois
from repro.attacks.reident import FootprintReidentifier, ReidentificationConfig
from repro.attacks.tracking import TrackingConfig
from repro.baselines.geo_indistinguishability import GeoIndistinguishabilityMechanism
from repro.baselines.trivial import IdentityMechanism
from repro.baselines.wait4me import Wait4MeConfig
from repro.core.pipeline import Anonymizer
from repro.experiments.runner import (
    DEFAULT_MECHANISM_SPECS,
    run_area_coverage,
    run_mixzone_stats,
    run_poi_retrieval,
    run_reidentification,
    run_spatial_distortion,
    run_tracking,
    run_tradeoff_frontier,
)
from repro.mixzones.detection import MixZoneDetectionConfig, detect_mix_zones


class TestSpecParsing:
    def test_name_only(self):
        assert parse_spec("identity") == ("identity", {})

    def test_typed_parameters(self):
        name, params = parse_spec("geo-ind:epsilon_per_m=0.005,seed=7,per_point_budget=true")
        assert name == "geo-ind"
        assert params == {"epsilon_per_m": 0.005, "seed": 7, "per_point_budget": True}

    def test_none_and_string_values(self):
        _, params = parse_spec("x:session_gap_s=none,swap=coin_flip")
        assert params == {"session_gap_s": None, "swap": "coin_flip"}

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("geo-ind:epsilon")
        with pytest.raises(ValueError):
            parse_spec(":a=1")

    def test_format_spec_round_trips(self):
        spec = format_spec("geo-ind", {"epsilon_per_m": 0.0034657359027997264, "seed": 3})
        name, params = parse_spec(spec)
        assert name == "geo-ind"
        assert params["epsilon_per_m"] == 0.0034657359027997264
        assert params["seed"] == 3


#: Spec-style names of the raw attack algorithms and their aliases.  The
#: classes are built directly; only evaluators are registered attacks.
RAW_ATTACK_NAMES = [
    "staypoint", "poi-extraction", "stay-point",
    "djcluster", "dj-cluster",
    "gap-inference",
    "reident-poi", "poi-matching",
    "reident-footprint", "footprint",
    "multi-target-tracker", "tracker",
]


class TestRegistries:
    def test_builtin_names_listed(self):
        mechanisms = list_mechanisms()
        for name in ("identity", "smoothing", "promesse", "geo-ind", "wait4me",
                     "pseudonyms", "downsampling"):
            assert name in mechanisms
        attacks = list_attacks()
        for name in ("poi-retrieval", "reident", "tracking", "zone-census"):
            assert name in attacks
        metrics = list_metrics()
        for name in ("spatial-distortion", "area-coverage", "point-retention",
                     "trip-length-error", "range-query", "swap-stats", "mixing-entropy"):
            assert name in metrics

    @pytest.mark.parametrize("name", list_attacks())
    def test_every_registered_attack_is_an_evaluator(self, name):
        assert callable(getattr(make_attack(name), "run", None))

    @pytest.mark.parametrize("name", RAW_ATTACK_NAMES)
    def test_raw_algorithm_names_are_unknown_attacks(self, name):
        with pytest.raises(RegistryError, match="unknown attack"):
            make_attack(name)

    def test_unknown_names_raise_value_error(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            make_mechanism("psychic")
        with pytest.raises(ValueError, match="unknown attack"):
            make_attack("psychic")
        with pytest.raises(ValueError, match="unknown metric"):
            make_metric("psychic")

    def test_invalid_parameters_raise_value_error(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            make_mechanism("identity:bogus_knob=1")

    def test_register_roundtrip_and_duplicate_rejection(self):
        calls = {}
        before = list_mechanisms()

        @register_mechanism("test-noop-mechanism")
        def _noop(strength: float = 1.0):
            calls["strength"] = strength
            return IdentityMechanism()

        try:
            assert "test-noop-mechanism" in list_mechanisms()
            mechanism = make_mechanism("test-noop-mechanism:strength=2.5")
            assert calls["strength"] == 2.5
            assert isinstance(mechanism, IdentityMechanism)
            with pytest.raises(ValueError, match="already registered"):
                register_mechanism("test-noop-mechanism")(lambda: IdentityMechanism())
        finally:
            MECHANISMS.unregister("test-noop-mechanism")
        assert "test-noop-mechanism" not in list_mechanisms()

        # A name or alias no spec string can spell is refused up front, and
        # refusing an alias registers nothing under the name either.
        for bad in ("Bad:Name", "a,b", "a=b", "a|b", "", " pad", "two words", "tab\t"):
            with pytest.raises(RegistryError, match="cannot be spelled in a spec"):
                register_mechanism(bad)(lambda: IdentityMechanism())
            with pytest.raises(RegistryError, match="cannot be spelled in a spec"):
                register_mechanism("test-aliased", aliases=(bad,))(lambda: IdentityMechanism())
            assert "test-aliased" not in list_mechanisms()
        assert list_mechanisms() == before

    def test_alias_collision_leaves_no_partial_registration(self):
        from repro.api.registry import Registry, RegistryError

        registry = Registry("mechanism")
        registry.register("taken")(lambda: "old")
        with pytest.raises(RegistryError):
            registry.register("fresh", aliases=("taken",))(lambda: "new")
        assert "fresh" not in registry
        assert registry.names() == ["taken"]
        registry.register("fresh")(lambda: "new")  # name not blocked

    def test_unregister_scoped_to_one_registration_group(self):
        from repro.api.registry import Registry

        registry = Registry("mechanism")
        shared = lambda: "shared"  # noqa: E731
        registry.register("name-a", aliases=("alias-a",))(shared)
        registry.register("name-b")(shared)
        registry.unregister("alias-a")  # by alias: whole group goes ...
        assert "name-a" not in registry and "alias-a" not in registry
        assert registry.names() == ["name-b"]  # ... but the sibling survives
        assert "name-b" in registry

    def test_spec_parameters_reach_the_mechanism(self):
        mechanism = make_mechanism("geo-ind:epsilon_per_m=0.005,seed=7")
        assert isinstance(mechanism, GeoIndistinguishabilityMechanism)
        assert mechanism.config.epsilon_per_m == 0.005
        assert mechanism.config.seed == 7

    def test_default_suite_resolvable_from_specs(self):
        for spec in DEFAULT_MECHANISM_SPECS.values():
            mechanism = make_mechanism(spec, defaults={"seed": 0})
            assert hasattr(mechanism, "publish")
        strong = make_mechanism(DEFAULT_MECHANISM_SPECS["geo-ind-strong"], defaults={"seed": 0})
        assert strong.config.epsilon_per_m == pytest.approx(np.log(2.0) / 200.0)
        assert strong.config.seed == 0


#: Every registered attack that once took an ``engine`` implementation selector.
ENGINE_SPECS = [
    "poi-retrieval:engine=vectorized",
    "reident:engine=reference",
    "tracking:engine=reference",
]

#: Every config, class, evaluator, runner and helper that once took ``engine``.
ENGINE_CALLS = {
    "PoiExtractionConfig": lambda world: PoiExtractionConfig(engine="reference"),
    "DjClusterConfig": lambda world: DjClusterConfig(engine="reference"),
    "GapInferenceConfig": lambda world: GapInferenceConfig(engine="reference"),
    "ReidentificationConfig": lambda world: ReidentificationConfig(engine="reference"),
    "TrackingConfig": lambda world: TrackingConfig(engine="reference"),
    "MixZoneDetectionConfig": lambda world: MixZoneDetectionConfig(engine="reference"),
    "Wait4MeConfig": lambda world: Wait4MeConfig(engine="reference"),
    "FootprintReidentifier": lambda world: FootprintReidentifier(engine="reference"),
    "PoiRetrievalEvaluator": lambda world: PoiRetrievalEvaluator(engine="reference"),
    "ReidentEvaluator": lambda world: ReidentEvaluator(engine="reference"),
    "TrackingEvaluator": lambda world: TrackingEvaluator(engine="reference"),
    "run_poi_retrieval": lambda world: run_poi_retrieval(world, engine="reference"),
    "run_reidentification": lambda world: run_reidentification(world, engine="reference"),
    "run_tracking": lambda world: run_tracking(world, engine="reference"),
    "extract_pois": lambda world: extract_pois(next(iter(world.dataset)), engine="reference"),
    "dj_cluster": lambda world: dj_cluster(next(iter(world.dataset)), engine="reference"),
    "infer_pois_from_gaps": lambda world: infer_pois_from_gaps(
        next(iter(world.dataset)), engine="reference"
    ),
    "detect_mix_zones": lambda world: detect_mix_zones(world.dataset, engine="reference"),
}


class TestNoImplementationSelector:
    """Scalar oracles are ``*_reference`` entry points, never a setting."""

    @pytest.mark.parametrize("spec", ENGINE_SPECS)
    def test_engine_spec_parameter_is_unknown(self, spec):
        with pytest.raises(RegistryError, match="invalid parameters.*engine"):
            make_attack(spec)

    @pytest.mark.parametrize("name", sorted(ENGINE_CALLS))
    def test_engine_argument_is_unknown(self, name, tiny_world):
        with pytest.raises(TypeError, match="engine"):
            ENGINE_CALLS[name](tiny_world)


#: Every ``run_*`` runner; each evaluates on the one shared engine.
RUNNERS = {
    "run_poi_retrieval": run_poi_retrieval,
    "run_spatial_distortion": run_spatial_distortion,
    "run_area_coverage": run_area_coverage,
    "run_reidentification": run_reidentification,
    "run_tracking": run_tracking,
    "run_mixzone_stats": run_mixzone_stats,
    "run_tradeoff_frontier": run_tradeoff_frontier,
}


class TestNoRunnerRouting:
    """A backend or cache is chosen on ``EvaluationEngine``, never on a runner."""

    @pytest.mark.parametrize("keyword", ["scheduler", "cell_cache"])
    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_routing_keyword_is_unknown(self, name, keyword, tiny_world):
        with pytest.raises(TypeError, match=keyword):
            RUNNERS[name](tiny_world, **{keyword: "serial"})

    def test_engine_environment_is_not_read_at_import(self):
        env = {**os.environ, "REPRO_ENGINE_BACKEND": "bogus"}
        result = subprocess.run(
            [sys.executable, "-c", "import repro"], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestPublicationResult:
    def test_publish_returns_result_with_provenance(self, tiny_world):
        result = make_mechanism("promesse").publish(tiny_world.dataset)
        assert isinstance(result, PublicationResult)
        assert result.report is not None
        assert result.mechanism == "promesse"
        assert result.pseudonym_of is None
        assert set(result.identity_truth().values()) <= set(tiny_world.dataset.user_ids)

    def test_promesse_spec_matches_legacy_anonymizer(self, tiny_world):
        """Parity: the registry route reproduces Anonymizer point-for-point."""
        result = make_mechanism("promesse").publish(tiny_world.dataset)
        direct = Anonymizer().publish(tiny_world.dataset)
        assert [t.user_id for t in result.dataset] == [t.user_id for t in direct.dataset]
        for new, old in zip(result.dataset, direct.dataset):
            assert np.array_equal(np.asarray(new.timestamps), np.asarray(old.timestamps))
            assert np.array_equal(np.asarray(new.lats), np.asarray(old.lats))
            assert np.array_equal(np.asarray(new.lons), np.asarray(old.lons))
        assert result.report.n_zones == direct.report.n_zones
        assert result.report.n_swaps == direct.report.n_swaps
        assert result.report.suppressed_points == direct.report.suppressed_points

    def test_geo_ind_announces_noise_radius(self, tiny_world):
        result = make_mechanism("geo-ind:epsilon_per_m=0.005,seed=1").publish(
            tiny_world.dataset
        )
        assert result.properties["noise_radius_m"] == pytest.approx(400.0)
        assert result.properties["epsilon_per_m"] == 0.005

    def test_chain_spec_composes_pseudonym_provenance(self, tiny_world):
        chain = make_mechanism("smoothing:epsilon_m=100.0|pseudonyms:seed=3")
        assert isinstance(chain, ChainMechanism)
        result = chain.publish(tiny_world.dataset)
        truth = result.identity_truth()
        assert set(truth) == set(result.dataset.user_ids)
        assert set(truth.values()) == set(tiny_world.dataset.user_ids)
        assert all(label.startswith("p") for label in truth)

    def test_anonymizer_publish_returns_result(self, tiny_world):
        result = Anonymizer().publish(tiny_world.dataset)
        assert isinstance(result, PublicationResult)
        assert result.report is not None
        assert result.report.published_points == result.dataset.n_points

    @pytest.mark.parametrize("name", list_mechanisms())
    def test_every_mechanism_returns_result_and_keeps_no_state(self, name, small_world):
        """The one contract: publish() builds a PublicationResult and leaves
        the mechanism exactly as it found it (no ``last_*`` provenance)."""
        mechanism = MECHANISMS.create(name)
        before = dict(vars(mechanism))
        result = mechanism.publish(small_world.dataset)
        assert type(result) is PublicationResult
        assert dict(vars(mechanism)) == before

    def test_metric_callable_contract(self, tiny_world):
        metric = make_metric("point-retention")
        result = make_mechanism("downsampling:factor=10").publish(tiny_world.dataset)
        columns = metric(tiny_world.dataset, result)
        assert 0.0 < columns["point_retention"] < 1.0
