"""Tests for the declarative evaluation engine: cross products, caching,
multiprocessing fan-out and schema parity with the legacy runners."""

from __future__ import annotations

import pytest

from repro.api.registry import RegistryError
from repro.experiments.engine import (
    EvaluationEngine,
    ExperimentSpec,
    make_world,
)
from repro.experiments.runner import run_poi_retrieval, run_spatial_distortion
from repro.experiments.workloads import standard_world


@pytest.fixture(scope="module")
def world():
    return standard_world("tiny", seed=5)


def _basic_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="engine-test",
        mechanisms=["identity", "downsampling:factor=10"],
        attacks=["poi-retrieval:algorithm=staypoint"],
        metrics=["point-retention"],
        worlds=["world"],
    )


class TestExperimentSpec:
    def test_cross_product_order_and_size(self):
        spec = ExperimentSpec(
            name="t",
            mechanisms=["identity", "pseudonyms"],
            attacks=[None, "zone-census:radius_m=100.0"],
            metrics=["point-retention", ("swap-stats", "mixing-entropy")],
            seeds=[0, 1],
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2 * 2
        assert [c["index"] for c in cells] == list(range(16))
        # Mechanisms vary slower than attacks, attacks slower than metric groups.
        assert cells[0]["mech_label"] == "identity" and cells[0]["attack_item"] is None
        assert cells[1]["metric_group"] == ("swap-stats", "mixing-entropy")

    def test_metric_strings_become_single_groups(self):
        spec = ExperimentSpec(name="t", mechanisms=["identity"], metrics=["point-retention"])
        assert spec.cells()[0]["metric_group"] == ("point-retention",)


class TestEvaluationEngine:
    def test_rows_schema_and_order(self, world):
        rows = EvaluationEngine().run(_basic_spec(), worlds={"world": world})
        assert len(rows) == 2
        assert [row["mechanism"] for row in rows] == ["identity", "downsampling:factor=10"]
        for row in rows:
            assert row["world"] == "world" and row["seed"] == 0
            assert {"precision", "recall", "f_score", "point_retention"} <= set(row)
        assert rows[0]["point_retention"] == 1.0
        assert rows[1]["point_retention"] < 1.0

    def test_seed_axis_reaches_seedable_mechanisms(self, world):
        spec = ExperimentSpec(
            name="seeded",
            mechanisms=["geo-ind:epsilon_per_m=0.01"],
            metrics=["spatial-distortion"],
            seeds=[0, 1],
            worlds=["world"],
        )
        rows = EvaluationEngine().run(spec, worlds={"world": world})
        assert len(rows) == 2
        assert rows[0]["seed"] == 0 and rows[1]["seed"] == 1
        # Different seeds -> different noise draws.
        assert rows[0]["median_m"] != rows[1]["median_m"]

    def test_per_cell_caching(self, world):
        engine = EvaluationEngine(cache=True)
        first = engine.run(_basic_spec(), worlds={"world": world})
        assert engine.cache_hits == 0 and engine.cache_misses == 2
        second = engine.run(_basic_spec(), worlds={"world": world})
        assert engine.cache_hits == 2
        assert second == first
        engine.clear_cache()
        assert engine.cache_hits == 0

    def test_cache_distinguishes_same_shape_worlds(self):
        from repro.datagen.mobility import generate_world
        from repro.datagen.noise import GpsNoiseConfig

        quiet = generate_world(
            n_users=2, n_days=1, seed=0,
            noise_config=GpsNoiseConfig(horizontal_error_m=5.0, seed=1),
        )
        noisy = generate_world(
            n_users=2, n_days=1, seed=0,
            noise_config=GpsNoiseConfig(horizontal_error_m=500.0, seed=1),
        )
        # Same point counts and timestamps, different coordinates: the cell
        # cache must not serve one world's rows for the other.
        assert quiet.dataset.n_points == noisy.dataset.n_points
        engine = EvaluationEngine(cache=True)
        spec = ExperimentSpec(
            name="fp", mechanisms=["identity"],
            metrics=["area-coverage:cell_size_m=100.0"], worlds=["world"],
        )
        from repro.experiments.engine import _world_fingerprint

        assert _world_fingerprint(quiet) != _world_fingerprint(noisy)
        engine.run(spec, worlds={"world": quiet})
        engine.run(spec, worlds={"world": noisy})
        assert engine.cache_hits == 0 and engine.cache_misses == 2

    def test_parallel_matches_sequential(self, world):
        spec = ExperimentSpec(
            name="parallel",
            mechanisms=["identity", "downsampling:factor=5", "pseudonyms:seed=1"],
            metrics=[("point-retention", "area-coverage:cell_size_m=400.0")],
            worlds=["world"],
        )
        sequential = EvaluationEngine(workers=1, cache=False).run(
            spec, worlds={"world": world}
        )
        parallel = EvaluationEngine(workers=2, cache=False).run(
            spec, worlds={"world": world}
        )
        assert parallel == sequential

    @pytest.mark.parametrize("axis", ["mechanisms", "attacks", "worlds"])
    def test_objects_on_axes_rejected(self, axis, world):
        from repro.baselines.trivial import IdentityMechanism

        axes = {"mechanisms": ["identity"], "attacks": [None], "worlds": ["world"]}
        axes[axis] = [("obj", IdentityMechanism())]
        spec = ExperimentSpec(name="objects", metrics=["point-retention"], **axes)
        with pytest.raises(
            RegistryError, match=f"{axis[:-1]} axis .* got IdentityMechanism"
        ):
            EvaluationEngine().run(spec, worlds={"world": world})
        axes[axis] = [IdentityMechanism()]
        with pytest.raises(RegistryError, match=f"{axis[:-1]} axis"):
            EvaluationEngine().run(ExperimentSpec(name="objects", **axes), worlds={"world": world})

    def test_raw_attack_on_axis_is_rejected(self, world):
        spec = ExperimentSpec(
            name="bad-attack", mechanisms=["identity"], attacks=["staypoint"], worlds=["world"]
        )
        with pytest.raises(ValueError, match="run\\(result, context\\)"):
            EvaluationEngine().run(spec, worlds={"world": world})

    def test_unknown_world_spec_rejected(self):
        spec = ExperimentSpec(name="w", mechanisms=["identity"], worlds=["atlantis"])
        with pytest.raises(ValueError, match="unknown world"):
            EvaluationEngine().run(spec)

    def test_make_world_specs(self):
        world = make_world("generate:n_users=2,n_days=1,seed=3")
        assert len(world.dataset) == 2

    def test_prefix_namespaces_columns(self, world):
        spec = ExperimentSpec(
            name="prefixed",
            mechanisms=["identity"],
            metrics=[
                (
                    "area-coverage:cell_size_m=200.0,prefix=cov_",
                    "spatial-distortion",
                )
            ],
            worlds=["world"],
        )
        row = EvaluationEngine().run(spec, worlds={"world": world})[0]
        assert "cov_f_score" in row and "median_m" in row


class TestRunnerSchemaParity:
    """The engine-backed runners keep the legacy row schemas exactly."""

    def test_poi_retrieval_schema(self, world):
        rows = run_poi_retrieval(
            world, {"raw": "identity", "paper": "promesse:seed=0"}
        )
        assert [list(row.keys()) for row in rows] == [
            ["mechanism", "attack", "precision", "recall", "f_score",
             "n_true_pois", "n_extracted"]
        ] * 2
        assert rows[0]["attack"] == "staypoint"

    def test_spatial_distortion_schema_and_values(self, world):
        rows = run_spatial_distortion(world, {"raw": "identity"})
        assert list(rows[0].keys()) == [
            "mechanism", "mean_m", "median_m", "p95_m", "max_m",
            "point_retention", "trip_length_error",
        ]
        assert rows[0]["median_m"] == 0.0
        assert rows[0]["point_retention"] == 1.0

    def test_unknown_attack_rejected(self, world):
        with pytest.raises(ValueError):
            run_poi_retrieval(world, {"raw": "identity"}, attack="psychic")

    def test_reidentification_through_engine(self):
        from repro.experiments.runner import run_reidentification
        from repro.experiments.workloads import crossing_rich_world

        rows = run_reidentification(crossing_rich_world("tiny", seed=3))
        assert [row["variant"] for row in rows] == [
            "pseudonyms-only",
            "smoothing+pseudonyms",
            "paper-full(swap=never)",
            "paper-full(swap=coin_flip)",
            "paper-full(swap=always)",
        ]
        for row in rows:
            assert 0.0 <= row["poi_attack_rate"] <= 1.0
            assert 0.0 <= row["footprint_attack_rate"] <= 1.0
