"""Stage sharing: each seedless stage runs once per group, rows as if alone.

Mechanisms of one (world, seed) that run a seedless stage (mix-zone
detection, speed smoothing) with the same config on the same input share one
engine group and one :class:`~repro.api.stages.StageMemo`.  These tests pin
what that may and may not change: stage call counts drop, planned group
counts match the benchmark workloads, rows equal each mechanism published
alone, and seeded stages (swap, pseudonyms, geo-ind) are never shared.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

import pytest

from repro.api.registry import make_mechanism
from repro.api.stages import StageMemo, input_stages
from repro.core.speed_smoothing import SpeedSmoother
from repro.experiments import DEFAULT_MECHANISM_SPECS
from repro.experiments import engine as engine_mod
from repro.experiments.backends import SchedulerBackend, SerialBackend
from repro.experiments.engine import (
    EvalContext,
    EvaluationEngine,
    ExperimentSpec,
    _evaluate_cells,
    _resolve_input,
)
from repro.experiments.worlds import make_world
from repro.mixzones.detection import MixZoneDetector
from repro.mixzones.swapping import MixZoneSwapper

PUBLISH_HALF = "publish-half:train_fraction=0.5"

#: The E4' variants: pseudonyms alone, smoothing then pseudonyms, and the
#: three swap policies of the full pipeline.
E4_VARIANTS: List[Tuple[str, str]] = [
    ("pseudonyms-only", "pseudonyms:seed=0"),
    ("smoothing+pseudonyms", "smoothing:epsilon_m=100.0|pseudonyms:seed=0"),
] + [
    (f"paper-full(swap={policy})", f"promesse:swap={policy},seed=0")
    for policy in ("never", "coin_flip", "always")
]


@pytest.fixture(scope="module")
def world():
    # Six users, three zones on the full input; swaps differ between seeds.
    return make_world("generate:n_users=6,n_days=1,seed=3")


class RecordingBackend(SchedulerBackend):
    """Serial evaluation that keeps every payload it was handed."""

    name = "recording"

    def __init__(self, evaluate: bool = True) -> None:
        self.evaluate = evaluate
        self.payloads: List[Tuple] = []

    def map_groups(self, payloads: Sequence[Tuple], cell_keys: Any = None, cache: Any = None):
        self.payloads.extend(payloads)
        if self.evaluate:
            return SerialBackend().map_groups(payloads)
        return [[(cell[0], {}) for cell in payload[6]] for payload in payloads]


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts calls of the three promesse stages while a test runs."""
    calls: Counter = Counter()
    for owner, name in (
        (SpeedSmoother, "smooth_dataset"),
        (MixZoneDetector, "detect"),
        (MixZoneSwapper, "apply"),
    ):
        original = getattr(owner, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _e4_prime(**overrides: Any) -> ExperimentSpec:
    fields: Dict[str, Any] = dict(
        name="e4-prime",
        mechanisms=E4_VARIANTS,
        metrics=["point-retention"],
        worlds=["crossing"],
        input=PUBLISH_HALF,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _group_count(spec: ExperimentSpec) -> int:
    backend = RecordingBackend(evaluate=False)
    EvaluationEngine(backend=backend, cache=False).run(spec, worlds={"crossing": object()})
    return len(backend.payloads)


class TestStageCalls:
    def test_e4_prime_smooths_and_detects_once(self, world, stage_calls):
        EvaluationEngine(cache=False).run(_e4_prime(), worlds={"crossing": world})
        assert stage_calls == {"smooth_dataset": 1, "detect": 1, "apply": 3}

    def test_published_alone_each_mechanism_runs_its_own_stages(self, world, stage_calls):
        dataset = _resolve_input(world, PUBLISH_HALF)
        for _, item in E4_VARIANTS:
            make_mechanism(item, defaults={"seed": 0}).publish(dataset)
        assert stage_calls == {"smooth_dataset": 4, "detect": 3, "apply": 3}

    def test_memo_is_made_per_group_call(self, world, monkeypatch):
        made: List[StageMemo] = []

        class Recorded(StageMemo):
            def __init__(self, source):
                super().__init__(source)
                made.append(self)

        monkeypatch.setattr(engine_mod, "StageMemo", Recorded)
        backend = RecordingBackend()
        EvaluationEngine(backend=backend, cache=False).run(
            _e4_prime(seeds=[0, 1]), worlds={"crossing": world}
        )
        assert len(made) == len(backend.payloads) == 4


class TestPlannedGroups:
    """Group counts of the benchmark's three workloads (the worlds never load)."""

    def test_privacy_batch(self):
        e1 = ExperimentSpec(
            name="e1",
            mechanisms=list(DEFAULT_MECHANISM_SPECS.items()),
            attacks=["poi-retrieval:algorithm=staypoint", "poi-retrieval:algorithm=djcluster"],
            worlds=["crossing"],
        )
        e5 = ExperimentSpec(
            name="e5",
            mechanisms=[f"promesse:zone_radius_m={r!r},swap=always" for r in (50.0, 100.0, 200.0)],
            attacks=["tracking"],
            worlds=["crossing"],
        )
        assert [_group_count(s) for s in (e1, _e4_prime(), e5)] == [7, 2, 1]

    def test_privacy_stream(self):
        assert _group_count(_e4_prime(mode="stream")) == 2

    def test_utility_fanout(self):
        spec = ExperimentSpec(
            name="utility",
            mechanisms=list(DEFAULT_MECHANISM_SPECS.items()),
            metrics=["point-retention"] + [f"area-coverage:cell_size_m={s}" for s in (100, 200)],
            worlds=["crossing"],
            seeds=(0, 1, 2),
        )
        assert _group_count(spec) == 21

    def test_groups_never_span_seeds_or_worlds(self):
        backend = RecordingBackend(evaluate=False)
        spec = _e4_prime(worlds=["crossing", "other"], seeds=[0, 1])
        EvaluationEngine(backend=backend, cache=False).run(
            spec, worlds={"crossing": object(), "other": object()}
        )
        assert len(backend.payloads) == 2 * 2 * 2
        seen = Counter((payload[1], payload[3]) for payload in backend.payloads)
        assert set(seen.values()) == {2}

    def test_seeded_mechanisms_declare_no_shared_stage(self):
        for item in ("identity", "pseudonyms:seed=1", "geo-ind:epsilon_per_m=0.01",
                     "wait4me:k=4,delta_m=500.0", "downsampling:factor=10",
                     "pseudonyms:seed=1|smoothing:epsilon_m=100.0"):
            assert input_stages(make_mechanism(item)) == frozenset(), item
        kinds = {kind for kind, _ in input_stages(make_mechanism("promesse"))}
        assert kinds == {"detect", "smooth"}


#: Mechanisms that share stages but not their seeded ones: explicit spec
#: seeds win over the engine's seed axis, so one group holds several swap
#: and pseudonym seeds.
SHARING_MECHANISMS = [
    "smoothing:epsilon_m=100.0",
    "promesse:swap=coin_flip,seed=1",
    "promesse:swap=coin_flip,seed=2",
    "promesse:swap=coin_flip",
    "promesse:swap=always,zone_radius_m=200.0",
    "smoothing:epsilon_m=100.0|pseudonyms:seed=1",
    "smoothing:epsilon_m=100.0|pseudonyms:seed=2",
    "smoothing:epsilon_m=100.0|smoothing:epsilon_m=200.0",
    "pseudonyms:seed=1|smoothing:epsilon_m=100.0",
    "pseudonyms:seed=2|smoothing:epsilon_m=100.0",
    "geo-ind:epsilon_per_m=0.01",
]


class TestRowsAsIfAlone:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_row_equals_the_mechanism_published_alone(self, world, seed):
        spec = ExperimentSpec(
            name="alone",
            mechanisms=SHARING_MECHANISMS,
            attacks=[None, "zone-census:radius_m=100.0"],
            metrics=[("point-retention", "spatial-distortion:match_by_user=true",
                      "swap-stats")],
            worlds=["world"],
            seeds=[seed],
            input="full",
        )
        backend = RecordingBackend()
        rows = EvaluationEngine(backend=backend, cache=False).run(spec, worlds={"world": world})
        assert len(backend.payloads) < len(SHARING_MECHANISMS)
        dataset = world.dataset
        context = EvalContext(world=world, world_key="world", input_dataset=dataset, seed=seed)
        for cell in spec.cells():
            alone = make_mechanism(cell["mech_item"], defaults={"seed": seed}).publish(dataset)
            ((_, expected),) = _evaluate_cells(
                alone, context, cell["mech_label"],
                [(cell["index"], 0, cell["attack_label"], cell["attack_item"],
                  cell["metric_group"])],
                None,
            )
            assert rows[cell["index"]] == expected, cell["mech_item"]

    def test_shared_publications_equal_alone(self, world):
        dataset = world.dataset
        memo = StageMemo(dataset)
        for item in SHARING_MECHANISMS:
            shared = make_mechanism(item, defaults={"seed": 0}, memo=memo).publish(dataset)
            alone = make_mechanism(item, defaults={"seed": 0}).publish(dataset)
            assert shared.pseudonym_of == alone.pseudonym_of, item
            assert list(shared.dataset) == list(alone.dataset), item


class TestSeededStagesRun:
    def test_memo_holds_only_seedless_stages(self, world):
        dataset = world.dataset
        memo = StageMemo(dataset)
        for item in SHARING_MECHANISMS:
            make_mechanism(item, memo=memo).publish(dataset)
        kinds = [[kind for kind, _ in key] for key in memo._outputs]
        assert sorted(kinds) == [["detect"], ["detect"], ["smooth"], ["smooth", "smooth"]]

    def test_seeded_stages_and_stages_after_them_always_run(self, world, stage_calls):
        dataset = world.dataset
        memo = StageMemo(dataset)
        for item in SHARING_MECHANISMS:
            make_mechanism(item, memo=memo).publish(dataset)
        # Four promesse swaps; smoothing after pseudonyms runs once per seed.
        assert stage_calls == {"apply": 4, "detect": 2, "smooth_dataset": 4}

    def test_stage_on_a_foreign_dataset_is_not_memoized(self, world):
        dataset = world.dataset
        other = _resolve_input(world, PUBLISH_HALF)
        memo = StageMemo(dataset)
        mechanism = make_mechanism("smoothing:epsilon_m=100.0", memo=memo)
        on_source = mechanism.publish(dataset).dataset
        on_other = mechanism.publish(other).dataset
        assert on_other is not on_source
        alone = make_mechanism("smoothing:epsilon_m=100.0").publish(other).dataset
        assert list(on_other) == list(alone)
