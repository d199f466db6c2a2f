"""E4/E5 — re-identification and tracking: experiment table + engine timings.

Two benches share this module (and its crossing-rich workload fixtures):

* :func:`test_e4_reidentification` regenerates the E4 re-identification table
  (README "Running the evaluation") — an attacker trained on the first half of
  each user's history links the published pseudonyms of the second half back
  to the users, through the POI-matching attack and the spatial-footprint
  attack — and asserts its expected shape (plain pseudonymisation fully
  re-identifiable, hiding POIs kills the POI matcher, only trajectory swapping
  reduces the footprint attacker).
* :func:`test_e4_attack_engines` times the three attacks ported onto the
  columnar kernel layer —
the POI-matching linkage (:class:`~repro.attacks.reident.Reidentifier`), the
spatial-footprint matcher
(:class:`~repro.attacks.reident.FootprintReidentifier`) and the multi-target
tracker (:class:`~repro.attacks.tracking.MultiTargetTracker`) — under both
implementations (the vectorized methods versus their scalar ``*_reference``
oracle entry points), asserting identical outputs, and records the comparison in
``BENCH_e4_reident.<scale>.json`` — an artifact the CI benchmark-regression
gate diffs against its committed baseline.  The POI matcher is timed on its
linkage stage (similarity matrix + assignment) with extraction precomputed:
the stay-point scan was ported and benchmarked in the E1 bench (PR 3), and
both engines of this attack share it.  The end-to-end ``attack()`` wall
(extraction included) is recorded alongside as an informational cell.

The ``e4_engine_publish`` cell times the E4 variants' publications alone:
an attack-free :class:`~repro.experiments.engine.ExperimentSpec` through
``EvaluationEngine.run``.  Its baseline is the same run before the engine
shared seedless stages between mechanisms, when the five variants smoothed
the published half four times and detected its mix-zones three times.
"""

from __future__ import annotations

from repro.attacks.reident import FootprintReidentifier, Reidentifier
from repro.attacks.tracking import MultiTargetTracker
from repro.experiments.engine import EvaluationEngine, ExperimentSpec
from repro.experiments.formatting import format_table
from repro.experiments.runner import run_reidentification
from repro.experiments.workloads import split_train_publish
from repro.mixzones.detection import detect_mix_zones

E4_TABLE_HEADERS = [
    "variant",
    "poi_attack_rate",
    "footprint_attack_rate",
    "published_users",
    "n_zones",
    "n_swaps",
]


def test_e4_reidentification(benchmark, crossing_eval_world):
    """The E4 experiment table, asserting its expected qualitative shape."""
    rows = benchmark.pedantic(
        lambda: run_reidentification(crossing_eval_world), rounds=1, iterations=1
    )
    print()
    print(format_table(
        E4_TABLE_HEADERS,
        [[r[h] for h in E4_TABLE_HEADERS] for r in rows],
        title="E4 - re-identification rate per publication variant",
    ))

    by_variant = {r["variant"]: r for r in rows}
    baseline = by_variant["pseudonyms-only"]
    assert baseline["poi_attack_rate"] > 0.8, "pseudonyms alone must not resist the POI attack"
    assert baseline["footprint_attack_rate"] > 0.8

    smoothing = by_variant["smoothing+pseudonyms"]
    assert smoothing["poi_attack_rate"] < 0.2, "hiding POIs defeats the POI-matching attacker"

    never = by_variant["paper-full(swap=never)"]
    always = by_variant["paper-full(swap=always)"]
    assert always["n_swaps"] > 0
    assert always["footprint_attack_rate"] <= never["footprint_attack_rate"], (
        "swapping must not make the footprint attacker stronger"
    )
    assert always["footprint_attack_rate"] < baseline["footprint_attack_rate"]

#: Pre-refactor wall seconds of the end-to-end attacks on the raw crossing
#: workload, by (attack, scale): the point-by-point implementations at commit
#: a172a2e, best of three runs on the same workloads this bench generates.
PRE_REFACTOR_S = {
    ("reident_poi", "small"): 0.0125,
    ("reident_poi", "medium"): 0.0933,
    ("reident_footprint", "small"): 0.00239,
    ("reident_footprint", "medium"): 0.0205,
    ("tracking", "small"): 0.0126,
    ("tracking", "medium"): 0.573,
}


#: Wall seconds of the ``e4_engine_publish`` cell by scale at commit d867c70,
#: where each mechanism published alone: min of 7 runs on a 2-vCPU container.
ENGINE_PUBLISH_PARENT_S = {"small": 0.0499, "medium": 0.1887}

#: The E4 variants of ``run_reidentification`` at seed 0.
E4_VARIANTS = [
    ("pseudonyms-only", "pseudonyms:seed=0"),
    ("smoothing+pseudonyms", "smoothing:epsilon_m=100.0|pseudonyms:seed=0"),
] + [
    (f"paper-full(swap={policy})", f"promesse:swap={policy},seed=0")
    for policy in ("never", "coin_flip", "always")
]


def _reident_results_equal(a, b) -> bool:
    return a.predicted == b.predicted and a.scores == b.scores


def test_e4_attack_engines(
    crossing_eval_world, bench_artifact, bench_timer, evaluation_scale
):
    """The three E4/E5 adversaries, columnar kernels versus scalar oracles."""
    world = crossing_eval_world
    training, publish = split_train_publish(world, 0.5)
    publish.columnar()  # shared cache: time the attacks, not the flattening
    training.columnar()

    timings, rows = {}, []

    def record(attack: str, vec_samples: list, ref_samples: list, extra_vec=None):
        before = PRE_REFACTOR_S.get((attack, evaluation_scale))
        vec_s, ref_s = min(vec_samples), min(ref_samples)
        timings[f"{attack}_vectorized"] = {
            "wall_s": vec_s,
            "wall_s_samples": vec_samples,
            "pre_refactor_wall_s": before,
            "speedup_vs_reference": ref_s / vec_s if vec_s > 0 else None,
        }
        timings[f"{attack}_reference"] = {"wall_s": ref_s, "wall_s_samples": ref_samples}
        if extra_vec is not None:
            timings[f"{attack}_attack_vectorized"] = {
                "wall_s": min(extra_vec),
                "wall_s_samples": extra_vec,
            }
        rows.append(
            {
                "attack": attack,
                "vectorized_s": vec_s,
                "reference_s": ref_s,
                "speedup": ref_s / vec_s if vec_s > 0 else None,
            }
        )

    # -- POI-matching linkage (similarity matrix + assignment) -----------------
    poi = Reidentifier()
    knowledge = poi.knowledge_from_dataset(training)
    extracted = poi._extractor.extract_dataset(publish)
    out_v, vec_samples = bench_timer(lambda: poi.attack(publish, knowledge, extracted))
    out_r, ref_samples = bench_timer(
        lambda: poi.attack_reference(publish, knowledge, extracted)
    )
    assert _reident_results_equal(out_v, out_r), "reident engines must agree"
    _, end_to_end = bench_timer(lambda: poi.attack(publish, knowledge))
    record("reident_poi", vec_samples, ref_samples, extra_vec=end_to_end)

    # -- spatial-footprint matcher (footprints + Jaccard + assignment) ---------
    fp = FootprintReidentifier()
    fp_knowledge = fp.knowledge_from_dataset(training)
    out_v, vec_samples = bench_timer(lambda: fp.attack(publish, fp_knowledge))
    out_r, ref_samples = bench_timer(lambda: fp.attack_reference(publish, fp_knowledge))
    assert _reident_results_equal(out_v, out_r), "footprint engines must agree"
    record("reident_footprint", vec_samples, ref_samples)

    # -- multi-target tracking over every detected zone ------------------------
    zones = detect_mix_zones(world.dataset, radius_m=100.0)
    tracker = MultiTargetTracker()
    links_v, vec_samples = bench_timer(lambda: tracker.link_zones(world.dataset, zones))
    links_r, ref_samples = bench_timer(
        lambda: tracker.link_zones_reference(world.dataset, zones)
    )
    assert len(links_v) == len(links_r)
    for linkage_v, linkage_r in zip(links_v, links_r):
        assert linkage_v.links == linkage_r.links, "tracking engines must agree"
        assert linkage_v.incoming == linkage_r.incoming
        assert linkage_v.outgoing == linkage_r.outgoing
    record("tracking", vec_samples, ref_samples)

    # -- the E4 publications through the engine, no attack ---------------------
    publish_spec = ExperimentSpec(
        name="e4-engine-publish",
        mechanisms=E4_VARIANTS,
        worlds=["world"],
        input="publish-half:train_fraction=0.5",
    )
    _, samples = bench_timer(
        lambda: EvaluationEngine(cache=False).run(publish_spec, worlds={"world": world})
    )
    parent_s = ENGINE_PUBLISH_PARENT_S.get(evaluation_scale)
    timings["e4_engine_publish"] = {
        "wall_s": min(samples),
        "wall_s_samples": samples,
        "parent_wall_s": parent_s,
        "speedup_vs_parent": parent_s / min(samples) if parent_s else None,
    }

    path = bench_artifact(
        "e4_reident",
        timings=timings,
        rows=rows,
        baseline={
            "pre_refactor": {
                attack: seconds
                for (attack, scale), seconds in PRE_REFACTOR_S.items()
                if scale == evaluation_scale
            },
            "measured_at_commit": "pre-PR (a172a2e)",
            "e4_engine_publish_parent": ENGINE_PUBLISH_PARENT_S.get(evaluation_scale),
        },
        extra={
            "workload": {
                "users": len(world.dataset),
                "points": world.dataset.n_points,
                "zones": len(zones),
            }
        },
    )
    print()
    print(format_table(
        ["attack", "vectorized_s", "reference_s", "speedup"],
        [[r[h] for h in ("attack", "vectorized_s", "reference_s", "speedup")]
         for r in rows],
        title=f"E4/E5 attack engines at scale={evaluation_scale} (artifact: {path})",
    ))

    # The acceptance bar of the columnar port: >= 2x at the medium workload.
    # Timings at other scales are recorded but not asserted (the CI smoke
    # runs at small scale on noisy shared runners).
    if evaluation_scale == "medium":
        for row in rows:
            assert row["speedup"] >= 2.0, (
                f"{row['attack']}: vectorized engine must be >= 2x the reference "
                f"at medium scale, got {row['speedup']:.2f}x"
            )
