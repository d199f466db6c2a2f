"""E1 — POI retrieval (precision / recall / F-score) per mechanism.

Regenerates the E1 POI-hiding table (README "Running the evaluation"): the
stay-point attack (and DJ-Cluster as a secondary attack) is run against every
mechanism of the comparison suite, and the scores are computed against the
ground-truth POIs of the synthetic world.  The expected shape: raw and
down-sampled data leak every POI, Geo-Indistinguishability leaves the majority
recoverable, the paper's mechanisms hide almost all of them.

``test_e1_poi_attack_engines`` additionally times the two attacks under both
implementations (the columnar ``extract_dataset`` versus the scalar
``extract_dataset_reference`` oracle) on the raw workload and records the comparison in ``BENCH_e1_poi.<scale>.json`` —
the artifact the CI benchmark-regression gate diffs against its committed
baseline.
"""

from __future__ import annotations

from repro.attacks.djcluster import DjCluster
from repro.attacks.poi_extraction import PoiExtractor
from repro.experiments.formatting import format_table
from repro.experiments.runner import run_poi_retrieval


HEADERS = ["mechanism", "attack", "precision", "recall", "f_score", "n_true_pois", "n_extracted"]

#: Pre-refactor wall seconds of `extract_dataset` on the raw standard world,
#: by (attack, scale): the point-by-point implementations at commit 2871a92,
#: best of three runs on the same workloads this bench generates.
PRE_REFACTOR_S = {
    ("staypoint", "small"): 0.0345,
    ("staypoint", "medium"): 0.2487,
    ("djcluster", "small"): 0.9271,
    ("djcluster", "medium"): 13.66,
}


def test_e1_poi_retrieval_staypoint(benchmark, eval_world):
    rows = benchmark.pedantic(
        lambda: run_poi_retrieval(eval_world, attack="staypoint"), rounds=1, iterations=1
    )
    print()
    print(format_table(HEADERS, [[r[h] for h in HEADERS] for r in rows],
                       title="E1 - POI retrieval, stay-point attack"))

    by_name = {r["mechanism"]: r for r in rows}
    assert by_name["raw"]["recall"] > 0.9
    assert by_name["downsample-x10"]["recall"] > 0.9
    # The paper's statement: Geo-I leaves at least 60 % of POIs recoverable.
    assert by_name["geo-ind-weak"]["recall"] >= 0.6
    # The paper's mechanisms hide the vast majority of POIs.
    assert by_name["smoothing-eps100"]["recall"] < 0.3
    assert by_name["paper-full"]["recall"] < 0.3
    assert by_name["paper-full"]["f_score"] < by_name["geo-ind-weak"]["f_score"]


def test_e1_poi_retrieval_djcluster(benchmark, eval_world):
    rows = benchmark.pedantic(
        lambda: run_poi_retrieval(eval_world, attack="djcluster"), rounds=1, iterations=1
    )
    print()
    print(format_table(HEADERS, [[r[h] for h in HEADERS] for r in rows],
                       title="E1 (ablation) - POI retrieval, DJ-Cluster attack"))

    by_name = {r["mechanism"]: r for r in rows}
    assert by_name["raw"]["recall"] > 0.8
    assert by_name["smoothing-eps100"]["recall"] < by_name["raw"]["recall"]


def test_e1_poi_attack_engines(eval_world, bench_artifact, bench_timer, evaluation_scale):
    """Both POI attacks, columnar kernels versus the scalar reference oracles."""
    dataset = eval_world.dataset
    dataset.columnar()  # shared cache: time the attacks, not the flattening
    attacks = {"staypoint": PoiExtractor(), "djcluster": DjCluster()}

    timings, rows = {}, []
    for attack, extractor in attacks.items():
        vec_out, vec_samples = bench_timer(lambda: extractor.extract_dataset(dataset))
        # The reference oracles are quadratic-ish: one timed run is plenty.
        ref_out, ref_samples = bench_timer(
            lambda: extractor.extract_dataset_reference(dataset), repeats=1
        )
        vec_s, ref_s = min(vec_samples), min(ref_samples)
        assert vec_out == ref_out, f"{attack}: engines must produce identical POIs"
        before = PRE_REFACTOR_S.get((attack, evaluation_scale))
        timings[f"{attack}_vectorized"] = {
            "wall_s": vec_s,
            "wall_s_samples": vec_samples,
            "points_per_s": dataset.n_points / vec_s if vec_s > 0 else None,
            "pre_refactor_wall_s": before,
            "speedup_vs_reference": ref_s / vec_s if vec_s > 0 else None,
        }
        timings[f"{attack}_reference"] = {"wall_s": ref_s, "wall_s_samples": ref_samples}
        rows.append(
            {
                "attack": attack,
                "vectorized_s": vec_s,
                "reference_s": ref_s,
                "speedup": ref_s / vec_s if vec_s > 0 else None,
                "n_pois": sum(len(v) for v in vec_out.values()),
            }
        )

    path = bench_artifact(
        "e1_poi",
        timings=timings,
        rows=rows,
        baseline={
            "pre_refactor": {
                attack: seconds
                for (attack, scale), seconds in PRE_REFACTOR_S.items()
                if scale == evaluation_scale
            },
            "measured_at_commit": "pre-PR (2871a92)",
        },
        extra={"workload": {"users": len(dataset), "points": dataset.n_points}},
    )
    print()
    print(format_table(
        ["attack", "vectorized_s", "reference_s", "speedup", "n_pois"],
        [[r[h] for h in ("attack", "vectorized_s", "reference_s", "speedup", "n_pois")]
         for r in rows],
        title=f"E1 attack engines at scale={evaluation_scale} (artifact: {path})",
    ))

    # Regression bar at the medium workload (the columnar port shipped at
    # >= 3x; the staypoint gap narrowed to ~2.5x when the kernel/trajectory
    # layer grew memmap compatibility for the out-of-core tier, so the bar
    # here matches E4's 2x — the calibrated artifact gate tracks the exact
    # wall times).  Timings at other scales are recorded but not asserted
    # (the CI smoke runs at small scale on noisy shared runners).
    if evaluation_scale == "medium":
        for row in rows:
            assert row["speedup"] >= 2.0, (
                f"{row['attack']}: vectorized engine must be >= 2x the reference "
                f"at medium scale, got {row['speedup']:.2f}x"
            )
