"""E7 — anonymization throughput versus dataset size.

Regenerates the E7 scalability figure (README "Running the evaluation"): the
full pipeline (and the smoothing step alone) is timed on growing user
populations and reported as points processed per second.  This is the
benchmark where pytest-benchmark's timing statistics are the result itself;
the assertions only check that throughput does not collapse with size (the
pipeline is near-linear).
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import Anonymizer
from repro.core.speed_smoothing import SpeedSmoother
from repro.datagen.mobility import generate_world
from repro.experiments.formatting import format_table
from repro.io.world_store import WorldStore


@pytest.fixture(scope="module")
def sized_worlds():
    return {
        n_users: generate_world(n_users=n_users, n_days=3, seed=42)
        for n_users in (10, 25, 50)
    }


@pytest.mark.parametrize("n_users", [10, 25, 50])
def test_e7_full_pipeline_throughput(benchmark, sized_worlds, n_users):
    world = sized_worlds[n_users]
    anonymizer = Anonymizer()
    result = benchmark.pedantic(lambda: anonymizer.publish(world.dataset), rounds=3, iterations=1)
    published = result.dataset
    throughput = world.dataset.n_points / max(benchmark.stats.stats.mean, 1e-9)
    print()
    print(
        format_table(
            ["users", "input_points", "published_points", "points_per_second"],
            [[n_users, world.dataset.n_points, published.n_points, int(throughput)]],
            title="E7 - full pipeline throughput",
        )
    )
    assert published.n_points > 0
    assert throughput > 1_000, "the pipeline must process at least a thousand points per second"


def test_e7_smoothing_only_throughput(benchmark, sized_worlds):
    world = sized_worlds[50]
    smoother = SpeedSmoother()
    published = benchmark.pedantic(lambda: smoother.smooth_dataset(world.dataset), rounds=3, iterations=1)
    assert published.n_points > 0


def test_e7_out_of_core_throughput(
    sized_worlds, tmp_path_factory, bench_artifact, bench_timer, evaluation_scale
):
    """The full pipeline on a memmap-backed world, versus the in-memory one.

    The out-of-core case of the scalability figure: the input dataset never
    lives in memory (zero-copy views over the store's columns), and
    throughput must stay within the same order of magnitude as the in-memory
    run.  Also records both timings in ``BENCH_e7_scalability.json``.
    """
    world = sized_worlds[50]
    store = WorldStore.write(
        world.dataset, tmp_path_factory.mktemp("e7-store") / "world"
    )

    published_memory, memory_samples = bench_timer(
        lambda: Anonymizer().publish(world.dataset)
    )
    published_store, store_samples = bench_timer(
        lambda: Anonymizer().publish(store.dataset())
    )
    assert published_store.dataset.n_points == published_memory.dataset.n_points
    memory_s, store_s = min(memory_samples), min(store_samples)

    n_points = world.dataset.n_points
    timings = {
        "pipeline_memory": {
            "wall_s": memory_s,
            "wall_s_samples": memory_samples,
            "points_per_s": n_points / memory_s if memory_s > 0 else None,
        },
        "pipeline_store": {
            "wall_s": store_s,
            "wall_s_samples": store_samples,
            "points_per_s": n_points / store_s if store_s > 0 else None,
        },
    }
    rows = [
        {"cell": cell, "wall_s": values["wall_s"], "points_per_s": values["points_per_s"]}
        for cell, values in timings.items()
    ]
    artifact = bench_artifact(
        "e7_scalability",
        timings=timings,
        rows=rows,
        extra={"workload": {"n_users": 50, "n_points": n_points}},
    )
    print()
    print(
        format_table(
            ["cell", "wall_s", "points_per_s"],
            [[r["cell"], r["wall_s"], r["points_per_s"]] for r in rows],
            title=f"E7 - out-of-core pipeline (artifact: {artifact})",
        )
    )
    assert store_s < max(memory_s, 1e-9) * 10.0, (
        "the memmap-backed pipeline must stay within 10x of the in-memory run"
    )
