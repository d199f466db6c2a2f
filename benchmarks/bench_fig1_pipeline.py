"""FIG1 — the Figure 1 scenario: two users, one crossing, full pipeline.

Reproduces the three panels of the paper's only figure as data: the original
traces with their POIs (1a), the constant-speed traces (1b) and the swapped
traces (1c).  The benchmark measures the cost of the full pipeline on the
two-user scenario and prints what each panel would show.
"""

from __future__ import annotations

from repro.attacks.poi_extraction import PoiExtractor
from repro.core.pipeline import Anonymizer, AnonymizerConfig
from repro.core.speed_smoothing import smooth_dataset
from repro.experiments.formatting import format_table
from repro.experiments.workloads import figure1_world
from repro.mixzones.detection import MixZoneDetector
from repro.mixzones.swapping import SwapConfig, SwapPolicy


def test_fig1_pipeline(benchmark):
    world = figure1_world()
    anonymizer = Anonymizer(AnonymizerConfig(swapping=SwapConfig(policy=SwapPolicy.ALWAYS, seed=0)))

    result = benchmark.pedantic(
        lambda: anonymizer.publish(world.dataset), rounds=3, iterations=1
    )
    published, report = result.dataset, result.report

    extractor = PoiExtractor()
    smoothed = smooth_dataset(world.dataset)
    zones = MixZoneDetector().detect(world.dataset)

    rows = []
    for panel, dataset in (
        ("1a original", world.dataset),
        ("1b constant speed", smoothed),
        ("1c after swapping", published),
    ):
        pois = sum(len(v) for v in extractor.extract_dataset(dataset).values())
        rows.append([panel, len(dataset), dataset.n_points, pois])
    print()
    print(
        format_table(
            ["panel", "users", "points", "POIs visible to the attack"],
            rows,
            title="FIG1 - the Figure 1 scenario (2 users, 1 day)",
        )
    )
    print(f"natural mix-zones detected: {len(zones)}; swaps performed: {report.n_swaps}")
    assert len(zones) >= 1, "the Figure 1 scenario must contain a natural mix-zone"

    raw_pois = sum(len(v) for v in extractor.extract_dataset(world.dataset).values())
    protected_pois = sum(len(v) for v in extractor.extract_dataset(published).values())
    assert raw_pois >= 2, "the original traces must show POIs (panel 1a)"
    assert protected_pois < raw_pois, "the protected traces must hide POIs (panels 1b/1c)"
