"""E6 — the privacy / utility trade-off frontier.

Regenerates the E6 frontier figure (README "Running the evaluation") as a
table: every mechanism family is swept over its main knob and each setting is
placed on the (POI-retrieval F-score, median spatial distortion) plane, with
area coverage, point retention and range-query error as secondary utility
columns.  Expected shape: the paper's mechanisms occupy the low-F-score /
low-distortion corner that neither Geo-I nor Wait-For-Me reaches.
"""

from __future__ import annotations

from repro.experiments.formatting import format_table
from repro.experiments.runner import run_tradeoff_frontier

HEADERS = [
    "mechanism",
    "poi_f_score",
    "poi_recall",
    "median_distortion_m",
    "area_coverage_f",
    "point_retention",
    "range_query_error",
]


def test_e6_tradeoff_frontier(benchmark, eval_world):
    rows = benchmark.pedantic(lambda: run_tradeoff_frontier(eval_world), rounds=1, iterations=1)
    print()
    print(format_table(HEADERS, [[r[h] for h in HEADERS] for r in rows],
                       title="E6 - privacy/utility trade-off frontier"))

    by_name = {r["mechanism"]: r for r in rows}
    ours = by_name["paper-full"]
    # The frontier claim: no baseline simultaneously beats our mechanism on
    # both privacy (lower POI F-score) and utility (lower median distortion).
    for name, row in by_name.items():
        if name in ("paper-full", "raw") or name.startswith("smoothing"):
            continue
        strictly_better = (
            row["poi_f_score"] < ours["poi_f_score"] and row["median_distortion_m"] < ours["median_distortion_m"]
        )
        assert not strictly_better, f"{name} unexpectedly dominates the paper's mechanism"
    # Larger smoothing epsilon trades points for protection monotonically.
    assert by_name["smoothing-eps400"]["point_retention"] <= by_name["smoothing-eps50"]["point_retention"]
