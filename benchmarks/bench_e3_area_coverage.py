"""E3 — area coverage (utility) per mechanism and cell size.

Regenerates the E3 area-coverage table (README "Running the evaluation"): the
F-score between the set of grid cells visited by the published data and by the
original data, at several cell sizes.  Expected shape: the paper's mechanisms
track the raw coverage closely (their points lie on the real paths), while
noising mechanisms spill points into never-visited cells and lose precision.
"""

from __future__ import annotations

from repro.experiments.formatting import format_table
from repro.experiments.runner import run_area_coverage

HEADERS = ["mechanism", "cell_size_m", "precision", "recall", "f_score"]
CELL_SIZES = (100.0, 200.0, 400.0, 800.0)


def test_e3_area_coverage(benchmark, eval_world):
    rows = benchmark.pedantic(
        lambda: run_area_coverage(eval_world, cell_sizes_m=CELL_SIZES), rounds=1, iterations=1
    )
    print()
    print(format_table(HEADERS, [[r[h] for h in HEADERS] for r in rows],
                       title="E3 - area coverage per mechanism and cell size"))

    def f_score(mechanism: str, cell_size: float) -> float:
        return next(
            r["f_score"] for r in rows if r["mechanism"] == mechanism and r["cell_size_m"] == cell_size
        )

    assert f_score("raw", 200.0) == 1.0
    # At the 200 m granularity, our published cells remain close to the truth
    # while the strong Geo-I noise scatters points into unvisited cells.
    assert f_score("smoothing-eps100", 200.0) > f_score("geo-ind-strong", 200.0)
    assert f_score("paper-full", 400.0) > 0.6
