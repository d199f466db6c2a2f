"""E5 — multi-target tracking confusion versus mix-zone radius.

Regenerates the E5 tracking table (README "Running the evaluation"): a
Hoh-style multi-target tracker tries to re-link the published traces across
each mix-zone; the table reports the fraction of traversals it reconstructs
correctly, together with the number of zones, the number of effective swaps
and the theoretical mixing entropy.  Expected shape: tracking success stays
well below the certainty an attacker would have without mix-zones, for every
radius.
"""

from __future__ import annotations

from repro.experiments.formatting import format_table
from repro.experiments.runner import run_tracking
from repro.mixzones.swapping import SwapPolicy

HEADERS = [
    "zone_radius_m",
    "swap_policy",
    "n_zones",
    "n_swapped_zones",
    "tracking_success",
    "mixing_entropy_bits",
    "suppressed_points",
]
RADII = (50.0, 100.0, 200.0)


def test_e5_tracking_confusion(benchmark, crossing_eval_world):
    rows = benchmark.pedantic(
        lambda: run_tracking(crossing_eval_world, zone_radii_m=RADII, policy=SwapPolicy.ALWAYS),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(HEADERS, [[r[h] for h in HEADERS] for r in rows],
                       title="E5 - multi-target tracking success vs mix-zone radius"))

    assert all(r["n_zones"] > 0 for r in rows), "the crossing-rich workload must contain zones"
    assert all(r["n_swapped_zones"] > 0 for r in rows)
    # Without mix-zones the attacker links every traversal (success 1.0); the
    # mechanism must keep it clearly below that.
    assert all(r["tracking_success"] < 0.8 for r in rows)
    assert all(r["mixing_entropy_bits"] >= 1.0 for r in rows)


def test_e5_swap_policy_ablation(benchmark, crossing_eval_world):
    """E5 ablation: swap policy never / coin-flip / always."""
    def run_all_policies():
        return {
            policy.value: run_tracking(
                crossing_eval_world, zone_radii_m=(100.0,), policy=policy
            )[0]
            for policy in (SwapPolicy.NEVER, SwapPolicy.COIN_FLIP, SwapPolicy.ALWAYS)
        }

    results = benchmark.pedantic(run_all_policies, rounds=1, iterations=1)
    rows = [[name, r["n_zones"], r["n_swapped_zones"], r["tracking_success"]] for name, r in results.items()]
    print()
    print(format_table(["policy", "n_zones", "n_swapped_zones", "tracking_success"], rows,
                       title="E5 ablation - swap policy"))
    assert results["never"]["n_swapped_zones"] == 0
    assert results["always"]["n_swapped_zones"] >= results["coin_flip"]["n_swapped_zones"]
