"""Reproduction of Figure 1: two users, one mix-zone, three panels.

The paper illustrates its mechanism with two trajectories that each contain
two points of interest and cross once (Figure 1a), the same trajectories after
enforcing a constant speed (1b), and after swapping identifiers inside the
mix-zone (1c).  This example rebuilds that scenario and exports the three
panels as GeoJSON files that can be dropped into geojson.io or kepler.gl.

Run with::

    python examples/figure1_reproduction.py [output_directory]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import Anonymizer, AnonymizerConfig
from repro.attacks import PoiExtractor
from repro.core.speed_smoothing import smooth_dataset
from repro.experiments.workloads import figure1_world
from repro.io.geojson import write_geojson
from repro.mixzones.detection import MixZoneDetector
from repro.mixzones.swapping import SwapConfig, SwapPolicy


def main(output_dir: str = "figure1_output") -> None:
    out = Path(output_dir)

    # Two users over one day whose commutes naturally cross.
    world = figure1_world()
    attack = PoiExtractor()

    # Panel 1a: the original traces and the POIs an attacker extracts from them.
    raw_pois = attack.extract_dataset(world.dataset)
    zones = MixZoneDetector().detect(world.dataset)
    write_geojson(out / "panel_1a_original.geojson", world.dataset, zones)
    print(f"panel 1a: {world.dataset.n_points} points, "
          f"{sum(len(v) for v in raw_pois.values())} POIs visible, {len(zones)} mix-zone(s)")

    # Panel 1b: constant speed only.
    smoothed = smooth_dataset(world.dataset, epsilon_m=100.0)
    smoothed_pois = attack.extract_dataset(smoothed)
    write_geojson(out / "panel_1b_constant_speed.geojson", smoothed, zones)
    print(f"panel 1b: {smoothed.n_points} points, "
          f"{sum(len(v) for v in smoothed_pois.values())} POIs visible")

    # Panel 1c: the full pipeline (smoothing + swapping inside the mix-zone).
    anonymizer = Anonymizer(AnonymizerConfig(swapping=SwapConfig(policy=SwapPolicy.ALWAYS, seed=0)))
    result = anonymizer.publish(world.dataset)
    published, report = result.dataset, result.report
    write_geojson(out / "panel_1c_swapped.geojson", published, report.zones)
    print(f"panel 1c: {published.n_points} points, {report.n_swaps} swap(s), "
          f"{report.suppressed_points} points suppressed inside zones")

    for record in report.swap_records:
        before = ", ".join(f"{user}->{label}" for user, label in sorted(record.labels_before.items()))
        after = ", ".join(f"{user}->{label}" for user, label in sorted(record.labels_after.items()))
        print(f"  mix-zone at ({record.zone.center_lat:.4f}, {record.zone.center_lon:.4f}): "
              f"{before}  =>  {after}")

    print(f"GeoJSON panels written under {out}/")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "figure1_output")
