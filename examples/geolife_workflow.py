"""Publishing a GeoLife-formatted dataset end to end.

The paper's target datasets are real GPS collections distributed in the
GeoLife PLT format.  This example shows the workflow a data owner would
follow with this library:

1. load a GeoLife-style directory tree (``<root>/<user>/Trajectory/*.plt``);
2. anonymize it with the full pipeline;
3. write the published dataset back out as PLT files plus a CSV, together
   with a small provenance report.

Because the real GeoLife archive cannot be bundled here, the example first
*creates* a GeoLife-formatted directory from the synthetic generator; point
``--input`` at a real GeoLife ``Data/`` directory to use actual traces — the
rest of the workflow is identical.

Run with::

    python examples/geolife_workflow.py [--input DIR] [--output DIR]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import Anonymizer, generate_world
from repro.io.csv_io import write_csv
from repro.io.geolife import read_geolife_directory, write_geolife_directory


def prepare_synthetic_geolife(root: Path) -> None:
    """Create a GeoLife-formatted directory from synthetic traces."""
    world = generate_world(n_users=10, n_days=3, seed=21)
    write_geolife_directory(root, world.dataset)
    print(f"wrote a synthetic GeoLife tree with {len(world.dataset)} users under {root}/")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", default="geolife_input", help="GeoLife-style directory to anonymize")
    parser.add_argument("--output", default="geolife_published", help="directory for the published data")
    parser.add_argument("--max-users", type=int, default=None, help="limit the number of users loaded")
    args = parser.parse_args()

    input_dir = Path(args.input)
    if not input_dir.is_dir():
        prepare_synthetic_geolife(input_dir)

    dataset = read_geolife_directory(input_dir, max_users=args.max_users)
    print(f"loaded {len(dataset)} users / {dataset.n_points} points from {input_dir}/")

    result = Anonymizer().publish(dataset)
    published, report = result.dataset, result.report
    print(report.summary())

    output_dir = Path(args.output)
    write_geolife_directory(output_dir, published)
    write_csv(output_dir / "published.csv", published)
    with open(output_dir / "REPORT.txt", "w", encoding="utf-8") as handle:
        handle.write(report.summary() + "\n")
        handle.write(f"mix-zones used: {report.n_zones}\n")
        for record in report.swap_records:
            handle.write(
                f"zone ({record.zone.center_lat:.5f}, {record.zone.center_lon:.5f}) "
                f"[{record.zone.t_start:.0f}, {record.zone.t_end:.0f}] "
                f"participants={len(record.labels_before)} swapped={record.swapped}\n"
            )
    print(f"published dataset written under {output_dir}/ (PLT tree + published.csv + REPORT.txt)")


if __name__ == "__main__":
    main()
