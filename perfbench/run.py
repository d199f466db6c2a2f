"""Run one workload of the paper-sweep benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload privacy-batch --seed 42 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (medians over the sweeps that fit
in ``--seconds``); ``--trace 1`` prints the per-layer metrics of one traced
sweep and writes its spans to ``.perfbench-out/trace-<workload>-seed<n>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every cell passed every check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list) -> int:
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no repro sources at {package.parent}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            result = harness.measure_layers(args.workload, args.seed, work_dir, trace_path)
        else:
            result = harness.measure(args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result.ledger.report()
    for note in result.notes:
        print(note)
    for name, value in result.metrics.items():
        print(f"{name} = {value:.6g} {result.units[name]}")
    attempted = max(1, result.ledger.attempted)
    print(f"cell_error_rate = {result.ledger.failed / attempted:.6g} ratio "
          f"({result.ledger.failed} of {result.ledger.attempted} cells)")
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
