"""Regenerate ``digests.json``: the pinned row digests of the default seed.

Run from the root of a checkout after a change that is meant to alter rows::

    python3 perfbench/pin_digests.py

Each workload is swept once at the default seed; every row is hashed with
its floats rounded to ``harness.PINNED_DIGITS`` significant digits.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build  # noqa: E402


def main() -> int:
    pinned = {}
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="pin-", dir=out_dir))
    try:
        for name in WORKLOADS:
            workload = build(name, DEFAULT_SEED)
            worlds, _ = harness.build_worlds(workload, Tracer())
            sweep = harness.run_sweep("pin", workload, worlds, Tracer(), work_dir)
            ledger = harness.Ledger()
            harness.check_passes(ledger, [sweep.cold], None)
            if ledger.failed:
                ledger.report()
                return 1
            pinned[name] = sweep.cold.digests(harness.PINNED_DIGITS)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    document = {"seed": DEFAULT_SEED, "digits": harness.PINNED_DIGITS, "workloads": pinned}
    with open(harness.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
