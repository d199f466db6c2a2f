"""Cache-key stability: `_cell_key` and its serialized form must not drift.

The persistent :class:`~repro.experiments.cache.SqliteCellCache` is keyed by
``serialize_cell_key(engine._cell_key(...))``.  A silently changed key — a
reordered tuple, a float formatted differently, a fingerprint component
dropped — would not crash anything: it would turn every warm cache file into
a silent always-miss.  These tests pin (a) the exact serialized text for a
hand-built key, (b) the key tuples the engine builds for representative
world/mechanism/attack specs, and (c) that both are identical when computed
in a fresh interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.experiments.cache import serialize_cell_key
from repro.experiments.engine import EvaluationEngine, ExperimentSpec, _world_fingerprint
from repro.experiments.workloads import standard_world

#: The literal serialization of a fully hand-built key.  If this assertion
#: ever fails, either bump CELL_KEY_FORMAT_VERSION (old cache files must miss
#: cleanly, not alias) or revert the encoding change.
PINNED_KEY = (
    "publish-half:train_fraction=0.5",
    "batch",
    "world",
    (3, 1200, 86399.5, 987654321),
    7,
    "paper-full",
    "promesse:swap=coin_flip,seed=7",
    "reident",
    "reident:train_fraction=0.5,match_distance_m=250.0,engine=vectorized",
    ("spatial-distortion", "point-retention"),
)
PINNED_TEXT = (
    'v3:["publish-half:train_fraction=0.5","batch","world",[3,1200,86399.5,987654321],7,'
    '"paper-full","promesse:swap=coin_flip,seed=7","reident",'
    '"reident:train_fraction=0.5,match_distance_m=250.0,engine=vectorized",'
    '["spatial-distortion","point-retention"]]'
)


def _representative_keys():
    """The engine's cell keys for a spec covering mechanisms, attacks, metrics."""
    world = standard_world("tiny", seed=5)
    engine = EvaluationEngine()
    spec = ExperimentSpec(
        name="key-pin",
        mechanisms=["identity", "promesse:swap=coin_flip"],
        attacks=[None, "poi-retrieval:algorithm=staypoint,engine=vectorized"],
        metrics=["point-retention"],
        worlds=["world"],
        seeds=[0, 3],
    )
    fingerprint = _world_fingerprint(world)
    return [
        serialize_cell_key(engine._cell_key(spec, fingerprint, cell))
        for cell in spec.cells()
    ]


class TestSerializedFormPinned:
    def test_literal_serialization(self):
        assert serialize_cell_key(PINNED_KEY) == PINNED_TEXT

    def test_none_bool_and_float_forms(self):
        assert serialize_cell_key((None, True, False)) == "v3:[null,true,false]"
        # repr round-trips floats at full precision; ints stay ints.
        assert serialize_cell_key((0.1, 1, 1.0)) == "v3:[0.1,1,1.0]"
        # Strings with structural characters cannot collide with the structure.
        assert serialize_cell_key(('a,"b"', ("c",))) == 'v3:["a,\\"b\\"",["c"]]'

    def test_numpy_scalars_normalize_to_python(self):
        import numpy as np

        assert serialize_cell_key((np.int64(5), np.float64(2.5))) == "v3:[5,2.5]"
        assert serialize_cell_key((5, 2.5)) == serialize_cell_key(
            (np.int64(5), np.float64(2.5))
        )


class TestCrossProcessStability:
    def test_engine_cell_keys_identical_in_fresh_interpreter(self):
        """The representative keys must serialize identically in a new process.

        This is the property the persistent cache stands on: a key computed
        today by this interpreter equals the key computed tomorrow by another
        one, including the world fingerprint of a regenerated seeded world.
        """
        here = _representative_keys()
        assert len(here) == len(set(here)) == 8  # 2 mech x 2 attack x 2 seeds
        tests_dir = str(Path(__file__).resolve().parent)
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {tests_dir!r})\n"
            "from test_cache_keys import _representative_keys\n"
            "print(json.dumps(_representative_keys()))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        assert json.loads(output.strip().splitlines()[-1]) == here

    def test_pinned_literal_in_fresh_interpreter(self):
        tests_dir = str(Path(__file__).resolve().parent)
        script = (
            "import sys\n"
            f"sys.path.insert(0, {tests_dir!r})\n"
            "from test_cache_keys import PINNED_KEY, PINNED_TEXT\n"
            "from repro.experiments.cache import serialize_cell_key\n"
            "assert serialize_cell_key(PINNED_KEY) == PINNED_TEXT\n"
            "print('ok')\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True, text=True
        ).stdout
        assert "ok" in output
