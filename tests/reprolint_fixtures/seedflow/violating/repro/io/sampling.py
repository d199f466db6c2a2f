"""Fixture helper outside R1's module scope: drops the threaded seed.

``repro/io/`` is not a cell-computation module, so only R1's walk from the
cell roots over the call graph can tie these draws to a cell path.
"""

import time

import numpy as np


def draw_offsets(n):
    rng = np.random.default_rng()
    return rng.normal(size=n)


def stamp_rows(rows):
    return [(time.time(), row) for row in rows]
