"""Fixture helper: unseeded draws, waived with a justification."""

import numpy as np


def draw_offsets(n):
    rng = np.random.default_rng()  # repro: allow=R1 -- fixture: jitter is diagnostic-only
    return rng.normal(size=n)


def shuffle_rows(rows):  # repro: allow=R1 -- fixture: def-line waiver covers the body
    rng = np.random.default_rng()
    rng.shuffle(rows)
    return rows
