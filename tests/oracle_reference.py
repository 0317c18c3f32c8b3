"""The classical update before the separable count, the oracle ``conway_step`` must equal.

This is ``oracle._neighbor_counts`` and ``oracle.conway_step`` as they were
when the count still summed eight shifted ``int16`` views of an ``np.pad``
copy. ``tests/test_oracle.py`` asserts that ``phasorlife.conway_step`` gives
the same cells on every grid it tries. Only the public name is renamed
(``ref_`` prefix); the bodies are copied verbatim.
"""

from __future__ import annotations

import numpy as np

from phasorlife.oracle import BoolGrid
from phasorlife.state import Boundary


def _neighbor_counts(g: BoolGrid) -> np.ndarray:
    ones = g.alive.astype(np.int16)
    if g.boundary is Boundary.TORUS:
        padded = np.pad(ones, 1, mode="wrap")
    else:
        padded = np.pad(ones, 1, mode="constant")
    h, w = ones.shape
    total = np.zeros((h, w), dtype=np.int16)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            total += padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    return total


def ref_conway_step(g: BoolGrid) -> BoolGrid:
    """One synchronous classical update.

    A dead cell becomes alive on exactly three live neighbors; a live cell
    survives on two or three.
    """
    counts = _neighbor_counts(g)
    nxt = (counts == 3) | (g.alive & (counts == 2))
    return BoolGrid(nxt, g.boundary)
