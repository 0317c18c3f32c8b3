"""Self-contained classical automaton used as ground truth for the binary limit.

Deliberately independent of the rules module: boolean cells, integer neighbor
counts, and the explicit birth-on-3 / survive-on-2-or-3 table. The lift and
project helpers move patterns between the boolean world and the engine's.
"""

from __future__ import annotations

import numpy as np

from .state import Boundary, Grid


class BoolGrid:
    """Boolean life grid with the same boundary vocabulary as Grid."""

    __slots__ = ("_alive", "_boundary")

    def __init__(self, alive, boundary: Boundary = Boundary.FIXED_DEAD) -> None:
        arr = np.array(alive, dtype=bool)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ValueError("alive array must be 2-D with positive dimensions")
        if not isinstance(boundary, Boundary):
            raise ValueError(f"boundary must be a Boundary, got {boundary!r}")
        arr.setflags(write=False)
        self._alive = arr
        self._boundary = boundary

    @classmethod
    def dead(cls, width: int, height: int, boundary: Boundary = Boundary.FIXED_DEAD) -> "BoolGrid":
        return cls(np.zeros((height, width), dtype=bool), boundary)

    @classmethod
    def from_coords(
        cls,
        width: int,
        height: int,
        live: list[tuple[int, int]],
        boundary: Boundary = Boundary.FIXED_DEAD,
    ) -> "BoolGrid":
        arr = np.zeros((height, width), dtype=bool)
        for x, y in live:
            arr[y, x] = True
        return cls(arr, boundary)

    @property
    def alive(self) -> np.ndarray:
        return self._alive

    @property
    def boundary(self) -> Boundary:
        return self._boundary

    @property
    def width(self) -> int:
        return self._alive.shape[1]

    @property
    def height(self) -> int:
        return self._alive.shape[0]

    def population(self) -> int:
        return int(self._alive.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoolGrid):
            return NotImplemented
        return (
            self._alive.shape == other._alive.shape
            and self._boundary is other._boundary
            and bool(np.array_equal(self._alive, other._alive))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"BoolGrid({self.width}x{self.height}, {self._boundary.value}, pop={self.population()})"


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


def conway_step(g: BoolGrid) -> BoolGrid:
    """One synchronous classical update.

    A dead cell becomes alive on exactly three live neighbors; a live cell
    survives on two or three.
    """
    counts = _neighbor_counts(g)
    nxt = (counts == 3) | (g.alive & (counts == 2))
    return BoolGrid(nxt, g.boundary)


def lift(g: BoolGrid) -> Grid:
    """Embed a boolean grid into the engine's state space: alive -> (1, 0)."""
    a = np.where(g.alive, 1.0 + 0j, 0j)
    b = np.where(g.alive, 0j, 1.0 + 0j)
    return Grid(a, b, g.boundary)


def project(g: Grid, threshold: float = 0.5) -> BoolGrid:
    """Threshold readout: a cell is alive iff |a|^2 strictly exceeds threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return BoolGrid(g.alive_probability() > threshold, g.boundary)
