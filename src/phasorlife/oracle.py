"""Self-contained classical automaton used as ground truth for the binary limit.

Deliberately independent of the rules module: boolean cells, integer neighbor
counts from a box sum over a ``uint8`` view of the cells, and the explicit
birth-on-3 / survive-on-2-or-3 table. The lift and project helpers move
patterns between the boolean world and the engine's.
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
    """Live cells among each cell's eight neighbors, as ``uint8``.

    A separable 3x3 box sum over the cells read as 0/1 bytes, wrapped or
    zero-padded by the boundary: each cell's row of three, then three such
    sums down a column, minus the cell itself. The counts are exact
    integers, so the order of the sum does not matter. On a torus narrower
    or shorter than three cells a neighbor can be reached through the wrap
    more than once, the cell itself included, and it counts each time, as
    it does for the eight neighbor offsets.
    """
    ones = g.alive.view(np.uint8)
    padded = np.pad(ones, 1, mode="wrap" if g.boundary is Boundary.TORUS else "constant")
    cols = padded[:, :-2] + padded[:, 1:-1]
    cols += padded[:, 2:]
    counts = cols[:-2] + cols[1:-1]
    counts += cols[2:]
    counts -= ones
    return counts


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


# The largest double whose square rounds to 1/2 or less. Rounded squaring is
# monotone, so |a| * |a| > 0.5 exactly when |a| > _ALIVE_CUT; NaN fails both
# tests and inf passes both.
_ALIVE_CUT = 0.7071067811865475


def project(g: Grid) -> BoolGrid:
    """Classical readout: a cell is alive iff |a|^2 strictly exceeds 1/2."""
    # compares |a| with the cut: the same booleans as squaring, without a second array
    return BoolGrid(np.abs(g.a) > _ALIVE_CUT, g.boundary)
