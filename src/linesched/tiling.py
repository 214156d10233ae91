"""Square tilings of the untilted grid and the sketch projection.

A tiling cuts the grid into k-by-k tiles, optionally shifted by k/2 per
axis.  There are four shift pairs, and for any cell exactly one of them
puts the cell into the south-west quadrant of its tile (south = low rows,
west = low columns).  The medium/long pipeline and the short solver both
group requests by that unique shift, so each group can be handled in the
quadrant geometry it was classified for.

Projecting a grid path onto tiles (collapsing consecutive repeats) gives
its sketch path, which steps only rightward or upward and crosses at most
ceil(len/k) + 1 tile boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .grid import GridPath, request_origin
from .model import PacketRequest

__all__ = [
    "Tiling",
    "classify_shift",
    "partition_classes",
    "project",
    "shift_pairs",
]


@dataclass(frozen=True, slots=True)
class Tiling:
    """One tiling: side k with column shift phi_col and row shift phi_row.

    Tile (i, j) covers rows [i*k + phi_row, (i+1)*k + phi_row) and columns
    [j*k + phi_col, (j+1)*k + phi_col), so every cell lies in exactly one
    tile; i and j may be negative.
    """

    k: int
    phi_col: int = 0
    phi_row: int = 0

    def __post_init__(self) -> None:
        if self.k < 4 or self.k % 2:
            raise ValueError(f"tile side must be even and >= 4, got {self.k}")
        half = self.k // 2
        if self.phi_col not in (0, half) or self.phi_row not in (0, half):
            raise ValueError(f"shifts must be 0 or {half}")

    def tile_of(self, row: int, col: int) -> tuple[int, int]:
        return ((row - self.phi_row) // self.k, (col - self.phi_col) // self.k)

    def tile_origin(self, tile: tuple[int, int]) -> tuple[int, int]:
        i, j = tile
        return (i * self.k + self.phi_row, j * self.k + self.phi_col)


def shift_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The four (phi_col, phi_row) shifts, in the order classes are tried."""
    half = k // 2
    return ((0, 0), (0, half), (half, 0), (half, half))


def classify_shift(origin: tuple[int, int], k: int) -> tuple[int, int]:
    """The unique (phi_col, phi_row) putting origin in a SW quadrant.

    Per axis the residue mod k decides: below k/2, no shift is needed;
    otherwise shifting by k/2 brings the coordinate into the lower half.
    """
    if k < 4 or k % 2:
        raise ValueError(f"tile side must be even and >= 4, got {k}")
    row, col = origin
    half = k // 2
    phi_col = 0 if col % k < half else half
    phi_row = 0 if row % k < half else half
    return (phi_col, phi_row)


def partition_classes(requests: Iterable[PacketRequest],
                      k: int) -> list[list[PacketRequest]]:
    """Split requests into the four shift classes, in shift_pairs order."""
    order = {shift: pos for pos, shift in enumerate(shift_pairs(k))}
    classes: list[list[PacketRequest]] = [[], [], [], []]
    for req in requests:
        classes[order[classify_shift(request_origin(req), k)]].append(req)
    return classes


def project(path: GridPath, tiling: Tiling) -> tuple[tuple[int, int], ...]:
    """Tile sequence the path visits, consecutive duplicates collapsed.

    Walked a forward run at a time (``moves.split("s")``), in coordinates
    less the shifts: a run from row ``r`` of length ``L`` enters one new
    tile per row-tile index in ``(r // k, (r + L) // k]``, and the store
    before the next run enters a new tile exactly when its new column is a
    multiple of ``k``.
    """
    k = tiling.k
    row, col = path.row - tiling.phi_row, path.col - tiling.phi_col
    i, j = row // k, col // k
    sketch = [(i, j)]
    for n, run in enumerate(path.moves.split("s")):
        if n:  # the store into this run's column
            col += 1
            if col % k == 0:
                j += 1
                sketch.append((i, j))
        row += len(run)
        while i < row // k:
            i += 1
            sketch.append((i, j))
    return tuple(sketch)
