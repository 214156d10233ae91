"""Tile geometry, shift classification, and sketch projection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linesched.grid import GridPath, request_origin
from linesched.model import PacketRequest
from linesched.tiling import (
    Tiling,
    classify_shift,
    partition_classes,
    project,
    shift_pairs,
)


def test_tiling_validation():
    Tiling(6, 0, 3)
    with pytest.raises(ValueError, match="even"):
        Tiling(5)
    with pytest.raises(ValueError, match="even"):
        Tiling(2)
    with pytest.raises(ValueError, match="shifts"):
        Tiling(6, 2, 0)


def test_tile_of_and_origin_roundtrip():
    t = Tiling(6, 3, 0)
    assert t.tile_of(0, 3) == (0, 0)
    assert t.tile_of(5, 8) == (0, 0)
    assert t.tile_of(6, 3) == (1, 0)
    assert t.tile_of(0, 2) == (0, -1)   # negative columns fall left
    assert t.tile_origin((0, 0)) == (0, 3)
    assert t.tile_origin((-1, 2)) == (-6, 15)


def test_classify_shift_examples():
    assert classify_shift((0, 0), 4) == (0, 0)
    # row 3 needs the row shift, col 1 does not
    assert classify_shift((3, 1), 4) == (0, 2)
    with pytest.raises(ValueError):
        classify_shift((0, 0), 3)


def test_classify_shift_is_the_unique_sw_membership():
    rng = np.random.default_rng(0)
    k = 6
    for _ in range(10_000):
        row = int(rng.integers(0, 40))
        col = int(rng.integers(-20, 40))
        chosen = classify_shift((row, col), k)
        members = []
        for phi_col, phi_row in shift_pairs(k):
            tiling = Tiling(k, phi_col, phi_row)
            row0, col0 = tiling.tile_origin(tiling.tile_of(row, col))
            # SW quadrant: local row and local column both below k/2
            if row - row0 < k // 2 and col - col0 < k // 2:
                members.append((phi_col, phi_row))
        assert members == [chosen]


def test_partition_classes_partitions():
    assert partition_classes([], 6) == [[], [], [], []]
    same = [PacketRequest(id=i, a=1, b=2, t=3) for i in range(5)]
    classes = partition_classes(same, 6)
    assert sorted(len(c) for c in classes) == [0, 0, 0, 5]

    rng = np.random.default_rng(1)
    reqs = []
    for i in range(1000):
        a = int(rng.integers(0, 30))
        b = int(rng.integers(a + 1, 32))
        reqs.append(PacketRequest(id=i, a=a, b=b, t=int(rng.integers(1, 50))))
    classes = partition_classes(reqs, 6)
    assert sum(len(c) for c in classes) == 1000
    seen = [r.id for c in classes for r in c]
    assert sorted(seen) == list(range(1000))
    for pos, cls in enumerate(classes):
        for r in cls:
            assert classify_shift(request_origin(r), 6) == shift_pairs(6)[pos]


def test_project_single_tile_and_boundary_cross():
    t = Tiling(4)
    assert project(GridPath(0, 0, "sff"), t) == ((0, 0),)
    assert project(GridPath(0, 0, "f" * 4), t) == ((0, 0), (1, 0))


def test_project_monotone_and_collapsed():
    t = Tiling(6, 3, 3)
    path = GridPath(1, -2, "sfsffssfff")
    sketch = project(path, t)
    assert len(sketch) == len(set(sketch))
    for (i0, j0), (i1, j1) in zip(sketch, sketch[1:]):
        assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}


@settings(max_examples=400)
@given(
    row=st.integers(0, 30),
    col=st.integers(-15, 30),
    moves=st.lists(st.sampled_from("sf"), max_size=40),
    k=st.sampled_from([4, 6, 12]),
    shift=st.integers(0, 3),
)
def test_project_length_bound(row, col, moves, k, shift):
    phi_col, phi_row = shift_pairs(k)[shift]
    t = Tiling(k, phi_col, phi_row)
    path = GridPath(row, col, "".join(moves))
    sketch = project(path, t)
    # sketch length = edge count; a span of m moves crosses at most
    # ceil(m/k) + 1 tile boundaries across both axes combined
    assert len(sketch) - 1 <= math.ceil(len(path) / k) + 1
    for (i0, j0), (i1, j1) in zip(sketch, sketch[1:]):
        assert i1 >= i0 and j1 >= j0 and (i1 > i0 or j1 > j0)


def project_cell_by_cell(path: GridPath, tiling: Tiling) -> tuple[tuple[int, int], ...]:
    """Reference: the tile of every cell of the path, repeats collapsed."""
    sketch: list[tuple[int, int]] = []
    for row, col in path.cells():
        tile = tiling.tile_of(row, col)
        if not sketch or sketch[-1] != tile:
            sketch.append(tile)
    return tuple(sketch)


@settings(max_examples=500)
@given(
    row=st.integers(-50, 50),
    col=st.integers(-50, 50),
    moves=st.text(alphabet="sf", max_size=80),
    k=st.integers(2, 18).map(lambda h: 2 * h),
    shift=st.integers(0, 3),
)
@example(row=-1, col=-1, moves="", k=4, shift=0)
@example(row=-7, col=-13, moves="f" * 40 + "s" * 40, k=36, shift=3)
@example(row=5, col=5, moves="sfsfsfsf", k=6, shift=3)
def test_project_by_runs_matches_the_cell_walk(row, col, moves, k, shift):
    tiling = Tiling(k, *shift_pairs(k)[shift])
    path = GridPath(row, col, moves)
    assert project(path, tiling) == project_cell_by_cell(path, tiling)
