"""``quadrant_route`` on its pruned flow network against a full-grid build."""

from collections import defaultdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linesched.flow import MaxFlow
from linesched.grid import GridPath
from linesched.routing import QuadrantRouting, quadrant_route


def full_grid_quadrant_route(origins, corner, half, side_limit=None) -> QuadrantRouting:
    """Reference: the network over all ``half**2`` cells, every cell with
    its up, right and exit-slot edges, stripped the same way."""
    row0, col0 = corner

    def node(i, j):
        return 1 + i * half + j

    source, sink = 0, 1 + half * half
    net = MaxFlow(2 + half * half)
    by_cell = defaultdict(list)
    for rid, (r, c) in origins.items():
        by_cell[(r - row0, c - col0)].append(rid)
    cell_handle = {cell: net.add_edge(source, node(*cell), len(ids))
                   for cell, ids in by_cell.items()}
    up = {(i, j): net.add_edge(node(i, j), node(i + 1, j), 1)
          for i in range(half - 1) for j in range(half)}
    right = {(i, j): net.add_edge(node(i, j), node(i, j + 1), 1)
             for i in range(half) for j in range(half - 1)}
    top = {j: net.add_edge(node(half - 1, j), sink, 1) for j in range(half)}
    right_slot = {i: net.add_edge(node(i, half - 1), sink, 1) for i in range(half)}
    net.max_flow(source, sink)
    left = {h: net.flow_on(h) for handles in (up, right, top, right_slot)
            for h in handles.values()}

    def strip(i, j):
        moves = ""
        while True:
            if i == half - 1 and left[top[j]] > 0:
                left[top[j]] -= 1
                return moves, "top"
            if j == half - 1 and left[right_slot[i]] > 0:
                left[right_slot[i]] -= 1
                return moves, "right"
            if left.get(up.get((i, j)), 0) > 0:
                left[up[(i, j)]] -= 1
                moves, i = moves + "f", i + 1
            else:
                assert left[right[(i, j)]] > 0
                left[right[(i, j)]] -= 1
                moves, j = moves + "s", j + 1

    accepted, rejected = {}, []
    for cell in sorted(by_cell):
        ids = sorted(by_cell[cell])
        routable = net.flow_on(cell_handle[cell])
        for rid in ids[:routable]:
            moves, side = strip(*cell)
            accepted[rid] = (GridPath(row0 + cell[0], col0 + cell[1], moves), side)
        rejected.extend(ids[routable:])
    dropped = []
    if side_limit is not None:
        for side in ("top", "right"):
            for rid in sorted(r for r, (_, s) in accepted.items() if s == side)[side_limit:]:
                dropped.append(rid)
                del accepted[rid]
    return QuadrantRouting(accepted, tuple(sorted(rejected)), tuple(sorted(dropped)))


@st.composite
def quadrant_inputs(draw):
    half = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, half - 1), st.integers(0, half - 1)),
                          max_size=3 * half))
    corner = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    ids = draw(st.permutations(range(len(cells))))
    origins = {rid: (corner[0] + i, corner[1] + j) for rid, (i, j) in zip(ids, cells)}
    side_limit = draw(st.none() | st.integers(0, half))
    return origins, corner, half, side_limit


@settings(max_examples=400, deadline=None)
@given(quadrant_inputs())
# origins only in the top row: no right-slot handle below it, no top
# handle left of the leftmost origin
@example(({0: (3, 2), 1: (3, 3), 2: (3, 2)}, (0, 0), 4, None))
@example(({0: (3, 2), 1: (3, 3), 2: (3, 2)}, (0, 0), 4, 1))
# origins only in the right column: one top handle, the right slots above
@example(({0: (1, 3), 1: (1, 3), 2: (2, 3), 3: (1, 3)}, (0, 0), 4, None))
@example(({0: (1, 3), 1: (1, 3), 2: (2, 3), 3: (1, 3)}, (0, 0), 4, 0))
# the corner cell only, and no origins at all
@example(({5: (7, 8), 6: (7, 8), 7: (7, 8)}, (5, 6), 3, None))
@example(({}, (0, 0), 5, None))
def test_pruned_network_matches_full_grid(inputs):
    assert quadrant_route(*inputs) == full_grid_quadrant_route(*inputs)
