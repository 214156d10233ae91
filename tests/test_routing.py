"""``quadrant_route`` on the implicit grid against a full-grid Dinic build."""

from collections import defaultdict, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linesched.grid import GridPath
from linesched.model import SolverInvariantError
from linesched.routing import QuadrantRouting, quadrant_route


# ---------------------------------------------------------------------------
# Dinic on an explicit graph, the reference.

class MaxFlow:
    """Dinic's algorithm with integer capacities and a min-cut self-check.

    ``add_edge`` returns a handle; after ``max_flow`` the routed amount on
    that edge is available through ``flow_on``.
    """

    def __init__(self, n: int):
        self.n = n
        # edge = [head, remaining capacity, reverse index, original capacity]
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> tuple[int, int]:
        if cap < 0:
            raise ValueError(f"negative capacity {cap}")
        self.adj[u].append([v, cap, len(self.adj[v]), cap])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1, 0])
        return (u, len(self.adj[u]) - 1)

    def flow_on(self, handle: tuple[int, int]) -> int:
        u, i = handle
        e = self.adj[u][i]
        return e[3] - e[1]

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                if e[1] > 0 and level[e[0]] < 0:
                    level[e[0]] = level[u] + 1
                    queue.append(e[0])
        return level if level[t] >= 0 else None

    def _augment(self, u: int, t: int, limit: int, level: list[int],
                 it: list[int]) -> int:
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            if e[1] > 0 and level[e[0]] == level[u] + 1:
                got = self._augment(e[0], t, min(limit, e[1]), level, it)
                if got > 0:
                    e[1] -= got
                    self.adj[e[0]][e[2]][1] += got
                    return got
            it[u] += 1
        return 0

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                if e[1] > 0 and e[0] not in seen:
                    seen.add(e[0])
                    queue.append(e[0])
        return seen

    def max_flow(self, s: int, t: int) -> int:
        if s == t:
            raise ValueError("source equals sink")
        total = 0
        while (level := self._levels(s, t)) is not None:
            it = [0] * self.n
            while (got := self._augment(s, t, 1 << 60, level, it)) > 0:
                total += got
        # cross-check against the min cut induced by residual reachability
        side = self.residual_reachable(s)
        cut = sum(e[3] for u in side for e in self.adj[u]
                  if e[0] not in side and e[3] > 0)
        if cut != total:
            raise SolverInvariantError(f"max-flow/min-cut mismatch: {total} vs {cut}")
        return total


def test_dinic_textbook_graph():
    g = MaxFlow(6)
    g.add_edge(0, 1, 16)
    g.add_edge(0, 2, 13)
    g.add_edge(1, 2, 10)
    g.add_edge(2, 1, 4)
    g.add_edge(1, 3, 12)
    g.add_edge(3, 2, 9)
    g.add_edge(2, 4, 14)
    g.add_edge(4, 3, 7)
    g.add_edge(3, 5, 20)
    g.add_edge(4, 5, 4)
    assert g.max_flow(0, 5) == 23


def test_dinic_bipartite_matching():
    # source 0, left {1,2,3}, right {4,5,6}, sink 7, complete middle
    g = MaxFlow(8)
    for u in (1, 2, 3):
        g.add_edge(0, u, 1)
        for v in (4, 5, 6):
            g.add_edge(u, v, 1)
    for v in (4, 5, 6):
        g.add_edge(v, 7, 1)
    assert g.max_flow(0, 7) == 3


def test_dinic_flow_handles_and_cut():
    g = MaxFlow(4)
    e1 = g.add_edge(0, 1, 2)
    e2 = g.add_edge(0, 2, 2)
    e3 = g.add_edge(1, 3, 1)
    e4 = g.add_edge(2, 3, 3)
    assert g.max_flow(0, 3) == 3
    assert g.flow_on(e1) == 1
    assert g.flow_on(e2) == 2
    assert g.flow_on(e3) == 1
    assert g.flow_on(e4) == 2
    side = g.residual_reachable(0)
    assert 0 in side and 3 not in side


def test_dinic_zero_and_errors():
    g = MaxFlow(3)
    g.add_edge(0, 1, 5)
    assert g.max_flow(0, 2) == 0
    with pytest.raises(ValueError):
        g.add_edge(0, 1, -1)
    with pytest.raises(ValueError):
        g.max_flow(1, 1)


# ---------------------------------------------------------------------------
# Quadrant admission.


def full_grid_quadrant_route(origins, corner, half, side_limit) -> QuadrantRouting:
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
    for side in ("top", "right"):
        for rid in sorted(r for r, (_, s) in accepted.items() if s == side)[side_limit:]:
            dropped.append(rid)
            del accepted[rid]
    return QuadrantRouting(accepted, tuple(sorted(rejected)), tuple(sorted(dropped)))


@st.composite
def quadrant_inputs(draw):
    """Dense small quadrants, or the pipeline's regime: half up to 18 with
    one to three origins."""
    if draw(st.booleans()):
        half = draw(st.integers(1, 6))
        cells = draw(st.lists(st.tuples(st.integers(0, half - 1), st.integers(0, half - 1)),
                              max_size=3 * half))
    else:
        half = draw(st.integers(1, 18))
        cells = draw(st.lists(st.tuples(st.integers(0, half - 1), st.integers(0, half - 1)),
                              min_size=1, max_size=3))
    corner = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    ids = draw(st.permutations(range(len(cells))))
    origins = {rid: (corner[0] + i, corner[1] + j) for rid, (i, j) in zip(ids, cells)}
    side_limit = draw(st.integers(0, half))
    return origins, corner, half, side_limit


@settings(max_examples=400, deadline=None)
@given(quadrant_inputs())
# origins only in the top row: no right-slot handle below it, no top
# handle left of the leftmost origin
@example(({0: (3, 2), 1: (3, 3), 2: (3, 2)}, (0, 0), 4, 4))
@example(({0: (3, 2), 1: (3, 3), 2: (3, 2)}, (0, 0), 4, 1))
# origins only in the right column: one top handle, the right slots above
@example(({0: (1, 3), 1: (1, 3), 2: (2, 3), 3: (1, 3)}, (0, 0), 4, 4))
@example(({0: (1, 3), 1: (1, 3), 2: (2, 3), 3: (1, 3)}, (0, 0), 4, 0))
# the corner cell only, and no origins at all
@example(({5: (7, 8), 6: (7, 8), 7: (7, 8)}, (5, 6), 3, 3))
@example(({}, (0, 0), 5, 5))
# three origins on a one-cell quadrant: its two exit slots admit two
@example(({4: (2, 3), 1: (2, 3), 9: (2, 3)}, (2, 3), 1, 1))
# a tile of the pipeline's largest side with an origin in every corner
@example(({0: (0, 0), 1: (17, 0), 2: (0, 17)}, (0, 0), 18, 6))
# the benchmark's other two sides, two origins sharing a cell
@example(({0: (4, 2), 1: (7, 5), 2: (4, 2)}, (0, 0), 9, 3))
@example(({3: (20, 31), 1: (12, 36), 2: (20, 31)}, (10, 25), 15, 5))
def test_pruned_network_matches_full_grid(inputs):
    assert quadrant_route(*inputs) == full_grid_quadrant_route(*inputs)


def test_one_cell_quadrant_rejects_its_third_origin():
    got = quadrant_route({4: (2, 3), 1: (2, 3), 9: (2, 3)}, (2, 3), 1, side_limit=1)
    assert got.rejected == (9,)
    assert {rid: side for rid, (_, side) in got.accepted.items()} == {1: "top", 4: "right"}
