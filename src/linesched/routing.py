"""Exact routing inside one tile: quadrant admission and crossbars.

Two subproblems of the medium/long pipeline, each solved exactly on its own:
``quadrant_route`` admits a maximum set of origins of a tile's SW quadrant
to the quadrant's top and right edges by a max-flow, and ``route_crossbar``
carries requests across one quadrant on edge-disjoint one-bend paths, whose
bends a closed-form assignment places (no search).  The tests check both
against brute-force oracles.

The max flow is Dinic's (1970) on the quadrant's grid itself, with no graph
built.  Cell ``(i, j)`` is ``u = i * half + j``; edge ``2 u`` is its up edge,
or its top exit slot in row ``half-1``, and edge ``2 u + 1`` its right edge,
or its right exit slot in column ``half-1``.  One flow list is indexed by
edge, and a per-origin-cell list holds the flow from the source.  An arc
table, built once per ``half``, lists each cell's residual arcs as
``(edge, head, reverse)``; an arc is open when its edge's flow equals
``reverse``, and a push flips that flow.  The BFS, the DFS, the min-cut
check and the stripping all walk this table.  The search order is that of
an adjacency-list Dinic whose source arcs follow the origins' first
appearance and whose cells list their arcs as the table does: the reverse
of the up edge in from ``(i-1, j)``, up out, the reverse of the right edge
in from ``(i, j-1)``, right out, the top slot and the right slot.  A cell's
DFS pointer moves on only when an arc fails, so the flow, and the paths the
stripping reads off it, are that Dinic's.  Cells no origin reaches never
take a level or flow, so they need no pruning.

Each BFS stops once the sink has a level ``L``.  The cells it has not
reached by then would get levels of ``L`` or more, and no cell of level
``L`` or more lies on a path of rising levels to the sink, whose level is
``L``; the DFS would only try them and fail.  So the stop takes the same arcs.  The last BFS
reaches no sink and runs to the end: its cells are the source side of a min
cut, whose capacity is checked against the flow.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .grid import GridPath
from .model import SolverInvariantError

__all__ = [
    "CrossbarEntry",
    "CrossbarProblem",
    "QuadrantRouting",
    "quadrant_route",
    "route_crossbar",
]


# ---------------------------------------------------------------------------
# Stage: max-flow routing to the SW quadrant boundary.

@dataclass
class QuadrantRouting:
    accepted: dict[int, tuple[GridPath, str]]   # id -> (path to boundary, exit side)
    rejected: tuple[int, ...]                   # no boundary path in the max flow
    side_dropped: tuple[int, ...]               # cut by the per-side limit


@lru_cache(maxsize=None)
def _arcs(half: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Each cell's arcs as ``(edge, head, reverse)`` in the module
    docstring's order; the sink is cell ``half * half``."""
    size, last = half * half, half - 1
    table = []
    for u in range(size):
        i, j = divmod(u, half)
        arcs = []
        if i:
            arcs.append((2 * (u - half), u - half, 1))
        if i < last:
            arcs.append((2 * u, u + half, 0))
        if j:
            arcs.append((2 * u - 1, u - 1, 1))
        if j < last:
            arcs.append((2 * u + 1, u + 1, 0))
        if i == last:
            arcs.append((2 * u, size, 0))
        if j == last:
            arcs.append((2 * u + 1, size, 0))
        table.append(tuple(arcs))
    return tuple(table)


def quadrant_route(origins: Mapping[int, tuple[int, int]],
                   corner: tuple[int, int], half: int,
                   side_limit: int) -> QuadrantRouting:
    """Route a maximum subset of origins to the quadrant's top/right edge.

    The flow network gives every boundary vertex one exit slot per side it
    borders, so the top-right corner cell holds two.  After the max flow is
    decomposed into unit paths, each exit side is capped at ``side_limit``
    survivors, cutting the largest ids first.
    """
    row0, col0 = corner
    for rid, (r, c) in origins.items():
        if not (0 <= r - row0 < half and 0 <= c - col0 < half):
            raise ValueError(f"origin of request {rid} outside quadrant window")

    # cell (i, j) is u = i * half + j, and the sink is u = size
    by_cell: dict[int, list[int]] = defaultdict(list)
    for rid, (r, c) in origins.items():
        by_cell[(r - row0) * half + c - col0].append(rid)
    cells = list(by_cell)           # the source arcs, in insertion order
    supply = [len(by_cell[u]) for u in cells]
    fed = [0] * len(cells)          # flow on each source arc
    size = half * half
    arcs = _arcs(half)
    flow = [0] * (2 * size)         # flow on each edge

    def levels() -> list[int]:
        """BFS levels in the residual grid, -1 where unreached, stopping
        once the sink has one."""
        level = [-1] * (size + 1)
        queue = [u for u, f, s in zip(cells, fed, supply) if f < s]
        for u in queue:
            level[u] = 1
        for u in queue:
            lv = level[u] + 1
            for e, v, rev in arcs[u]:
                if flow[e] == rev and level[v] < 0:
                    level[v] = lv
                    if v == size:
                        return level
                    queue.append(v)
        return level

    def augment(start: int, level: list[int], it: list[int]) -> bool:
        """Push one unit from ``start`` to the sink along rising levels,
        each cell trying its arcs from ``it[u]`` on."""
        path = [start]
        while path:
            u = path[-1]
            want = level[u] + 1
            out = arcs[u]
            k, end = it[u], len(out)
            while k < end:
                e, v, rev = out[k]
                if flow[e] == rev and level[v] == want:
                    break
                k += 1
            it[u] = k
            if k == end:  # a dead end: its parent's arc fails
                path.pop()
                if path:
                    it[path[-1]] += 1
            elif v < size:
                path.append(v)
            else:
                for w in path:  # each cell's arc at its pointer
                    flow[arcs[w][it[w]][0]] ^= 1
                return True
        return False

    while (level := levels())[size] > 0:
        it = [0] * size
        x = 0
        while x < len(cells):
            if fed[x] < supply[x] and augment(cells[x], level, it):
                fed[x] += 1
            else:
                x += 1

    # the last BFS reached no sink, so its cells are the source side of a
    # min cut, whose capacity must equal the flow
    cut = sum(s for u, s in zip(cells, supply) if level[u] < 0)
    cut += sum(not rev and level[v] < 0 for u in range(size) if level[u] >= 0
               for _, v, rev in arcs[u])
    if cut != sum(fed):
        raise SolverInvariantError(f"max-flow/min-cut mismatch: {sum(fed)} vs {cut}")

    def strip(u: int) -> tuple[str, str]:
        """Follow one unit of flow from cell u to an exit slot, each step on
        the first loaded arc with the highest head: a slot, then up, then
        right."""
        moves: list[str] = []
        while True:
            e = v = -1
            for a, w, rev in arcs[u]:
                if not rev and flow[a] and w > v:
                    e, v = a, w
            if e < 0:
                raise SolverInvariantError("flow conservation broken during stripping")
            flow[e], u = 0, v
            if u == size:
                return "".join(moves), ("top", "right")[e & 1]
            moves.append("fs"[e & 1])

    accepted: dict[int, tuple[GridPath, str]] = {}
    rejected: list[int] = []
    for u, routable in sorted(zip(cells, fed)):
        ids = sorted(by_cell[u])
        i, j = divmod(u, half)
        for rid in ids[:routable]:
            moves, side = strip(u)
            accepted[rid] = (GridPath(row0 + i, col0 + j, moves), side)
        rejected.extend(ids[routable:])

    side_dropped: list[int] = []
    for side in ("top", "right"):
        exiters = sorted(r for r, (_, s) in accepted.items() if s == side)
        for rid in exiters[side_limit:]:
            side_dropped.append(rid)
            del accepted[rid]
    return QuadrantRouting(accepted, tuple(sorted(rejected)),
                           tuple(sorted(side_dropped)))


# ---------------------------------------------------------------------------
# Stage: one-bend crossbar routing inside a quadrant.

@dataclass(frozen=True)
class CrossbarEntry:
    request_id: int
    side: str        # "left" | "bottom"
    offset: int      # entry row (left) or entry column (bottom)
    exit_side: str   # "top" | "right"


@dataclass(frozen=True)
class CrossbarProblem:
    """Requests crossing a rows x cols grid from left/bottom to top/right.

    Entry edges are pairwise distinct by construction (one per boundary
    edge), which the side-count feasibility criterion relies on.
    """

    rows: int
    cols: int
    entries: tuple[CrossbarEntry, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[str, int]] = set()
        for e in self.entries:
            if e.side not in ("left", "bottom") or e.exit_side not in ("top", "right"):
                raise ValueError(f"bad sides on entry {e}")
            bound = self.rows if e.side == "left" else self.cols
            if not 0 <= e.offset < bound:
                raise ValueError(f"entry offset out of range: {e}")
            if (e.side, e.offset) in seen:
                raise ValueError(f"duplicate entry edge ({e.side}, {e.offset})")
            seen.add((e.side, e.offset))

    def side_counts_fit(self) -> bool:
        tops = sum(1 for e in self.entries if e.exit_side == "top")
        rights = sum(1 for e in self.entries if e.exit_side == "right")
        return tops <= self.cols and rights <= self.rows


def route_crossbar(problem: CrossbarProblem) -> dict[int, GridPath]:
    """Edge-disjoint one-bend paths through the quadrant, in local coords.

    Every path starts at its entry cell and ends one step outside the grid
    through its exit edge, so hand-offs between quadrants chain by simply
    concatenating move strings.  Raises ValueError when the side counts
    cannot fit; any other failure is a bug (``SolverInvariantError``).

    Straight-through traffic (bottom-to-top, left-to-right) keeps its own
    lane.  A left-to-top path bends up at its assigned column chi, using row
    edges [0, chi) and column edges [r, rows); a bottom-to-right path bends
    at its assigned row rho, using column edges [0, rho) and row edges
    [c, cols).  Same-orientation overlap is only possible in the two
    coincidence cases chi == c (needs rho <= r) and rho == r (needs
    chi <= c).

    The assignment is closed form: the left-to-top entries, by row, take
    the columns free of straight-up lanes in ascending order, and the
    bottom-to-right entries, by column, take the rows free of straight-right
    lanes in ascending order.  Why no pair collides: let the left-to-top
    rows be r_1 < ... < r_m, with columns chi_1 < ... < chi_m, the m
    smallest free columns.  The j-th bottom-to-right entry, at column c,
    gets rho_j, the j-th free row, and collides with entry i only if
    (chi_i == c and rho_j > r_i) or (rho_j == r_i and chi_i > c).  If c is
    no chi_i, it is a free column above all of them, so neither case holds.
    If c == chi_i, every earlier bottom-to-right entry sits at a free column
    below chi_i, that is at one of chi_1 .. chi_{i-1}, so j <= i; rows
    r_1 .. r_i are free, so rho_j <= r_i.  A collision through some
    chi_i' > c needs i' > i, and then r_i' > r_i >= rho_j.  The side counts
    leave enough free rows and columns for both zips.
    """
    if not problem.side_counts_fit():
        raise ValueError("exit side counts exceed quadrant side lengths")
    rows, cols = problem.rows, problem.cols
    straight_up = {e.offset for e in problem.entries
                   if e.side == "bottom" and e.exit_side == "top"}
    straight_right = {e.offset for e in problem.entries
                      if e.side == "left" and e.exit_side == "right"}
    lts = sorted(e.offset for e in problem.entries
                 if e.side == "left" and e.exit_side == "top")
    brs = sorted(e.offset for e in problem.entries
                 if e.side == "bottom" and e.exit_side == "right")
    # entry row -> bend column, entry column -> bend row
    lt_col = dict(zip(lts, (c for c in range(cols) if c not in straight_up)))
    br_row = dict(zip(brs, (r for r in range(rows) if r not in straight_right)))

    out: dict[int, GridPath] = {}
    for e in problem.entries:
        if e.side == "bottom" and e.exit_side == "top":
            path = GridPath(0, e.offset, "f" * rows)
        elif e.side == "left" and e.exit_side == "right":
            path = GridPath(e.offset, 0, "s" * cols)
        elif e.side == "left":
            path = GridPath(e.offset, 0, "s" * lt_col[e.offset] + "f" * (rows - e.offset))
        else:
            path = GridPath(0, e.offset, "f" * br_row[e.offset] + "s" * (cols - e.offset))
        out[e.request_id] = path

    used: set[tuple[str, int, int]] = set()
    for path in out.values():
        for edge in path.edges():
            if edge in used:
                raise SolverInvariantError(f"crossbar paths collide on {edge}")
            used.add(edge)
    return out
