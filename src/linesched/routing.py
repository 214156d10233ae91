"""Exact routing inside one tile: quadrant admission and crossbars.

Two subproblems of the medium/long pipeline, each solved exactly on its own:
``quadrant_route`` admits a maximum set of origins of a tile's SW quadrant
to the quadrant's top and right edges by a max-flow, and ``route_crossbar``
carries requests across one quadrant on edge-disjoint one-bend paths.
``oracle`` checks both against brute force.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

from .flow import MaxFlow
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


def quadrant_route(origins: Mapping[int, tuple[int, int]],
                   corner: tuple[int, int], half: int,
                   side_limit: int | None = None) -> QuadrantRouting:
    """Route a maximum subset of origins to the quadrant's top/right edge.

    The flow network gives every boundary vertex one exit slot per side it
    borders, so the top-right corner cell holds two.  After the max flow is
    decomposed into unit paths, each exit side is optionally capped at
    ``side_limit`` survivors, cutting the largest ids first.
    """
    row0, col0 = corner
    for rid, (r, c) in origins.items():
        if not (0 <= r - row0 < half and 0 <= c - col0 < half):
            raise ValueError(f"origin of request {rid} outside quadrant window")

    def node(i: int, j: int) -> int:
        return 1 + i * half + j

    source, sink = 0, 1 + half * half
    net = MaxFlow(2 + half * half)

    by_cell: dict[tuple[int, int], list[int]] = defaultdict(list)
    for rid, (r, c) in origins.items():
        by_cell[(r - row0, c - col0)].append(rid)
    cell_handle = {cell: net.add_edge(source, node(*cell), len(ids))
                   for cell, ids in by_cell.items()}

    # only cells up and right of some origin can carry flow: cell (i, j)
    # is reachable when j >= first[i], the leftmost origin column in rows
    # <= i (half when there is none).  Edges out of the other cells would
    # never carry flow, and their reverse entries keep capacity 0, so
    # leaving them out changes neither Dinic's search order nor the flow.
    first = [half] * half
    for (i, j) in by_cell:
        first[i] = min(first[i], j)
    for i in range(1, half):
        first[i] = min(first[i], first[i - 1])

    up_handle = {(i, j): net.add_edge(node(i, j), node(i + 1, j), 1)
                 for i in range(half - 1) for j in range(first[i], half)}
    right_handle = {(i, j): net.add_edge(node(i, j), node(i, j + 1), 1)
                    for i in range(half) for j in range(first[i], half - 1)}
    top_handle = {j: net.add_edge(node(half - 1, j), sink, 1)
                  for j in range(first[half - 1], half)}
    right_slot_handle = {i: net.add_edge(node(i, half - 1), sink, 1)
                         for i in range(half) if first[i] < half}

    net.max_flow(source, sink)

    residual = {h: net.flow_on(h) for h in
                list(up_handle.values()) + list(right_handle.values())
                + list(top_handle.values()) + list(right_slot_handle.values())}

    def strip(cell: tuple[int, int]) -> tuple[str, str]:
        """Follow one unit of flow from cell to an exit slot."""
        i, j = cell
        moves: list[str] = []
        while True:
            if i == half - 1 and residual.get(top_handle.get(j), 0) > 0:
                residual[top_handle[j]] -= 1
                return "".join(moves), "top"
            if j == half - 1 and residual.get(right_slot_handle.get(i), 0) > 0:
                residual[right_slot_handle[i]] -= 1
                return "".join(moves), "right"
            if residual.get(up_handle.get((i, j)), 0) > 0:
                residual[up_handle[(i, j)]] -= 1
                moves.append("f")
                i += 1
            elif residual.get(right_handle.get((i, j)), 0) > 0:
                residual[right_handle[(i, j)]] -= 1
                moves.append("s")
                j += 1
            else:
                raise SolverInvariantError("flow conservation broken during stripping")

    accepted: dict[int, tuple[GridPath, str]] = {}
    rejected: list[int] = []
    for cell in sorted(by_cell):
        ids = sorted(by_cell[cell])
        routable = net.flow_on(cell_handle[cell])
        for rid in ids[:routable]:
            moves, side = strip(cell)
            accepted[rid] = (GridPath(row0 + cell[0], col0 + cell[1], moves), side)
        rejected.extend(ids[routable:])

    side_dropped: list[int] = []
    if side_limit is not None:
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
    chi <= c); the assignment search enforces exactly those rules.
    """
    if not problem.side_counts_fit():
        raise ValueError("exit side counts exceed quadrant side lengths")
    rows, cols = problem.rows, problem.cols
    straight_up = sorted(e.offset for e in problem.entries
                         if e.side == "bottom" and e.exit_side == "top")
    straight_right = sorted(e.offset for e in problem.entries
                            if e.side == "left" and e.exit_side == "right")
    lts = sorted((e for e in problem.entries
                  if e.side == "left" and e.exit_side == "top"),
                 key=lambda e: e.offset)
    brs = sorted((e for e in problem.entries
                  if e.side == "bottom" and e.exit_side == "right"),
                 key=lambda e: e.offset)
    free_cols = [c for c in range(cols) if c not in set(straight_up)]
    free_rows = [r for r in range(rows) if r not in set(straight_right)]

    lt_col: dict[int, int] = {}   # lt offset -> assigned column
    br_row: dict[int, int] = {}   # br offset -> assigned row

    def compatible(r: int, chi: int, c: int, rho: int) -> bool:
        if chi == c and rho > r:
            return False
        if rho == r and chi > c:
            return False
        return True

    def assign(idx: int) -> bool:
        if idx == len(lts) + len(brs):
            return True
        if idx < len(lts):
            r = lts[idx].offset
            for chi in free_cols:
                if chi in lt_col.values():
                    continue
                lt_col[r] = chi
                if assign(idx + 1):
                    return True
                del lt_col[r]
            return False
        c = brs[idx - len(lts)].offset
        for rho in free_rows:
            if rho in br_row.values():
                continue
            if all(compatible(r, chi, c, rho) for r, chi in lt_col.items()):
                br_row[c] = rho
                if assign(idx + 1):
                    return True
                del br_row[c]
        return False

    if not assign(0):
        raise SolverInvariantError("one-bend assignment search failed on fitting side counts")

    out: dict[int, GridPath] = {}
    for e in problem.entries:
        if e.side == "bottom" and e.exit_side == "top":
            path = GridPath(0, e.offset, "f" * rows)
        elif e.side == "left" and e.exit_side == "right":
            path = GridPath(e.offset, 0, "s" * cols)
        elif e.side == "left":
            chi = lt_col[e.offset]
            path = GridPath(e.offset, 0, "s" * chi + "f" * (rows - e.offset))
        else:
            rho = br_row[e.offset]
            path = GridPath(0, e.offset, "f" * rho + "s" * (cols - e.offset))
        out[e.request_id] = path

    used: set[tuple[str, int, int]] = set()
    for path in out.values():
        for edge in path.edges():
            if edge in used:
                raise SolverInvariantError(f"crossbar paths collide on {edge}")
            used.add(edge)
    return out
