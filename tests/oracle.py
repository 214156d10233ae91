"""Exact solvers the tests check the package's fast code against.

``optimal_schedule`` is ground truth for whole instances and
``fractional_optimum`` for the relaxation the fractional solver
approximates.  Both solve one arc formulation of the packing problem with
HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018), as a binary program and as
a linear program.  The model shares no code or idea with the package's
searches, so agreement with it is an independent check.  scipy is imported
on first use, so the brute forces below run without it.

The quadrant and crossbar searches are brute-force ground truth for the two
routing subproblems.  Both ask whether a multiset of terminals, each a
start cell and the window sides its path may leave by, has edge-disjoint
monotone paths out of a grid window.  They share one enumerator of such
paths, each an int of edge bits, and one memoized backtracking search over
those ints.  They enforce hard size limits and raise
:class:`SizeLimitError` beyond them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from linesched.grid import GridPath, request_origin
from linesched.model import Instance, PacketRequest
from linesched.routing import CrossbarProblem

__all__ = [
    "SizeLimitError",
    "crossbar_feasible_bruteforce",
    "fractional_optimum",
    "optimal_schedule",
    "quadrant_feasible_bruteforce",
]


class SizeLimitError(ValueError):
    """The input is too large for an exhaustive search."""


Edge = tuple[str, int, int]


def _arc_model(reqs: Sequence[PacketRequest], budgets: Sequence[int],
               store_cap: float, fwd_cap: float, integral: bool,
               ) -> tuple[float, list[float], list[dict[Edge, int]]]:
    """Solve the arc formulation of the packing problem with HiGHS.

    Request ``i`` takes paths of at most ``budgets[i]`` actions, so its
    window spans rows ``a..b-1`` and columns ``col0..col0 + budgets[i] - d``
    from its origin ``(a, col0)``.  The variables are the accepted amount
    of each request, in request order, then one per request and window
    edge.  Every window cell conserves flow, the origin emitting the
    accepted amount; forward edges into row ``b`` deliver.  Each grid edge
    carries at most ``store_cap`` or ``fwd_cap`` summed over the requests.
    Every variable lies in [0, 1], and is binary when ``integral``.

    Returns the optimum, the variable values and, per request, its window
    edges mapped to their variables.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    if not reqs:                                # HiGHS needs a variable
        return 0.0, [], []
    n_var = len(reqs)
    eq: list[tuple[int, int, float]] = []       # (cell, variable, coefficient)
    arcs: list[dict[Edge, int]] = []
    n_cell = 0
    for i, (r, budget) in enumerate(zip(reqs, budgets)):
        col0 = request_origin(r)[1]
        last = col0 + budget - r.distance
        cell = {rc: n_cell + k for k, rc in enumerate(
            product(range(r.a, r.b), range(col0, last + 1)))}
        # the origin, first cell of the window, emits the accepted amount; a
        # request without a window keeps that row alone, which pins it to 0
        eq.append((n_cell, i, -1.0))
        n_cell += len(cell) or 1
        mine: dict[Edge, int] = {}
        for (row, col), here in cell.items():
            for kind, head in (("f", (row + 1, col)), ("s", (row, col + 1))):
                if kind == "s" and col == last:
                    continue
                eq.append((here, n_var, 1.0))
                if head in cell:
                    eq.append((cell[head], n_var, -1.0))
                mine[kind, row, col] = n_var
                n_var += 1
        arcs.append(mine)

    edge_row: dict[Edge, int] = {}
    ub = [(edge_row.setdefault(edge, len(edge_row)), var, 1.0)
          for mine in arcs for edge, var in mine.items()]

    def sparse(entries: list[tuple[int, int, float]], n_rows: int) -> coo_matrix:
        rows, cols, vals = np.array(entries, dtype=float).reshape(-1, 3).T
        return coo_matrix((vals, (rows.astype(int), cols.astype(int))),
                          shape=(n_rows, n_var))

    cost = np.zeros(n_var)
    cost[:len(reqs)] = -1.0
    caps = [store_cap if kind == "s" else fwd_cap for kind, _, _ in edge_row]
    res = milp(cost, integrality=np.full(n_var, int(integral)),
               bounds=Bounds(0.0, 1.0),
               constraints=[LinearConstraint(sparse(eq, n_cell), 0.0, 0.0),
                            LinearConstraint(sparse(ub, len(edge_row)), -np.inf, caps)],
               options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the arc model: {res.message}")
    return -float(res.fun), res.x.tolist(), arcs


def optimal_schedule(instance: Instance,
                     path_len_cap: int | None = None) -> dict[int, GridPath]:
    """Maximum-cardinality packing with paths of at most path_len_cap actions.

    The arc model as a binary program; each accepted request's path is read
    back by walking its unit edges from its origin.  A deadline clips its
    request's cap to ``deadline - t``.  The default cap is n + twice the
    longest distance.
    """
    if path_len_cap is None:
        path_len_cap = instance.n + 2 * max(
            (r.distance for r in instance.requests), default=1)
    reqs = sorted(instance.requests, key=lambda r: r.id)
    budgets = [path_len_cap if r.deadline is None
               else min(path_len_cap, r.deadline - r.t) for r in reqs]
    _, x, arcs = _arc_model(reqs, budgets, instance.B, instance.c, integral=True)
    packing: dict[int, GridPath] = {}
    for i, r in enumerate(reqs):
        if x[i] < 0.5:
            continue
        row, col = origin = request_origin(r)
        moves = ""
        while row < r.b:
            if x[arcs[i]["f", row, col]] > 0.5:
                moves, row = moves + "f", row + 1
            else:
                moves, col = moves + "s", col + 1
        packing[r.id] = GridPath(*origin, moves)
    return packing


def fractional_optimum(requests: Sequence[PacketRequest], store_cap: float,
                       fwd_cap: float, hop_bounds: Mapping[int, int]) -> float:
    """Optimum of the relaxation ``flow.max_throughput_mcf`` approximates.

    The arc model with continuous variables: each request is accepted to
    an amount in [0, 1] over paths of at most ``hop_bounds[id]`` actions,
    and deadlines are left to the hop bounds, as in the fractional solver.
    """
    return _arc_model(requests, [hop_bounds[r.id] for r in requests],
                      store_cap, fwd_cap, integral=False)[0]


# ---------------------------------------------------------------------------
# Routing feasibility: edge-disjoint monotone paths out of a window.

_TOP, _RIGHT = 1, 2     # the sides a terminal's path may leave by


@lru_cache(maxsize=None)
def _paths(terminal: tuple[int, int, int], rows: int, cols: int,
           ) -> tuple[int, ...]:
    """Every monotone path from a terminal out of a rows x cols window.

    A terminal is a start cell ``(i, j)`` and a mask of the sides its path
    may leave by.  A path is one int of bits: bit ``2 u`` is the forward
    edge out of cell ``u = i * cols + j`` and bit ``2 u + 1`` its store
    edge.  Leaving through the top or the right takes the boundary cell's
    own forward or store bit, so two paths share an edge or an exit
    exactly when their ints share a bit.
    """
    i0, j0, sides = terminal
    out = []
    stack = [(i0, j0, 0)]
    while stack:
        i, j, edges = stack.pop()
        u = 2 * (i * cols + j)
        if i == rows - 1 and sides & _TOP:
            out.append(edges | 1 << u)
        if j == cols - 1 and sides & _RIGHT:
            out.append(edges | 2 << u)
        if i + 1 < rows:
            stack.append((i + 1, j, edges | 1 << u))
        if j + 1 < cols:
            stack.append((i, j + 1, edges | 2 << u))
    return tuple(out)


def _smaller(terminals: tuple):
    """The distinct multisets one terminal smaller than the sorted ones."""
    for k in range(len(terminals)):
        if not k or terminals[k] != terminals[k - 1]:
            yield terminals[:k] + terminals[k + 1:]


@lru_cache(maxsize=None)
def _routing(terminals: tuple[tuple[int, int, int], ...], rows: int,
             cols: int) -> tuple[int, ...] | None:
    """Indices into each terminal's ``_paths`` of an edge-disjoint routing
    of the sorted terminal multiset, or None when there is none.

    Routability is hereditary: dropping a path from a routing routes the
    rest.  So a multiset with an unroutable one-smaller multiset is
    unroutable with no search.  Otherwise a backtracking search places one
    path per terminal, duplicate terminals on increasing path indices to
    avoid permuted re-exploration.
    """
    for sub in _smaller(terminals):
        if _routing(sub, rows, cols) is None:
            return None
    opts = [_paths(t, rows, cols) for t in terminals]
    size = len(terminals)
    repeats = [k and terminals[k - 1] == terminals[k] for k in range(size)]

    def place(pos: int, floor: int, used: int) -> tuple[int, ...] | None:
        if pos == size:
            return ()
        begin = floor if repeats[pos] else 0
        for oi in range(begin, len(opts[pos])):
            bits = opts[pos][oi]
            if not bits & used:
                rest = place(pos + 1, oi + 1, used | bits)
                if rest is not None:
                    return (oi, *rest)
        return None

    return place(0, 0, 0)


def quadrant_feasible_bruteforce(origins: Sequence[tuple[int, int]],
                                 half: int) -> int:
    """Largest routable subset of origins in a half x half quadrant window.

    Routable means edge-disjoint monotone paths inside the window, each
    ending by consuming an exit slot: one top slot per top-row vertex, one
    right slot per right-column vertex, the corner owning one of each.
    Origins are local (row, col) cells and may repeat.
    """
    if half > 4:
        raise SizeLimitError(f"window side {half} > 4")
    if len(origins) > 6:
        raise SizeLimitError(f"{len(origins)} origins > 6")
    for r, c in origins:
        if not (0 <= r < half and 0 <= c < half):
            raise ValueError(f"origin ({r}, {c}) outside the window")
    return _largest(tuple(sorted((r, c, _TOP | _RIGHT) for r, c in origins)), half)


@lru_cache(maxsize=None)
def _largest(terminals: tuple[tuple[int, int, int], ...], half: int) -> int:
    """Size of the largest routable sub-multiset of the sorted terminals."""
    if _routing(terminals, half, half) is not None:
        return len(terminals)
    return max(_largest(sub, half) for sub in _smaller(terminals))


def crossbar_feasible_bruteforce(problem: CrossbarProblem,
                                 ) -> tuple[bool, dict[int, GridPath] | None]:
    """Exact crossbar feasibility with a witness routing when one exists.

    Searches all monotone edge-disjoint paths from each entry cell through
    an exit edge on the required side; paths may bend any number of times,
    so this is strictly more permissive than the constructive router's
    one-bend repertoire.
    """
    if problem.rows > 5 or problem.cols > 5:
        raise SizeLimitError(f"crossbar {problem.rows}x{problem.cols} > 5x5")
    if len(problem.entries) > 6:
        raise SizeLimitError(f"{len(problem.entries)} entries > 6")
    rows, cols = problem.rows, problem.cols
    terminals = sorted(
        ((e.offset, 0) if e.side == "left" else (0, e.offset))
        + (_TOP if e.exit_side == "top" else _RIGHT,) + (e.request_id,)
        for e in problem.entries)
    chosen = _routing(tuple(t[:3] for t in terminals), rows, cols)
    if chosen is None:
        return False, None
    witness: dict[int, GridPath] = {}
    for (i0, j0, sides, rid), oi in zip(terminals, chosen):
        edges = _paths((i0, j0, sides), rows, cols)[oi]
        i, j, moves = i0, j0, ""
        while i < rows and j < cols:
            if edges >> 2 * (i * cols + j) & 1:
                moves, i = moves + "f", i + 1
            else:
                moves, j = moves + "s", j + 1
        witness[rid] = GridPath(i0, j0, moves)
    return True, witness
