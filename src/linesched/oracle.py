"""Exact brute-force solvers, usable only at desk scale.

Everything here exists to certify the fast code elsewhere in the package:
``optimal_schedule`` is ground truth for whole instances, the quadrant and
crossbar searches are ground truth for the two routing subproblems.  All
three enforce hard size limits and raise :class:`SizeLimitError` beyond
them; none of this is meant to scale.

Two deliberately different exhaustive strategies are kept side by side for
the schedule problem (branch and bound over per-request path lists, and a
subset-first enumerator) so tests can demand their agreement.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .grid import GridPath, request_origin
from .model import Instance, PacketRequest
from .routing import CrossbarProblem

__all__ = [
    "SizeLimitError",
    "crossbar_feasible_bruteforce",
    "optimal_schedule",
    "optimal_throughput_exhaustive",
    "quadrant_feasible_bruteforce",
]

_MAX_REQUESTS = 8
_MAX_NODES = 10
_MAX_PATH_CAP = 12


class SizeLimitError(ValueError):
    """The input is too large for an exhaustive search."""


def _check_schedule_limits(instance: Instance, cap: int) -> None:
    if len(instance.requests) > _MAX_REQUESTS:
        raise SizeLimitError(
            f"{len(instance.requests)} requests > {_MAX_REQUESTS}")
    if instance.n > _MAX_NODES:
        raise SizeLimitError(f"n={instance.n} > {_MAX_NODES}")
    if cap > _MAX_PATH_CAP:
        raise SizeLimitError(f"path cap {cap} > {_MAX_PATH_CAP}")


def _default_cap(instance: Instance) -> int:
    longest = max((r.distance for r in instance.requests), default=1)
    return min(_MAX_PATH_CAP, instance.n + 2 * longest)


def _request_paths(req: PacketRequest, cap: int) -> list[GridPath]:
    """Every path of at most cap actions delivering the request.

    Delivery is the first touch of row b, so paths hold exactly
    ``req.distance`` forward moves and end on one.  Order: forwards first,
    which makes the all-forward path the head of the list.
    """
    if req.deadline is not None:
        cap = min(cap, req.deadline - req.t)
    dist = req.distance
    if dist > cap:
        return []
    row, col = request_origin(req)
    out: list[GridPath] = []
    stack = [(0, "")]
    while stack:
        stores, moves = stack.pop()
        if len(moves) - stores == dist:
            out.append(GridPath(row, col, moves))
            continue
        if stores + dist < cap:
            stack.append((stores + 1, moves + "s"))
        stack.append((stores, moves + "f"))
    return out


def optimal_schedule(instance: Instance,
                     path_len_cap: int | None = None) -> dict[int, GridPath]:
    """Maximum-cardinality packing with paths of at most path_len_cap actions.

    Branch and bound over requests in id order; deterministic.  The default
    cap is n + twice the longest distance, clipped to the enforced maximum
    of 12; tests confirm the optimum has stabilized well below the clip.
    """
    cap = _default_cap(instance) if path_len_cap is None else path_len_cap
    _check_schedule_limits(instance, cap)
    reqs = sorted(instance.requests, key=lambda r: r.id)
    candidates = [_request_paths(r, cap) for r in reqs]
    origins = [request_origin(r) for r in reqs]

    best: dict[int, GridPath] = {}
    chosen: dict[int, GridPath] = {}
    loads: dict[tuple[str, int, int], int] = defaultdict(int)

    def fits(path: GridPath) -> bool:
        return all(loads[e] < (instance.B if e[0] == "s" else instance.c)
                   for e in path.edges())

    def still_packable(idx: int) -> int:
        # Every path leaves through its origin's store or forward edge, so
        # residual out-capacity there caps what the suffix can still add.
        waiting: dict[tuple[int, int], int] = defaultdict(int)
        for j in range(idx, len(reqs)):
            if candidates[j]:
                waiting[origins[j]] += 1
        total = 0
        for (row, col), count in waiting.items():
            residual = (instance.B - loads["s", row, col]
                        + instance.c - loads["f", row, col])
            total += min(count, residual)
        return total

    def search(idx: int) -> None:
        nonlocal best
        if len(chosen) + still_packable(idx) <= len(best):
            return
        if idx == len(reqs):
            best = dict(chosen)
            return
        for path in candidates[idx]:
            if fits(path):
                for e in path.edges():
                    loads[e] += 1
                chosen[reqs[idx].id] = path
                search(idx + 1)
                del chosen[reqs[idx].id]
                for e in path.edges():
                    loads[e] -= 1
        search(idx + 1)

    search(0)
    return best


def optimal_throughput_exhaustive(instance: Instance,
                                  path_len_cap: int | None = None) -> int:
    """Same optimum as :func:`optimal_schedule` by an unrelated strategy.

    Enumerates request subsets from largest to smallest and checks each by
    plain depth-first path assignment with no bounding at all.  Agreement
    of the two functions is a standing test invariant.
    """
    cap = _default_cap(instance) if path_len_cap is None else path_len_cap
    _check_schedule_limits(instance, cap)
    reqs = sorted(instance.requests, key=lambda r: r.id)
    paths = {r.id: _request_paths(r, cap) for r in reqs}

    def assignable(subset: Sequence[PacketRequest],
                   loads: dict[tuple[str, int, int], int]) -> bool:
        if not subset:
            return True
        head, rest = subset[0], subset[1:]
        for path in paths[head.id]:
            edges = list(path.edges())
            if all(loads[e] < (instance.B if e[0] == "s" else instance.c)
                   for e in edges):
                for e in edges:
                    loads[e] += 1
                if assignable(rest, loads):
                    for e in edges:
                        loads[e] -= 1
                    return True
                for e in edges:
                    loads[e] -= 1
        return False

    for size in range(len(reqs), 0, -1):
        for subset in combinations(reqs, size):
            if assignable(subset, defaultdict(int)):
                return size
    return 0


# ---------------------------------------------------------------------------
# Quadrant feasibility.

@lru_cache(maxsize=None)
def _quadrant_options(cell: tuple[int, int],
                      half: int) -> tuple[tuple[frozenset, tuple[str, int]], ...]:
    """(edge set, exit slot) pairs reachable from cell, memoized."""
    out = []
    stack = [(cell[0], cell[1], ())]
    while stack:
        i, j, edges = stack.pop()
        if i == half - 1:
            out.append((frozenset(edges), ("top", j)))
        if j == half - 1:
            out.append((frozenset(edges), ("right", i)))
        if i + 1 < half:
            stack.append((i + 1, j, edges + (("f", i, j),)))
        if j + 1 < half:
            stack.append((i, j + 1, edges + (("s", i, j),)))
    return tuple(out)


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

    for size in range(len(origins), 0, -1):
        for subset in combinations(range(len(origins)), size):
            if _routable(tuple(sorted(origins[i] for i in subset)), half):
                return size
    return 0


_ROUTABLE_CACHE: dict[tuple[tuple[tuple[int, int], ...], int], bool] = {}


def _routable(cells: tuple[tuple[int, int], ...], half: int) -> bool:
    """Whether the origin multiset admits a full edge-disjoint routing.

    Pure in (cells, half), so results are cached; duplicate origins are
    forced onto increasing option indices to avoid permuted re-exploration.
    """
    hit = _ROUTABLE_CACHE.get((cells, half))
    if hit is not None:
        return hit
    opts = [_quadrant_options(cell, half) for cell in cells]
    used_edges: set = set()
    used_slots: set = set()

    def place(pos: int, floor: int) -> bool:
        if pos == len(cells):
            return True
        begin = floor if pos and cells[pos - 1] == cells[pos] else 0
        for oi in range(begin, len(opts[pos])):
            edges, slot = opts[pos][oi]
            if slot in used_slots or edges & used_edges:
                continue
            used_slots.add(slot)
            used_edges.update(edges)
            if place(pos + 1, oi + 1):
                return True
            used_slots.remove(slot)
            used_edges.difference_update(edges)
        return False

    ok = place(0, 0)
    _ROUTABLE_CACHE[(cells, half)] = ok
    return ok


# ---------------------------------------------------------------------------
# Crossbar feasibility.

def crossbar_feasible_bruteforce(problem: CrossbarProblem,
                                 ) -> tuple[bool, dict[int, GridPath] | None]:
    """Exact crossbar feasibility with a witness routing when one exists.

    Backtracking over all monotone edge-disjoint paths from each entry cell
    through an exit edge on the required side; paths may bend any number of
    times, so this is strictly more permissive than the constructive
    router's one-bend repertoire.
    """
    if problem.rows > 5 or problem.cols > 5:
        raise SizeLimitError(f"crossbar {problem.rows}x{problem.cols} > 5x5")
    if len(problem.entries) > 6:
        raise SizeLimitError(f"{len(problem.entries)} entries > 6")
    rows, cols = problem.rows, problem.cols

    def paths_for(entry) -> list[GridPath]:
        start = (entry.offset, 0) if entry.side == "left" else (0, entry.offset)
        want_top = entry.exit_side == "top"
        out = []
        stack = [(start[0], start[1], "")]
        while stack:
            i, j, moves = stack.pop()
            if want_top and i == rows - 1:
                out.append(GridPath(start[0], start[1], moves + "f"))
            if not want_top and j == cols - 1:
                out.append(GridPath(start[0], start[1], moves + "s"))
            if i + 1 < rows:
                stack.append((i + 1, j, moves + "f"))
            if j + 1 < cols:
                stack.append((i, j + 1, moves + "s"))
        return out

    entries = sorted(problem.entries, key=lambda e: e.request_id)
    per_entry = [paths_for(e) for e in entries]
    used: set = set()
    witness: dict[int, GridPath] = {}

    def place(pos: int) -> bool:
        if pos == len(entries):
            return True
        for path in per_entry[pos]:
            edges = list(path.edges())
            if any(e in used for e in edges):
                continue
            used.update(edges)
            witness[entries[pos].request_id] = path
            if place(pos + 1):
                return True
            del witness[entries[pos].request_id]
            used.difference_update(edges)
        return False

    if place(0):
        return True, dict(witness)
    return False, None
