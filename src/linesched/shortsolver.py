"""Exact tile-confined solver for short-distance requests.

Requests with distance at most some level L get a dedicated deterministic
algorithm: fix a tiling of side 4L (rounded up to a multiple of 6), split
the requests into the four shift classes, and inside every tile of a class
compute an exact maximum-cardinality packing of paths that never leave the
tile and are at most 2L long.  Bounded length keeps every path inside the
tile of its origin (2L is half a tile side), so tiles never interact and
per-tile exact search is sound.  The best of the four class solutions wins.

The per-tile search is a branch and bound over requests in id order, trying
each request's paths forwards before stores and then leaving it out.  Paths
are enumerated lazily at each visit, and an edge that is already full cuts
off every path through it before any is built, so a request placed on its
first try costs one path.  Every path leaves its origin through a store or a
forward edge, so residual out-capacity at the origins caps what the remaining
requests can add; the search prunes on that cut and stops as soon as the
packing reaches the tile's bound (the cut over all of the tile's requests).
A node budget guards against adversarial pile-ups in a single tile; when it
trips the remaining requests in that tile are packed greedily, which keeps
the output valid (the budget is far beyond anything random workloads reach).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .grid import GridPath, request_origin
from .model import PacketRequest, round_up_to_multiple_of_6
from .tiling import Tiling, partition_classes, shift_pairs

__all__ = ["TileSolution", "solve_short", "solve_tile_exact"]

_NODE_BUDGET = 200_000      # paths one tile's search may place


@dataclass(frozen=True)
class TileSolution:
    packing: dict[int, GridPath]
    exact: bool          # False when the node budget forced a greedy finish
    nodes: int           # paths the search placed


def _tile_paths(req: PacketRequest, row1: int, col1: int, max_len: int,
                usable: Callable[[tuple[str, int, int]], bool] | None = None
                ) -> Iterator[str]:
    """All confined paths for one request, forwards tried before stores.

    Yields move strings with exactly req.distance forwards, ending on the
    delivering forward, never exceeding max_len moves or leaving the tile
    whose exclusive upper bounds are row1/col1.  Deadlines cap the length
    further since arrival time is release time plus path length.  With
    ``usable``, only paths whose every edge passes it are yielded, in the
    same order; a failing edge cuts off every path through it at once.
    """
    if req.deadline is not None:
        max_len = min(max_len, req.deadline - req.t)
    dist = req.distance
    if max_len < dist or req.b > row1 - 1:
        return
    start_row, start_col = request_origin(req)
    budget = max_len - dist          # how many stores may be inserted
    budget = min(budget, col1 - 1 - start_col)
    if budget < 0:
        return
    stack: list[tuple[int, str, int, int]] = [(0, "", start_row, start_col)]
    while stack:
        used_stores, moves, row, col = stack.pop()
        if row - start_row == dist:
            yield moves
            continue
        # stores pushed first so forwards pop first
        if used_stores < budget and (usable is None or usable(("s", row, col))):
            stack.append((used_stores + 1, moves + "s", row, col + 1))
        if usable is None or usable(("f", row, col)):
            stack.append((used_stores, moves + "f", row + 1, col))


def solve_tile_exact(requests: Sequence[PacketRequest], tiling: Tiling,
                     tile: tuple[int, int], store_cap: int, fwd_cap: int,
                     max_len: int) -> TileSolution:
    """Maximum-cardinality packing of confined paths inside one tile."""
    row0, col0 = tiling.tile_origin(tile)
    row1, col1 = row0 + tiling.k, col0 + tiling.k
    reqs = sorted(requests, key=lambda r: r.id)
    for r in reqs:
        if tiling.tile_of(*request_origin(r)) != tile:
            raise ValueError(f"request {r.id} does not originate in tile {tile}")

    # waiting[idx]: origin cell -> how many of requests idx.. have a path
    waiting: list[dict[tuple[int, int], int]] = [{}]
    for r in reversed(reqs):
        counts = dict(waiting[-1])
        if next(_tile_paths(r, row1, col1, max_len), None) is not None:
            origin = request_origin(r)
            counts[origin] = counts.get(origin, 0) + 1
        waiting.append(counts)
    waiting.reverse()

    best: dict[int, GridPath] = {}
    loads: dict[tuple[str, int, int], int] = defaultdict(int)
    chosen: dict[int, GridPath] = {}
    nodes = 0
    budget_left = _NODE_BUDGET

    def usable(edge: tuple[str, int, int]) -> bool:
        return loads[edge] < (store_cap if edge[0] == "s" else fwd_cap)

    def fitting_paths(r: PacketRequest) -> Iterator[GridPath]:
        # loads change only while a yielded path is placed, and are restored
        # before the generator resumes, so its edge checks stay valid
        row, col = request_origin(r)
        for moves in _tile_paths(r, row1, col1, max_len, usable):
            yield GridPath(row, col, moves)

    def place(path: GridPath, sign: int) -> None:
        for e in path.edges():
            loads[e] += sign

    def packable(idx: int) -> int:
        # Every path leaves through its origin's store or forward edge, so
        # residual out-capacity there caps what requests idx.. can add.
        return sum(min(count, store_cap - loads["s", row, col]
                       + fwd_cap - loads["f", row, col])
                   for (row, col), count in waiting[idx].items())

    # The branch and bound runs from an explicit stack, in recursion order.
    # A frame is a request index, the bound at its node and its path
    # iterator; its request is in ``chosen`` while a child node runs.
    # Leaving the request out is a frame's last act, so it replaces it.
    frames: list[tuple[int, int, Iterator[GridPath]]] = []
    visit: int | None = 0              # a node to enter, or None to resume
    while True:
        if visit is not None:
            # No packing below this node exceeds ``bound``; at the root it
            # is the tile's bound, so reaching that ends the search.
            bound = len(chosen) + packable(visit)
            if bound > len(best):
                if visit == len(reqs):
                    best = dict(chosen)
                else:
                    frames.append((visit, bound, fitting_paths(reqs[visit])))
            visit = None
        if not frames:
            break
        idx, bound, paths = frames[-1]
        rid = reqs[idx].id
        if rid in chosen:              # back from the child under its path
            place(chosen.pop(rid), -1)
            if bound <= len(best):
                frames.pop()
                continue
        path = next(paths, None)
        if path is None or budget_left <= 0:
            frames.pop()
            if path is None:           # leave the request out
                visit = idx + 1
            continue
        nodes += 1
        budget_left -= 1
        place(path, 1)
        chosen[rid] = path
        visit = idx + 1

    exact = budget_left > 0
    if not exact:
        # greedy completion: keep whatever beats the truncated search
        greedy: dict[int, GridPath] = {}
        loads.clear()
        for r in reqs:
            path = next(fitting_paths(r), None)
            if path is not None:
                place(path, 1)
                greedy[r.id] = path
        if len(greedy) > len(best):
            best = greedy
    return TileSolution(best, exact, nodes)


def solve_short(requests: Iterable[PacketRequest], level: float,
                store_cap: int, fwd_cap: int) -> dict[int, GridPath]:
    """Best-of-four-classes exact solver for distances up to ``level``.

    Returns a valid packing; unservable requests (deadline ahead of the
    earliest possible arrival) are simply left out.
    """
    reqs = [r for r in requests]
    for r in reqs:
        if r.distance > level:
            raise ValueError(
                f"request {r.id} travels {r.distance} > level {level}")
    max_len = int(2 * level)
    k = round_up_to_multiple_of_6(4 * level)
    classes = partition_classes(reqs, k)
    best: dict[int, GridPath] = {}
    for (phi_col, phi_row), cls in zip(shift_pairs(k), classes):
        tiling = Tiling(k, phi_col, phi_row)
        by_tile: dict[tuple[int, int], list[PacketRequest]] = defaultdict(list)
        for r in cls:
            by_tile[tiling.tile_of(*request_origin(r))].append(r)
        packing: dict[int, GridPath] = {}
        for tile in sorted(by_tile):
            sol = solve_tile_exact(by_tile[tile], tiling, tile,
                                   store_cap, fwd_cap, max_len)
            packing.update(sol.packing)
        if len(packing) > len(best):
            best = packing
    return best
