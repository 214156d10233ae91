"""Rewriting flows and packings so no path is longer than twice the distance.

Analysis only: no solve path calls this module.  It reproduces the paper's
path-length lemma: a request travelling distance at most d can be held to
2d grid edges at the cost of only a constant factor of throughput, and the
constructions here realize that trade deterministically (acceptance
criteria 2 and 3 measure it).  The solvers cap path lengths on their own,
through their per-request action budgets.

The grid is split into time slabs of width d (original time t = row + col,
so slab boundaries are the anti-diagonals t = jd of the untilted grid).
Each path is kept up to the first boundary it meets strictly after its
origin, then replaced by the straight forward run to its destination, which
fits inside the following slab.  A packet that starts exactly on a boundary
counts as living in the next slab, so every rewritten path enters its
boundary vertex through a capacitated in-edge; that is what caps how many
paths can pile onto one boundary vertex.

For a fractional flow the rewrite preserves throughput and then a global
scale of fwd_cap / (store_cap + 2 fwd_cap) restores feasibility.  For an
integral packing, keeping the larger origin-slab parity class and at most
fwd_cap survivors per boundary vertex yields a feasible packing with at
least fwd_cap / (2 (store_cap + fwd_cap)) of the input paths.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import Mapping

from .flow import FractionalMCF, SingleFlow
from .grid import GridPath, request_origin

__all__ = [
    "first_boundary_after",
    "flow_edges",
    "slab_index",
    "truncate_fractional",
    "truncate_integral",
    "truncate_path",
]


def slab_index(t: int, d: int) -> int:
    """Index of the width-d slab that treats time t as interior.

    Slab j spans times [(j-1)*d, j*d]; a time sitting exactly on a boundary
    belongs to the later slab, so the formula is uniform: t // d + 1.
    """
    if d < 1:
        raise ValueError("slab width must be at least 1")
    return t // d + 1


def first_boundary_after(t: int, d: int) -> int:
    """Smallest multiple of d strictly greater than t."""
    return slab_index(t, d) * d


def truncate_path(path: GridPath, d: int) -> tuple[GridPath, tuple[int, int] | None]:
    """Cut one path at its first slab boundary and forward straight from there.

    Returns the rewritten path and the (row, col) boundary vertex its suffix
    starts from, or ``(path, None)`` when the path never crosses a boundary
    and is returned unchanged.  The rewrite preserves the origin and the
    forward count, never lengthens the path, and bounds its length by
    d + forward count.
    """
    t0 = path.row + path.col
    cut = first_boundary_after(t0, d) - t0
    if len(path.moves) <= cut:
        return path, None
    prefix = path.moves[:cut]
    rest = path.moves[cut:].count("f")
    if rest == 0:
        raise ValueError("path keeps moving after reaching its destination")
    row = path.row + prefix.count("f")
    col = path.col + (cut - prefix.count("f"))
    return GridPath(path.row, path.col, prefix + "f" * rest), (row, col)


def flow_edges(flow: SingleFlow) -> dict[tuple[str, int, int], float]:
    """Map each edge key ``(kind, row, col)`` of a flow's routes to the
    summed quanta of the routes through it, added route by route in route
    order, each route's edges in path order."""
    origin = request_origin(flow.request)
    out: dict[tuple[str, int, int], float] = {}
    for quantum, moves in flow.routes:
        for key in GridPath(*origin, moves).edges():
            out[key] = out.get(key, 0.0) + quantum
    return out


def truncate_fractional(mcf: FractionalMCF, d: int, *,
                        store_cap: float, fwd_cap: float) -> FractionalMCF:
    """Bound every flow path by 2d and rescale back into the capacities.

    Per request, every path of the flow is cut at its first slab boundary
    and forwards straight on from there (``truncate_path``), which keeps the
    total amount exactly and leaves the support with diameter at most 2d.
    Stores still fit (the prefix alone used them); forward edges now carry
    at most store_cap + 2*fwd_cap, so scaling every path's weight by
    rho = fwd_cap / (store_cap + 2*fwd_cap) restores per-edge feasibility.

    The certificate fields of the result (dual_bound, cert_gap, ...) are
    carried over from the input and still describe the original solve;
    dual_bound remains a true upper bound since restricting path lengths
    only shrinks the optimum.  Congestion is recomputed for the output.
    """
    if d < 1:
        raise ValueError("slab width must be at least 1")
    if store_cap <= 0 or fwd_cap <= 0:
        raise ValueError("capacities must be positive")
    for f in mcf.flows:
        if f.request.distance > d:
            raise ValueError(
                f"request {f.request.id} travels {f.request.distance} > {d}")

    rho = fwd_cap / (store_cap + 2.0 * fwd_cap)
    flows = []
    loads: dict[tuple[str, int, int], float] = defaultdict(float)
    for f in mcf.flows:
        # the rewrite keeps each path's first cell, the request's origin
        origin = request_origin(f.request)
        routes = tuple((w * rho, truncate_path(GridPath(*origin, moves), d)[0].moves)
                       for w, moves in f.routes)
        flow = SingleFlow(f.request, f.amount * rho, routes)
        for e, w in flow_edges(flow).items():
            loads[e] += w
        flows.append(flow)

    congestion = 0.0
    for (kind, _, _), w in loads.items():
        cap = store_cap if kind == "s" else fwd_cap
        congestion = max(congestion, w / cap)
    return replace(mcf, flows=tuple(flows), congestion=congestion)


def _packing_loads(packing: Mapping[int, GridPath]) -> dict[tuple[str, int, int], int]:
    loads: dict[tuple[str, int, int], int] = defaultdict(int)
    for path in packing.values():
        for e in path.edges():
            loads[e] += 1
    return dict(loads)


def truncate_integral(packing: Mapping[int, GridPath], d: int, *,
                      store_cap: int, fwd_cap: int) -> dict[int, GridPath]:
    """Bound every packing path by 2d, keeping a guaranteed fraction.

    Three deterministic steps: keep the origin-slab parity class with more
    paths (ties keep even); rewrite each kept path at its first slab
    boundary; at every boundary vertex keep the fwd_cap rewritten paths with
    smallest request id and drop the rest.  The output is again a feasible
    packing, every path is at most 2d long, and at least
    fwd_cap / (2 (store_cap + fwd_cap)) of the input paths survive: the
    parity step halves at worst, and each boundary vertex is entered through
    in-edges of total capacity store_cap + fwd_cap, so the per-vertex cut
    keeps at least a fwd_cap / (store_cap + fwd_cap) share.
    """
    if d < 1:
        raise ValueError("slab width must be at least 1")
    if store_cap < 1 or fwd_cap < 1:
        raise ValueError("capacities must be positive integers")
    for rid, path in packing.items():
        dist = path.moves.count("f")
        if not 0 < dist <= d:
            raise ValueError(f"request {rid} travels {dist}, want 1..{d}")
        if not path.moves.endswith("f"):
            raise ValueError(f"request {rid} keeps moving after delivery")
    for (kind, row, col), load in _packing_loads(packing).items():
        cap = store_cap if kind == "s" else fwd_cap
        if load > cap:
            raise ValueError(
                f"input packing overloads {kind} edge at ({row}, {col})")

    sides: dict[int, list[int]] = {0: [], 1: []}
    for rid, path in packing.items():
        sides[slab_index(path.row + path.col, d) % 2].append(rid)
    kept = sides[0] if len(sides[0]) >= len(sides[1]) else sides[1]

    survivors: dict[int, GridPath] = {}
    crossing: dict[tuple[int, int], list[int]] = defaultdict(list)
    rewritten: dict[int, GridPath] = {}
    for rid in sorted(kept):
        new_path, vertex = truncate_path(packing[rid], d)
        if vertex is None:
            survivors[rid] = new_path
        else:
            rewritten[rid] = new_path
            crossing[vertex].append(rid)
    for vertex in sorted(crossing):
        for rid in sorted(crossing[vertex])[:fwd_cap]:
            survivors[rid] = rewritten[rid]
    return survivors
