"""Randomized constant-factor pipeline for medium and long range requests.

The pipeline turns a fractional flow into an integral schedule in stages:

1. solve the fractional relaxation at capacities scaled down by the
   Chernoff constant lambda, with per-request action budgets of twice the
   band's maximum distance (deadlines clip the budget further),
2. split requests into the four tiling shift classes and keep the class
   holding the most fractional value,
3. round each kept request independently: accept with probability equal to
   its flow amount, then walk a random path through its own flow,
4. drop every request that projects onto an overloaded tile-graph edge
   (load above 2*lambda*k counted over all rounded requests),
5. inside every tile, route the survivors' origins to the boundary of the
   lower-left quadrant by a max-flow, capping each exit side at k/3,
6. stitch the tile-to-tile journey quadrant by quadrant with one-bend
   crossbar routings, walling quadrants so that all traffic between tiles
   funnels through the upper-right quadrant,
7. cut each planned path at the first touch of its destination row.

Quadrant geometry inside a tile of side k (h = k/2): SW covers local rows
and columns [0, h), NW rows [h, k) columns [0, h), SE rows [0, h) columns
[h, k), NE both in [h, k).  Entries and exits are index-preserving: an exit
at local offset i lands at local offset i of the receiving quadrant, which
keeps the bookkeeping to one integer per hand-off.

Planned paths of requests delivered in their final tile may include the
tile's virtual exit rows above the network; the delivery cut always falls
inside the real grid, so emitted schedules never touch virtual rows.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .flow import MaxFlow, max_throughput_mcf, randomized_round
from .grid import GridPath, request_origin
from .model import (Category, Instance, PacketRequest, Thresholds,
                    capacity_scale, categorize, round_up_to_multiple_of_6)
from .shortsolver import solve_short
from .tiling import Tiling, partition_classes, project, shift_pairs

__all__ = [
    "CrossbarEntry",
    "CrossbarProblem",
    "PipelineParams",
    "QuadrantRouting",
    "SolveReport",
    "StageTrace",
    "filter_congested",
    "quadrant_route",
    "route_crossbar",
    "route_detailed",
    "run_medium_long",
    "solve_instance",
]


# ---------------------------------------------------------------------------
# Parameters and trace.

@dataclass(frozen=True)
class PipelineParams:
    """Knobs for one distance band (d_min, d_max]."""

    d_max: float
    k: int
    lam: float
    eps: float
    seed: int

    def __post_init__(self) -> None:
        if self.k < 6 or self.k % 6:
            raise ValueError(f"tile side must be a positive multiple of 6, got {self.k}")
        if self.d_max < 1:
            raise ValueError(f"band maximum must be >= 1, got {self.d_max}")
        # routing headroom: congested-edge crossers plus one quadrant side
        # cap must fit into the half-tile lanes of a pass-through quadrant
        if self.filter_threshold + self.side_limit > self.k // 2:
            raise ValueError("filter and side caps exceed half-tile lanes")

    @classmethod
    def for_band(cls, d_max: float, *, seed: int, eps: float = 0.05) -> "PipelineParams":
        k = round_up_to_multiple_of_6(6.0 * math.log(max(d_max, 1.0)))
        return cls(d_max=d_max, k=k, lam=capacity_scale(), eps=eps, seed=seed)

    @property
    def d_min(self) -> float:
        return 3.0 * math.log(max(self.d_max, 1.0))

    @property
    def filter_threshold(self) -> float:
        return 2.0 * self.lam * self.k

    @property
    def side_limit(self) -> int:
        return self.k // 3

    @property
    def hop_cap(self) -> int:
        return int(2 * self.d_max)


@dataclass
class StageTrace:
    """What survived each stage, for reports and ratio accounting."""

    class_sizes: tuple[int, int, int, int] = (0, 0, 0, 0)
    chosen_class: int = -1
    class_value: float = 0.0
    fractional_value: float = 0.0
    fractional_bound: float = 0.0
    certified: bool = False
    rounded: tuple[int, ...] = ()
    filtered: tuple[int, ...] = ()
    routed: tuple[int, ...] = ()
    final: tuple[int, ...] = ()
    unservable: int = 0
    quadrant_rejects: int = 0
    side_drops: int = 0
    terminal_drops: int = 0
    deadline_drops: int = 0
    max_deadline_overshoot: int = 0

    def counts(self) -> dict[str, int]:
        return {
            "R_rnd": len(self.rounded),
            "R_fltr": len(self.filtered),
            "R_quad": len(self.routed),
            "R_final": len(self.final),
        }


# ---------------------------------------------------------------------------
# Stage: congestion filter on the tile graph.

def filter_congested(paths: Mapping[int, GridPath], tiling: Tiling,
                     threshold: float) -> tuple[int, ...]:
    """Ids whose whole tile-graph projection stays at or below threshold.

    Loads count every input request, including ones that are themselves
    dropped, so survival of request i never depends on the fate of others.
    """
    sketches = {rid: project(paths[rid], tiling) for rid in paths}
    load: dict[tuple[tuple[int, int], tuple[int, int]], int] = defaultdict(int)
    for rid, sk in sketches.items():
        for a, b in zip(sk, sk[1:]):
            load[(a, b)] += 1
    kept = [rid for rid, sk in sketches.items()
            if all(load[(a, b)] <= threshold for a, b in zip(sk, sk[1:]))]
    return tuple(sorted(kept))


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

    up_handle = {(i, j): net.add_edge(node(i, j), node(i + 1, j), 1)
                 for i in range(half - 1) for j in range(half)}
    right_handle = {(i, j): net.add_edge(node(i, j), node(i, j + 1), 1)
                    for i in range(half) for j in range(half - 1)}
    top_handle = {j: net.add_edge(node(half - 1, j), sink, 1)
                  for j in range(half)}
    right_slot_handle = {i: net.add_edge(node(i, half - 1), sink, 1)
                         for i in range(half)}

    net.max_flow(source, sink)

    residual = {h: net.flow_on(h) for h in
                list(up_handle.values()) + list(right_handle.values())
                + list(top_handle.values()) + list(right_slot_handle.values())}

    def strip(cell: tuple[int, int]) -> tuple[str, str]:
        """Follow one unit of flow from cell to an exit slot."""
        i, j = cell
        moves: list[str] = []
        while True:
            if i == half - 1 and residual.get(top_handle[j], 0) > 0:
                residual[top_handle[j]] -= 1
                return "".join(moves), "top"
            if j == half - 1 and residual.get(right_slot_handle[i], 0) > 0:
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
                raise AssertionError("flow conservation broken during stripping")

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
    cannot fit; any other failure would be a bug and trips an assertion.

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
        raise AssertionError("one-bend assignment search failed on fitting side counts")

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
                raise AssertionError(f"crossbar paths collide on {edge}")
            used.add(edge)
    return out

# ---------------------------------------------------------------------------
# Stage: stitch tiles together and cut at delivery.

def _cut_at_delivery(path: GridPath, dest_row: int) -> GridPath:
    """Prefix of the path through the forward move that first hits dest_row."""
    need = dest_row - path.row
    count = 0
    for idx, mv in enumerate(path.moves):
        if mv == "f":
            count += 1
            if count == need:
                return GridPath(path.row, path.col, path.moves[: idx + 1])
    raise AssertionError("planned path never reaches its destination row")


def route_detailed(survivors: Mapping[int, tuple[GridPath, str]],
                   sketches: Mapping[int, tuple[tuple[int, int], ...]],
                   requests: Mapping[int, PacketRequest],
                   tiling: Tiling, params: PipelineParams,
                   ) -> tuple[dict[int, GridPath], dict[int, GridPath], tuple[int, ...]]:
    """Extend quadrant-boundary paths along each request's tile sketch.

    Tiles are processed in a topological order of the tile DAG.  Inside a
    tile, traffic entering from the left joins the NW quadrant and always
    exits right; traffic from below joins SE and always exits top; both meet
    in NE, which alone touches the next tiles.  A request is terminal in the
    last tile of its sketch and is steered to NE's top row, where exit
    columns are a shared scarce resource: when up-crossers plus terminals
    exceed the side length, the largest terminal ids are dropped (crossers
    are bounded by the congestion filter, so they always fit).

    Returns (delivered, planned, dropped ids).  Delivered paths are planned
    paths cut at the first touch of the destination row; planned terminal
    paths stop on NE's top row.
    """
    h = params.k // 2
    moves: dict[int, list[str]] = {}
    alive: set[int] = set()
    pending: dict[tuple[tuple[int, int], str], list[tuple[int, str, int]]] = defaultdict(list)

    for rid in sorted(survivors):
        sw_path, side = survivors[rid]
        tile = sketches[rid][0]
        row0, col0 = tiling.tile_origin(tile)
        end_r, end_c = sw_path.end
        alive.add(rid)
        if side == "top":
            moves[rid] = [sw_path.moves, "f"]
            pending[(tile, "NW")].append((rid, "bottom", end_c - col0))
        else:
            moves[rid] = [sw_path.moves, "s"]
            pending[(tile, "SE")].append((rid, "left", end_r - row0))

    tiles = sorted({t for rid in alive for t in sketches[rid]},
                   key=lambda t: (t[0] + t[1], t[0]))
    dropped: list[int] = []
    lane_cap = params.filter_threshold + params.side_limit

    for tile in tiles:
        up_tile = (tile[0] + 1, tile[1])
        right_tile = (tile[0], tile[1] + 1)
        ne_left: list[tuple[int, int]] = []
        ne_bottom: list[tuple[int, int]] = []

        nw = [e for e in pending.pop((tile, "NW"), []) if e[0] in alive]
        assert len(nw) <= lane_cap <= h, "NW lane budget exceeded"
        if nw:
            prob = CrossbarProblem(h, h, tuple(
                CrossbarEntry(rid, side, off, "right")
                for rid, side, off in sorted(nw)))
            for rid, p in route_crossbar(prob).items():
                moves[rid].append(p.moves)
                ne_left.append((rid, p.end[0]))

        se = [e for e in pending.pop((tile, "SE"), []) if e[0] in alive]
        assert len(se) <= lane_cap <= h, "SE lane budget exceeded"
        if se:
            prob = CrossbarProblem(h, h, tuple(
                CrossbarEntry(rid, side, off, "top")
                for rid, side, off in sorted(se)))
            for rid, p in route_crossbar(prob).items():
                moves[rid].append(p.moves)
                ne_bottom.append((rid, p.end[1]))

        exit_of: dict[int, str] = {}
        terminals: list[int] = []
        for rid, _ in ne_left + ne_bottom:
            sk = sketches[rid]
            idx = sk.index(tile)
            nxt = sk[idx + 1] if idx + 1 < len(sk) else None
            if nxt == right_tile:
                exit_of[rid] = "right"
            elif nxt == up_tile:
                exit_of[rid] = "top"
            else:
                assert nxt is None, f"sketch of {rid} skips a tile"
                exit_of[rid] = "top"
                terminals.append(rid)

        tops = [rid for rid in exit_of if exit_of[rid] == "top"]
        excess = len(tops) - h
        if excess > 0:
            assert excess <= len(terminals), "up-crossers alone exceed the side"
            for rid in sorted(terminals)[-excess:]:
                dropped.append(rid)
                alive.discard(rid)
                del exit_of[rid]
                terminals.remove(rid)

        entries = [CrossbarEntry(rid, "left", off, exit_of[rid])
                   for rid, off in ne_left if rid in alive]
        entries += [CrossbarEntry(rid, "bottom", off, exit_of[rid])
                    for rid, off in ne_bottom if rid in alive]
        if entries:
            prob = CrossbarProblem(h, h, tuple(sorted(
                entries, key=lambda e: e.request_id)))
            for rid, p in route_crossbar(prob).items():
                if rid in terminals:
                    moves[rid].append(p.moves[:-1])
                    continue
                moves[rid].append(p.moves)
                if exit_of[rid] == "right":
                    pending[(right_tile, "NW")].append((rid, "left", p.end[0]))
                else:
                    pending[(up_tile, "SE")].append((rid, "bottom", p.end[1]))

    assert not any(v for v in pending.values()), "undelivered traffic left over"
    planned: dict[int, GridPath] = {}
    delivered: dict[int, GridPath] = {}
    for rid in sorted(alive):
        origin = request_origin(requests[rid])
        planned[rid] = GridPath(origin[0], origin[1], "".join(moves[rid]))
        delivered[rid] = _cut_at_delivery(planned[rid], requests[rid].b)
    return delivered, planned, tuple(sorted(dropped))


# ---------------------------------------------------------------------------
# Band driver: the seven stages end to end.

def run_medium_long(requests: Sequence[PacketRequest], n: int,
                    store_cap: int, fwd_cap: int, params: PipelineParams,
                    ) -> tuple[dict[int, GridPath], StageTrace]:
    """Schedule one distance band; returns (delivered packing, trace)."""
    trace = StageTrace()
    servable: list[PacketRequest] = []
    hop_bounds: dict[int, int] = {}
    for r in sorted(requests, key=lambda q: q.id):
        hop = params.hop_cap
        if r.deadline is not None:
            hop = min(hop, r.deadline - r.t)
        if hop < r.distance:
            trace.unservable += 1
            continue
        servable.append(r)
        hop_bounds[r.id] = hop
    if not servable:
        return {}, trace

    mcf = max_throughput_mcf(servable, n, params.lam * store_cap,
                             params.lam * fwd_cap, hop_bounds, eps=params.eps)
    trace.fractional_value = mcf.throughput
    trace.fractional_bound = mcf.dual_bound
    trace.certified = mcf.certified

    flows_by_id = {f.request.id: f for f in mcf.flows if f.amount > 1e-15}
    classes = partition_classes(
        [f.request for f in sorted(flows_by_id.values(), key=lambda f: f.request.id)],
        params.k)
    values = [sum(flows_by_id[r.id].amount for r in cls) for cls in classes]
    trace.class_sizes = tuple(len(cls) for cls in classes)
    if not flows_by_id:
        return {}, trace
    chosen = max(range(4), key=lambda j: (values[j], -j))
    trace.chosen_class = chosen
    trace.class_value = values[chosen]

    phi_col, phi_row = shift_pairs(params.k)[chosen]
    tiling = Tiling(params.k, phi_col, phi_row)
    cls_ids = {r.id for r in classes[chosen]}
    mcf_cls = replace(mcf, flows=tuple(
        f for f in mcf.flows if f.request.id in cls_ids))
    rounded = randomized_round(mcf_cls, params.seed)
    trace.rounded = tuple(sorted(rounded))

    kept = filter_congested(rounded, tiling, params.filter_threshold)
    trace.filtered = kept
    sketches = {rid: project(rounded[rid], tiling) for rid in kept}

    req_by_id = {r.id: r for r in servable}
    by_tile: dict[tuple[int, int], dict[int, tuple[int, int]]] = defaultdict(dict)
    for rid in kept:
        origin = request_origin(req_by_id[rid])
        by_tile[tiling.tile_of(*origin)][rid] = origin
    survivors: dict[int, tuple[GridPath, str]] = {}
    for tile in sorted(by_tile):
        routing = quadrant_route(by_tile[tile], tiling.tile_origin(tile),
                                 params.k // 2, params.side_limit)
        survivors.update(routing.accepted)
        trace.quadrant_rejects += len(routing.rejected)
        trace.side_drops += len(routing.side_dropped)
    trace.routed = tuple(sorted(survivors))

    delivered, planned, term_drops = route_detailed(
        survivors, sketches, req_by_id, tiling, params)
    trace.terminal_drops = len(term_drops)

    # Soft deadlines: the detour past the requested path adds at most one
    # tile column, so arrivals land within 2k of the deadline; that bound is
    # asserted below.  Emitted schedules keep deadlines hard, so the few
    # late deliveries are rejected rather than shipped.
    for rid in sorted(delivered):
        r = req_by_id[rid]
        if r.deadline is None:
            continue
        overshoot = r.t + len(delivered[rid]) - r.deadline
        if overshoot > 0:
            assert overshoot <= 2 * params.k, "deadline slack blown"
            trace.max_deadline_overshoot = max(trace.max_deadline_overshoot,
                                               overshoot)
            trace.deadline_drops += 1
            del delivered[rid]
    trace.final = tuple(sorted(delivered))

    # defensive self-checks: capacities, real rows only, sketch fidelity
    loads: dict[tuple[str, int, int], int] = defaultdict(int)
    for p in delivered.values():
        for kind, row, col in p.edges():
            loads[(kind, row, col)] += 1
            assert row + (kind == "f") < n, "delivered path leaves the grid"
    assert all(v <= (store_cap if e[0] == "s" else fwd_cap)
               for e, v in loads.items()), "capacity violated after routing"
    for rid, p in planned.items():
        assert project(p, tiling) == sketches[rid], "tile projection drifted"
    return delivered, trace


# ---------------------------------------------------------------------------
# Whole-instance dispatcher.

_BAND_ORDER = (Category.VERY_SHORT, Category.SHORT, Category.MEDIUM,
               Category.LONG)


@dataclass
class SolveReport:
    category: str
    throughput: int
    frac_bound: float
    band_sizes: dict[str, int]
    band_results: dict[str, int]
    traces: dict[str, StageTrace]
    eps: float
    seed: int


def report_to_json(report: SolveReport) -> str:
    """Canonical JSON form of a solve report: stage counts and losses."""
    stages = {}
    for name, tr in report.traces.items():
        entry: dict[str, object] = dict(tr.counts())
        entry.update(
            class_sizes=list(tr.class_sizes),
            chosen_class=tr.chosen_class,
            class_value=tr.class_value,
            fractional_value=tr.fractional_value,
            fractional_bound=tr.fractional_bound,
            certified=tr.certified,
            unservable=tr.unservable,
            quadrant_rejects=tr.quadrant_rejects,
            side_drops=tr.side_drops,
            terminal_drops=tr.terminal_drops,
            deadline_drops=tr.deadline_drops,
            max_deadline_overshoot=tr.max_deadline_overshoot,
        )
        stages[name] = entry
    payload = {
        "category": report.category,
        "throughput": report.throughput,
        "frac_bound": None if math.isnan(report.frac_bound) else report.frac_bound,
        "eps": report.eps,
        "seed": report.seed,
        "band_sizes": report.band_sizes,
        "band_results": report.band_results,
        "stages": stages,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def fractional_upper_bound(instance: Instance, *, eps: float = 0.05) -> float:
    """Valid upper bound on any schedule this package can emit.

    Solves the fractional relaxation at the instance's true capacities with
    an action budget generous enough to cover every path the band solvers
    produce (twice the band maximum plus one tile side), then reports the
    solver's dual bound, which caps the optimum of that relaxation from
    above regardless of certification.
    """
    n = instance.n
    thr = Thresholds.from_n(n)
    budget = 0.0
    for r in instance.requests:
        cat = categorize(r.distance, thr, instance.B, instance.c)
        if cat is Category.LONG:
            band = 2.0 * (n - 1) + PipelineParams.for_band(float(n - 1), seed=0).k
        elif cat is Category.MEDIUM:
            band = 2.0 * thr.medium_max + PipelineParams.for_band(thr.medium_max, seed=0).k
        else:
            band = 2.0 * thr.short_max
        budget = max(budget, band)
    hop = int(budget)
    servable = []
    hops: dict[int, int] = {}
    for r in instance.requests:
        h = hop if r.deadline is None else min(hop, r.deadline - r.t)
        if h >= r.distance:
            servable.append(r)
            hops[r.id] = h
    if not servable:
        return 0.0
    mcf = max_throughput_mcf(servable, n, float(instance.B),
                             float(instance.c), hops, eps=eps)
    return min(float(len(servable)), mcf.dual_bound)


def solve_instance(instance: Instance, *, seed: int = 0, eps: float = 0.05,
                   category: str = "auto", compute_bound: bool = True,
                   ) -> tuple[dict[int, GridPath], SolveReport]:
    """Best single-band schedule for the instance.

    Each distance band is solved by its own algorithm on its own requests
    and the highest-throughput band solution is returned whole; solutions
    are never merged across bands.  ``category`` restricts which bands run
    ("auto" and "all" run every nonempty band).  The routing pipeline runs
    with both capacities replaced by min(B, c); the exact small-tile solver
    uses the true capacities.
    """
    if category not in ("auto", "all", "very_short", "short", "medium", "long"):
        raise ValueError(f"unknown category {category!r}")
    thr = Thresholds.from_n(instance.n)
    scaled = min(instance.B, instance.c)
    bands: dict[str, list[PacketRequest]] = {c.name.lower(): [] for c in _BAND_ORDER}
    for r in instance.requests:
        bands[categorize(r.distance, thr, instance.B, instance.c).name.lower()].append(r)

    short_levels = {Category.VERY_SHORT: thr.very_short_max,
                    Category.SHORT: thr.short_max}
    packings: dict[str, dict[int, GridPath]] = {}
    traces: dict[str, StageTrace] = {}
    for cat in _BAND_ORDER:
        name = cat.name.lower()
        if category not in ("auto", "all", name) or not bands[name]:
            continue
        if cat in short_levels:
            packings[name] = solve_short(bands[name], short_levels[cat],
                                         instance.B, instance.c)
        else:
            d_max = thr.medium_max if cat is Category.MEDIUM else float(instance.n - 1)
            params = PipelineParams.for_band(d_max, seed=seed, eps=eps)
            packings[name], traces[name] = run_medium_long(
                bands[name], instance.n, scaled, scaled, params)

    best_name, best = "", {}
    for name in packings:
        if len(packings[name]) > len(best):
            best_name, best = name, packings[name]
    bound = fractional_upper_bound(instance, eps=eps) if compute_bound else float("nan")
    report = SolveReport(
        category=best_name or "none",
        throughput=len(best),
        frac_bound=bound,
        band_sizes={name: len(reqs) for name, reqs in bands.items() if reqs},
        band_results={name: len(p) for name, p in packings.items()},
        traces=traces,
        eps=eps,
        seed=seed,
    )
    return best, report
