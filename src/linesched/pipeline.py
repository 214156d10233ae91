"""Randomized constant-factor pipeline for medium and long range requests.

The pipeline turns a fractional flow into an integral schedule in stages:

1. solve the fractional relaxation at capacities scaled down by the
   Chernoff constant lambda, with per-request action budgets of twice the
   band's maximum distance (deadlines clip the budget further),
2. split requests into the four tiling shift classes and keep the class
   holding the most fractional value,
3. round each kept request independently: accept with probability equal to
   its flow amount, then pick one of its flow's paths with probability
   proportional to the path's weight,
4. drop every request that projects onto an overloaded tile-graph edge
   (load above 2*lambda*k counted over all rounded requests),
5. inside every tile, route the survivors' origins to the boundary of the
   lower-left quadrant by a max-flow, capping each exit side at k/3
   (``routing.quadrant_route``),
6. stitch the tile-to-tile journey quadrant by quadrant with one-bend
   crossbar routings (``routing.route_crossbar``), walling quadrants so
   that all traffic between tiles funnels through the upper-right quadrant,
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
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

from .flow import DUST, max_throughput_mcf, origin_cut, randomized_round
from .grid import GridPath, request_origin
from .model import (Category, Instance, PacketRequest, SolverInvariantError,
                    Thresholds, capacity_scale, categorize,
                    round_up_to_multiple_of_6)
from .routing import CrossbarEntry, CrossbarProblem, quadrant_route, route_crossbar
from .shortsolver import solve_short
from .tiling import Tiling, partition_classes, project, shift_pairs

__all__ = [
    "PipelineParams",
    "SolveReport",
    "StageTrace",
    "filter_congested",
    "route_detailed",
    "run_medium_long",
    "solve_instance",
]


# ---------------------------------------------------------------------------
# Parameters and trace.

@dataclass(frozen=True)
class PipelineParams:
    """One distance band's maximum distance ``d_max`` and rounding ``seed``;
    the tile side, capacity scale, filter threshold and budgets follow from
    them."""

    d_max: float
    seed: int

    def __post_init__(self) -> None:
        if self.d_max < 1:
            raise ValueError(f"band maximum must be >= 1, got {self.d_max}")

    @property
    def k(self) -> int:
        """Tile side: ``6 ln d_max`` rounded up to a multiple of 6."""
        return round_up_to_multiple_of_6(6.0 * math.log(self.d_max))

    @property
    def lam(self) -> float:
        return capacity_scale()

    @property
    def filter_threshold(self) -> float:
        return 2.0 * self.lam * self.k

    @property
    def side_limit(self) -> int:
        return self.k // 3

    @property
    def hop_cap(self) -> int:
        return int(2 * self.d_max)


def _ids(count: str):
    """A tuple-of-ids trace field, reported as its size under ``count``."""
    return field(default=(), metadata={"count": count})


@dataclass
class StageTrace:
    """What survived each stage, for reports and ratio accounting."""

    class_sizes: tuple[int, int, int, int] = (0, 0, 0, 0)
    chosen_class: int = -1
    class_value: float = 0.0
    fractional_value: float = 0.0
    fractional_bound: float = 0.0
    cert_gap: float = 0.0
    rounded: tuple[int, ...] = _ids("R_rnd")
    filtered: tuple[int, ...] = _ids("R_fltr")
    routed: tuple[int, ...] = _ids("R_quad")
    final: tuple[int, ...] = _ids("R_final")
    unservable: int = 0
    quadrant_rejects: int = 0
    side_drops: int = 0
    terminal_drops: int = 0
    deadline_drops: int = 0
    max_deadline_overshoot: int = 0

    def counts(self) -> dict[str, int]:
        return {f.metadata["count"]: len(getattr(self, f.name))
                for f in fields(self) if "count" in f.metadata}


# ---------------------------------------------------------------------------
# Stage: congestion filter on the tile graph.

def filter_congested(paths: Mapping[int, GridPath], tiling: Tiling, threshold: float,
                     ) -> dict[int, tuple[tuple[int, int], ...]]:
    """Sketches of the requests whose whole tile-graph projection stays at
    or below threshold, by id in ascending order.

    Loads count every input request, including ones that are themselves
    dropped, so survival of request i never depends on the fate of others.
    """
    sketches = {rid: project(paths[rid], tiling) for rid in paths}
    load: dict[tuple[tuple[int, int], tuple[int, int]], int] = defaultdict(int)
    for sk in sketches.values():
        for a, b in zip(sk, sk[1:]):
            load[(a, b)] += 1
    return {rid: sk for rid, sk in sorted(sketches.items())
            if all(load[(a, b)] <= threshold for a, b in zip(sk, sk[1:]))}


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
    raise SolverInvariantError("planned path never reaches its destination row")


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
    pending: dict[tuple[tuple[int, int], str], list[tuple[int, str, int]]] = defaultdict(list)

    for rid in sorted(survivors):
        sw_path, side = survivors[rid]
        tile = sketches[rid][0]
        row0, col0 = tiling.tile_origin(tile)
        end_r, end_c = sw_path.end
        if side == "top":
            moves[rid] = [sw_path.moves, "f"]
            pending[(tile, "NW")].append((rid, "bottom", end_c - col0))
        else:
            moves[rid] = [sw_path.moves, "s"]
            pending[(tile, "SE")].append((rid, "left", end_r - row0))

    tiles = sorted({t for rid in survivors for t in sketches[rid]},
                   key=lambda t: (t[0] + t[1], t[0]))
    dropped: list[int] = []
    lane_cap = params.filter_threshold + params.side_limit

    for tile in tiles:
        up_tile = (tile[0] + 1, tile[1])
        right_tile = (tile[0], tile[1] + 1)
        # NW traffic exits right into NE's left side, SE traffic exits top
        # into NE's bottom side: (request, NE entry side, NE entry offset)
        ne: list[tuple[int, str, int]] = []
        for quad, exit_side, ne_side, axis in (("NW", "right", "left", 0),
                                               ("SE", "top", "bottom", 1)):
            lane = pending.pop((tile, quad), [])
            if not len(lane) <= lane_cap <= h:
                raise SolverInvariantError(f"{quad} lane budget exceeded")
            if lane:
                prob = CrossbarProblem(h, h, tuple(
                    CrossbarEntry(rid, side, off, exit_side)
                    for rid, side, off in sorted(lane)))
                for rid, p in route_crossbar(prob).items():
                    moves[rid].append(p.moves)
                    ne.append((rid, ne_side, p.end[axis]))

        exit_of: dict[int, str] = {}
        terminals: set[int] = set()
        for rid, _, _ in ne:
            sk = sketches[rid]
            idx = sk.index(tile)
            nxt = sk[idx + 1] if idx + 1 < len(sk) else None
            if nxt == right_tile:
                exit_of[rid] = "right"
            elif nxt == up_tile:
                exit_of[rid] = "top"
            elif nxt is None:
                exit_of[rid] = "top"
                terminals.add(rid)
            else:
                raise SolverInvariantError(f"sketch of {rid} skips a tile")

        tops = [rid for rid in exit_of if exit_of[rid] == "top"]
        excess = len(tops) - h
        if excess > 0:
            if excess > len(terminals):
                raise SolverInvariantError("up-crossers alone exceed the side")
            for rid in sorted(terminals)[-excess:]:
                dropped.append(rid)
                del exit_of[rid]

        entries = [CrossbarEntry(rid, side, off, exit_of[rid])
                   for rid, side, off in ne if rid in exit_of]
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

    if any(pending.values()):
        raise SolverInvariantError("undelivered traffic left over")
    planned: dict[int, GridPath] = {}
    delivered: dict[int, GridPath] = {}
    for rid in sorted(survivors.keys() - set(dropped)):
        origin = request_origin(requests[rid])
        planned[rid] = GridPath(origin[0], origin[1], "".join(moves[rid]))
        delivered[rid] = _cut_at_delivery(planned[rid], requests[rid].b)
    return delivered, planned, tuple(sorted(dropped))


# ---------------------------------------------------------------------------
# Band driver: the seven stages end to end.

def run_medium_long(requests: Sequence[PacketRequest], n: int, cap: int,
                    params: PipelineParams,
                    ) -> tuple[dict[int, GridPath], StageTrace]:
    """Schedule one distance band at capacity ``cap`` on every edge;
    returns (delivered packing, trace).

    Each request's action budget is ``params.hop_cap`` clipped by its
    deadline; a request whose budget falls below its distance is left out.
    """
    servable, hop_bounds = [], {}
    for r in sorted(requests, key=lambda q: q.id):
        h = params.hop_cap
        if r.deadline is not None:
            h = min(h, r.deadline - r.t)
        if h >= r.distance:
            servable.append(r)
            hop_bounds[r.id] = h
    trace = StageTrace(unservable=len(requests) - len(servable))
    if not servable:
        return {}, trace

    mcf = max_throughput_mcf(servable, n, params.lam * cap, params.lam * cap,
                             hop_bounds)
    trace.fractional_value = mcf.throughput
    trace.fractional_bound = mcf.dual_bound
    trace.cert_gap = mcf.cert_gap

    flows_by_id = {f.request.id: f for f in mcf.flows if f.amount > DUST}
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
    rounded = randomized_round([f for f in mcf.flows if f.request.id in cls_ids],
                               params.seed)
    trace.rounded = tuple(sorted(rounded))

    sketches = filter_congested(rounded, tiling, params.filter_threshold)
    trace.filtered = tuple(sketches)

    req_by_id = {r.id: r for r in servable}
    by_tile: dict[tuple[int, int], dict[int, tuple[int, int]]] = defaultdict(dict)
    for rid in sketches:
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
    # checked below.  Emitted schedules keep deadlines hard, so the few
    # late deliveries are rejected rather than shipped.
    for rid in sorted(delivered):
        r = req_by_id[rid]
        if r.deadline is None:
            continue
        overshoot = r.t + len(delivered[rid]) - r.deadline
        if overshoot > 0:
            if overshoot > 2 * params.k:
                raise SolverInvariantError("deadline slack blown")
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
            if row + (kind == "f") >= n:
                raise SolverInvariantError("delivered path leaves the grid")
    if any(v > cap for v in loads.values()):
        raise SolverInvariantError("capacity violated after routing")
    if any(project(p, tiling) != sketches[rid] for rid, p in planned.items()):
        raise SolverInvariantError("tile projection drifted")
    return delivered, trace


# ---------------------------------------------------------------------------
# Whole-instance dispatcher.

# "auto" runs every nonempty band; a band name runs that band alone
CATEGORY_CHOICES = ("auto", *(cat.value for cat in Category))


@dataclass
class SolveReport:
    category: str
    throughput: int
    frac_bound: float
    band_sizes: dict[str, int]
    band_results: dict[str, int]
    traces: dict[str, StageTrace]
    seed: int


def report_to_json(report: SolveReport) -> str:
    """Canonical JSON form of a solve report: stage counts and losses.

    A stage entry holds the trace's counts, then every trace field that is
    not a tuple of ids, in field order.
    """
    stages = {name: tr.counts() | {f.name: getattr(tr, f.name) for f in fields(tr)
                                   if "count" not in f.metadata}
              for name, tr in report.traces.items()}
    payload = {
        "category": report.category,
        "throughput": report.throughput,
        "frac_bound": report.frac_bound,
        "seed": report.seed,
        "band_sizes": report.band_sizes,
        "band_results": report.band_results,
        "stages": stages,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def fractional_upper_bound(instance: Instance) -> float:
    """Upper bound on the number of requests any schedule can deliver.

    ``min(#servable, origin cut)`` over the servable requests, with
    ``B + c`` out of every origin cell (``flow.origin_cut``).  A request
    whose deadline comes before its earliest arrival is never delivered; a
    delivered packet leaves its origin cell by a store or a forward, of
    which a cell has ``B`` and ``c``.  The cut assumes no action budget, so
    it bounds the true optimum, integral or fractional, and not only the
    schedules this package emits.
    """
    servable = [r for r in instance.requests if r.is_servable()]
    return min(float(len(servable)),
               origin_cut(servable, instance.B, instance.c))


def solve_instance(instance: Instance, *, seed: int = 0, category: str = "auto",
                   ) -> tuple[dict[int, GridPath], SolveReport]:
    """Best single-band schedule for the instance.

    Each distance band is solved by its own algorithm on its own requests
    and the highest-throughput band solution is returned whole; solutions
    are never merged across bands.  ``category`` names the one band to run,
    or is "auto" to run every nonempty band.  The routing pipeline runs
    with both capacities replaced by min(B, c); the exact small-tile solver
    uses the true capacities.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if category not in CATEGORY_CHOICES:
        raise ValueError(f"unknown category {category!r}")
    thr = Thresholds.from_n(instance.n)
    scaled = min(instance.B, instance.c)
    bands: dict[str, list[PacketRequest]] = {cat.value: [] for cat in Category}
    for r in instance.requests:
        bands[categorize(r.distance, thr, instance.B, instance.c).value].append(r)

    short_levels = {Category.VERY_SHORT: thr.very_short_max,
                    Category.SHORT: thr.short_max}
    packings: dict[str, dict[int, GridPath]] = {}
    traces: dict[str, StageTrace] = {}
    for cat in Category:
        name = cat.value
        if category not in ("auto", name) or not bands[name]:
            continue
        if cat in short_levels:
            packings[name] = solve_short(bands[name], short_levels[cat],
                                         instance.B, instance.c)
        else:
            d_max = thr.medium_max if cat is Category.MEDIUM else float(instance.n - 1)
            params = PipelineParams(d_max, seed=seed)
            packings[name], traces[name] = run_medium_long(
                bands[name], instance.n, scaled, params)

    best_name, best = "", {}
    for name in packings:
        if len(packings[name]) > len(best):
            best_name, best = name, packings[name]
    report = SolveReport(
        category=best_name or "none",
        throughput=len(best),
        frac_bound=fractional_upper_bound(instance),
        band_sizes={name: len(reqs) for name, reqs in bands.items() if reqs},
        band_results={name: len(p) for name, p in packings.items()},
        traces=traces,
        seed=seed,
    )
    return best, report
