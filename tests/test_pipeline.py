"""Pipeline stage tests: filter, quadrant flow, crossbars, stitching."""

import ast
import math
import random
from collections import defaultdict
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linesched
from linesched.grid import GridPath, packing_to_schedule, validate_schedule
from linesched.model import (Instance, PacketRequest, SolverInvariantError,
                             capacity_scale, gen_random_instance)
from linesched.oracle import optimal_schedule
from linesched.pipeline import (PipelineParams, _cut_at_delivery,
                                filter_congested, fractional_upper_bound,
                                route_detailed, run_medium_long,
                                solve_instance)
from linesched.routing import (CrossbarEntry, CrossbarProblem, quadrant_route,
                               route_crossbar)
from linesched.tiling import Tiling, project


# ---------------------------------------------------------------------------
# Parameters.

def test_params_derive_k_and_lam():
    p = PipelineParams(16.6, seed=0)
    assert p.k % 6 == 0 and p.k >= 6
    assert p.k >= 6.0 * math.log(16.6)
    assert p.lam == capacity_scale()
    assert p.hop_cap == 33
    assert p.filter_threshold == pytest.approx(2 * capacity_scale() * p.k)
    assert p.side_limit == p.k // 3


def test_params_validation():
    with pytest.raises(ValueError):
        PipelineParams(0.5, seed=0)


def test_lane_headroom_over_tile_sides():
    # routing headroom: congested-edge crossers plus one quadrant side cap
    # must fit into the half-tile lanes of a pass-through quadrant
    for k in range(6, 601, 6):
        p = PipelineParams(math.exp(k / 6 - 0.5), seed=0)
        assert p.k == k
        assert p.filter_threshold + p.side_limit <= p.k // 2, k


# ---------------------------------------------------------------------------
# Congestion filter.

def test_filter_counts_every_input_request():
    tiling = Tiling(6)
    shared = {i: GridPath(0, 5, "s" * 2) for i in range(3)}   # all cross col 5->6
    shared[3] = GridPath(0, 0, "s")                           # stays in its tile
    kept = filter_congested(shared, tiling, threshold=2.0)
    # the shared tile edge carries 3 > 2, so all three users fall, and the
    # load is counted over all rounded requests, not over survivors; the
    # survivor comes back with its sketch
    assert kept == {3: ((0, 0),)}


def test_filter_keeps_single_tile_paths():
    tiling = Tiling(6)
    paths = {7: GridPath(1, 1, "sf"), 8: GridPath(2, 2, "f")}
    assert tuple(filter_congested(paths, tiling, threshold=0.0)) == (7, 8)


def test_filter_threshold_is_inclusive():
    tiling = Tiling(6)
    paths = {i: GridPath(0, 5, "s") for i in range(2)}
    assert filter_congested(paths, tiling, threshold=2.0) == {
        i: project(paths[i], tiling) for i in (0, 1)}
    assert filter_congested(paths, tiling, threshold=1.9) == {}


# ---------------------------------------------------------------------------
# Quadrant stage.

def test_quadrant_route_distinct_origins_all_accepted():
    origins = {10: (0, 0), 11: (1, 2), 12: (3, 1)}
    routing = quadrant_route(origins, (0, 0), 4)
    assert set(routing.accepted) == {10, 11, 12}
    assert routing.rejected == () and routing.side_dropped == ()
    used = set()
    for rid, (path, side) in routing.accepted.items():
        assert (path.row, path.col) == origins[rid]
        end = path.end
        assert (end[0] == 3) if side == "top" else (end[1] == 3)
        for edge in path.edges():
            assert edge not in used
            used.add(edge)


def test_quadrant_route_corner_multiplicity():
    routing = quadrant_route({5: (3, 3), 6: (3, 3), 7: (3, 3)}, (0, 0), 4)
    assert set(routing.accepted) == {5, 6}     # smallest ids win
    assert routing.rejected == (7,)
    assert {side for _, side in routing.accepted.values()} == {"top", "right"}


def test_quadrant_route_side_limit_cuts_largest_ids():
    origins = {i: (i, 0) for i in range(4)}    # column of four origins
    free = quadrant_route(origins, (0, 0), 4)
    capped = quadrant_route(origins, (0, 0), 4, side_limit=1)
    for side in ("top", "right"):
        winners = sorted(r for r, (_, s) in capped.accepted.items() if s == side)
        pool = sorted(r for r, (_, s) in free.accepted.items() if s == side)
        assert winners == pool[:1]
    assert set(capped.side_dropped) == set(free.accepted) - set(capped.accepted)


def test_quadrant_route_offsets_respect_window():
    with pytest.raises(ValueError):
        quadrant_route({0: (4, 0)}, (0, 0), 4)
    # absolute corners translate correctly
    routing = quadrant_route({0: (10, 21)}, (10, 20), 2)
    path, _ = routing.accepted[0]
    assert (path.row, path.col) == (10, 21)


# ---------------------------------------------------------------------------
# Crossbar stage.

def test_crossbar_shared_entry_cell_routes():
    prob = CrossbarProblem(2, 2, (
        CrossbarEntry(0, "left", 0, "top"),
        CrossbarEntry(1, "bottom", 0, "right"),
    ))
    paths = route_crossbar(prob)
    edges = [e for p in paths.values() for e in p.edges()]
    assert len(edges) == len(set(edges))
    assert paths[0].end[0] == 2 and paths[1].end[1] == 2


def test_crossbar_straight_lanes_stay_put():
    prob = CrossbarProblem(3, 3, (
        CrossbarEntry(0, "left", 1, "right"),
        CrossbarEntry(1, "bottom", 2, "top"),
    ))
    paths = route_crossbar(prob)
    assert paths[0].moves == "sss" and paths[0].row == 1
    assert paths[1].moves == "fff" and paths[1].col == 2


def test_crossbar_rejects_unfit_side_counts():
    with pytest.raises(ValueError):
        route_crossbar(CrossbarProblem(1, 2, (
            CrossbarEntry(0, "bottom", 0, "right"),
            CrossbarEntry(1, "bottom", 1, "right"),
        )))


def test_crossbar_duplicate_entry_edge_rejected():
    with pytest.raises(ValueError):
        CrossbarProblem(2, 2, (
            CrossbarEntry(0, "left", 0, "top"),
            CrossbarEntry(1, "left", 0, "top"),
        ))


def test_crossbar_random_fitting_instances_route():
    rng = random.Random(5)
    for trial in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        sides = [("left", r) for r in range(rows)] + \
                [("bottom", c) for c in range(cols)]
        rng.shuffle(sides)
        entries = []
        tops = rights = 0
        for i, (side, off) in enumerate(sides):
            exit_side = rng.choice(("top", "right"))
            if exit_side == "top" and tops == cols:
                exit_side = "right"
            if exit_side == "right" and rights == rows:
                if tops == cols:
                    break
                exit_side = "top"
            tops += exit_side == "top"
            rights += exit_side == "right"
            entries.append(CrossbarEntry(i, side, off, exit_side))
        prob = CrossbarProblem(rows, cols, tuple(entries))
        paths = route_crossbar(prob)      # must not raise; disjointness inside
        assert set(paths) == {e.request_id for e in entries}


# ---------------------------------------------------------------------------
# Detailed routing.

def _mk_request(rid: int, origin: tuple[int, int], b: int) -> PacketRequest:
    row, col = origin
    return PacketRequest(rid, row, b, col + row)


def test_route_detailed_terminal_overflow_drops_largest_terminals():
    params = PipelineParams(400.0, seed=0)   # k = 36
    h = params.k // 2
    tiling = Tiling(params.k)
    base, up = (0, 0), (1, 0)

    survivors = {}
    sketches = {}
    requests = {}
    # 12 terminals exit the start quadrant upward (top wall row 17) and 12
    # exit rightward (right wall col 17); all terminate inside the tile
    for c in range(12):
        origin = (h - 1, c)
        requests[c] = _mk_request(c, origin, b=h + c)
        survivors[c] = (GridPath(*origin, ""), "top")
        sketches[c] = (base,)
    for r in range(12):
        rid = 12 + r
        origin = (r, h - 1)
        requests[rid] = _mk_request(rid, origin, b=r + 1)
        survivors[rid] = (GridPath(*origin, ""), "right")
        sketches[rid] = (base,)
    # plus 2 requests crossing into the tile above
    for j in range(2):
        rid = 24 + j
        origin = (0, 12 + j)
        requests[rid] = _mk_request(rid, origin, b=40)
        survivors[rid] = (GridPath(*origin, "f" * (h - 1)), "top")
        sketches[rid] = (base, up)

    delivered, planned, dropped = route_detailed(
        survivors, sketches, requests, tiling, params)
    # 24 terminals + 2 up-crossers want 26 > 18 top columns; the excess 8
    # comes out of the terminals with the largest ids, never the crossers
    assert dropped == tuple(range(16, 24))
    assert set(delivered) == (set(range(16)) | {24, 25})
    loads = defaultdict(int)
    for rid, path in delivered.items():
        assert path.moves.count("f") == requests[rid].distance
        assert path.moves[-1] == "f"
        for edge in path.edges():
            loads[edge] += 1
    assert all(v == 1 for v in loads.values())
    for rid, path in planned.items():
        assert project(path, tiling) == sketches[rid]


def test_run_medium_long_random_instances_validate():
    for seed in range(8):
        n = (32, 48)[seed % 2]
        inst = gen_random_instance(
            n, 1, 1, 150, seed=seed, distance="uniform",
            deadline_slack=None if seed % 3 else 30)
        params = PipelineParams(float(n - 1), seed=seed)
        packing, trace = run_medium_long(inst.requests, n, 1, 1, params)
        sub = Instance(inst.n, 1, 1, inst.requests)
        schedule = {r.id: "reject" for r in inst.requests}
        schedule.update({rid: p.moves for rid, p in packing.items()})
        verdict = validate_schedule(sub, schedule)
        assert verdict.ok, (seed, verdict.violations[:4])
        assert set(trace.final) <= set(trace.routed) <= set(trace.filtered) \
            <= set(trace.rounded)
        assert all(len(p) <= params.hop_cap + params.k for p in packing.values())


def test_run_medium_long_empty_band():
    params = PipelineParams(10.0, seed=0)
    packing, trace = run_medium_long([], 32, 1, 1, params)
    assert packing == {} and trace.rounded == ()


def test_run_medium_long_prunes_impossible_deadlines():
    req = PacketRequest(0, 0, 8, 3, deadline=9)   # needs 8 moves, has 6
    params = PipelineParams(10.0, seed=1)
    packing, trace = run_medium_long([req], 16, 1, 1, params)
    assert packing == {} and trace.unservable == 1


# ---------------------------------------------------------------------------
# Dispatcher.

def test_solve_instance_is_deterministic():
    inst = gen_random_instance(64, 1, 1, 250, seed=2)
    first, rep1 = solve_instance(inst, seed=2)
    second, rep2 = solve_instance(inst, seed=2)
    assert first == second and rep1.category == rep2.category


def test_solve_instance_band_restriction():
    inst = gen_random_instance(64, 1, 1, 250, seed=6)
    _, full = solve_instance(inst, seed=6)
    _, only_short = solve_instance(inst, seed=6, category="short")
    assert set(only_short.band_results) == {"short"}
    assert full.throughput >= only_short.throughput


def test_solve_instance_picks_best_band():
    inst = gen_random_instance(48, 1, 1, 300, seed=9)
    packing, report = solve_instance(inst, seed=9)
    assert report.throughput == len(packing)
    assert report.throughput == max(report.band_results.values())
    assert report.band_results[report.category] == report.throughput


def test_solve_instance_bound_dominates_throughput():
    inst = gen_random_instance(32, 1, 1, 120, seed=13)
    packing, report = solve_instance(inst, seed=13)
    assert report.throughput <= report.frac_bound + 1e-9
    verdict = validate_schedule(inst, packing_to_schedule(inst, packing))
    assert verdict.ok


@pytest.mark.parametrize("n", [2, 40])
def test_bound_is_servable_origin_cut(n):
    # five requests from one cell, which has B + c = 3 ways out, and one
    # request from another cell whose deadline is before its earliest arrival
    a = n // 2 - 1
    reqs = [PacketRequest(i, a, a + 1 + i % (n - 1 - a), 5) for i in range(5)]
    late = PacketRequest(5, 0, n - 1, 1, deadline=n - 1)
    with pytest.warns(UserWarning, match="never be served"):
        inst = Instance(n, 2, 1, (*reqs, late))
    assert fractional_upper_bound(inst) == 3.0
    _, report = solve_instance(inst)
    assert report.frac_bound == 3.0 and report.throughput <= 3


@st.composite
def tiny_instances(draw):
    n = draw(st.integers(2, 10))
    reqs = []
    for i in range(draw(st.integers(0, 8))):
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        t = draw(st.integers(1, 4))
        # slack below 0 makes the request unservable
        slack = draw(st.none() | st.integers(-2, 4))
        reqs.append(PacketRequest(i, a, b, t,
                                  None if slack is None else t + b - a + slack))
    return Instance(n, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                    tuple(reqs))


@pytest.mark.filterwarnings("ignore:.*never be served.*")
@settings(max_examples=200, deadline=None)
@given(tiny_instances(), st.integers(0, 3))
def test_solve_against_oracle_on_tiny_instances(inst, seed):
    packing, report = solve_instance(inst, seed=seed)
    verdict = validate_schedule(inst, packing_to_schedule(inst, packing))
    assert verdict.ok, verdict.violations
    assert report.throughput == len(packing) <= report.frac_bound
    # The oracle optimum over paths of at most any cap is a real schedule,
    # so the bound covers it, and with a cap no shorter than every solver
    # path it covers the solver.
    assert len(optimal_schedule(inst)) <= report.frac_bound
    longest = max((len(p) for p in packing.values()), default=1)
    assert report.throughput <= len(optimal_schedule(inst, path_len_cap=longest))


def test_solve_instance_tiny_networks_go_short():
    inst = Instance(2, 1, 1, (PacketRequest(0, 0, 1, 1),
                              PacketRequest(1, 0, 1, 1)))
    packing, report = solve_instance(inst)
    assert report.category == "short" and report.throughput == 2


def test_solve_instance_unknown_category():
    inst = Instance(2, 1, 1, ())
    with pytest.raises(ValueError):
        solve_instance(inst, category="bogus")
    with pytest.raises(ValueError):
        solve_instance(inst, category="all")


# ---------------------------------------------------------------------------
# Self-checks.

def test_no_assert_statements_in_the_package():
    # self-checks must survive python -O, which strips assert statements
    src = Path(linesched.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_self_check_failure_raises_invariant_error():
    with pytest.raises(SolverInvariantError, match="never reaches"):
        _cut_at_delivery(GridPath(0, 0, "fsf"), 3)
    with pytest.raises(SolverInvariantError, match="collide"), \
            patch("linesched.routing.GridPath.edges",
                  lambda self: iter([("f", 0, 0)])):
        route_crossbar(CrossbarProblem(2, 2, (
            CrossbarEntry(0, "left", 0, "right"),
            CrossbarEntry(1, "left", 1, "right"))))
