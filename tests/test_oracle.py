"""Exact oracle invariants: the arc model against independent searches."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import linesched
from linesched.grid import packing_to_schedule, validate_schedule
from linesched.model import Instance, PacketRequest
from linesched.routing import (CrossbarEntry, CrossbarProblem,
                               quadrant_route, route_crossbar)
from linesched.shortsolver import solve_tile_exact
from linesched.tiling import Tiling
from oracle import (SizeLimitError, crossbar_feasible_bruteforce,
                    optimal_schedule, quadrant_feasible_bruteforce)


def _clones(m: int) -> Instance:
    return Instance(2, 1, 1, tuple(PacketRequest(i, 0, 1, 1) for i in range(m)))


def test_identical_requests_at_unit_caps():
    # one forwards; the second stores a step first; the third finds no room
    # (two exhaustive searches independently said 2, frozen here)
    assert len(optimal_schedule(_clones(1))) == 1
    assert len(optimal_schedule(_clones(2))) == 2
    assert len(optimal_schedule(_clones(3))) == 2
    for m in (1, 2, 3):
        sol = solve_tile_exact(_clones(m).requests, Tiling(6), (0, 0), 1, 1, 4)
        assert len(sol.packing) == len(optimal_schedule(_clones(m)))


def test_schedule_oracle_has_no_size_limits():
    # beyond the 8 requests, n = 10 and 12 actions the exhaustive searches took
    assert len(optimal_schedule(_clones(9))) == 2
    wide = Instance(11, 1, 1, (PacketRequest(0, 0, 1, 1),))
    assert len(optimal_schedule(wide)) == 1
    assert len(optimal_schedule(_clones(1), path_len_cap=13)) == 1


def test_competing_origins_at_long_caps():
    # requests from different cells compete for the same downstream edges,
    # where the origin cut does not bind: the branch and bound this oracle
    # replaced took 13 s at cap 10 and 40 s at cap 12
    spec = [(2, 3, 1, 2), (0, 2, 2, None), (0, 3, 3, None), (0, 2, 1, None),
            (2, 3, 3, None), (0, 1, 2, None), (1, 3, 1, None), (0, 1, 1, None)]
    inst = Instance(4, 1, 1, tuple(PacketRequest(i, *s) for i, s in enumerate(spec)))
    for cap in (10, 12, 40):
        packing = optimal_schedule(inst, cap)
        assert len(packing) == 7, cap
        assert validate_schedule(inst, packing_to_schedule(inst, packing)).ok


def test_cap_insensitivity_at_desk_scale():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(3, 7)
        reqs = []
        for i in range(rng.randint(1, 4)):
            a = rng.randint(0, n - 2)
            b = rng.randint(a + 1, min(n - 1, a + 2))
            reqs.append(PacketRequest(i, a, b, rng.randint(1, 3)))
        inst = Instance(n, 1, 1, tuple(reqs))
        sizes = {cap: len(optimal_schedule(inst, cap)) for cap in (8, 10, 12)}
        assert len(set(sizes.values())) == 1, sizes


def test_milp_matches_tile_exact():
    # origin columns 1..4 and at most 8 actions keep every path inside one
    # tile of side 24, so the tile search sees the whole instance
    rng = random.Random(1)
    for trial in range(40):
        n = rng.randint(2, 6)
        reqs = []
        for i in range(rng.randint(1, 5)):
            a = rng.randint(0, n - 2)
            b = rng.randint(a + 1, min(n - 1, a + 3))
            t = a + rng.randint(1, 4)
            deadline = t + (b - a) + rng.randint(0, 3) if rng.random() < 0.3 else None
            reqs.append(PacketRequest(i, a, b, t, deadline=deadline))
        inst = Instance(n, rng.randint(1, 2), rng.randint(1, 2), tuple(reqs))
        packing = optimal_schedule(inst, 8)
        sol = solve_tile_exact(reqs, Tiling(24), (0, 0), inst.B, inst.c, 8)
        assert sol.exact and len(packing) == len(sol.packing), trial
        for got in (packing, sol.packing):
            verdict = validate_schedule(inst, packing_to_schedule(inst, got))
            assert verdict.ok, (trial, verdict.violations)


def test_impossible_deadline_never_packed():
    with pytest.warns(UserWarning, match="never be served"):
        inst = Instance(5, 1, 1, (PacketRequest(0, 0, 3, 2, deadline=4),))
    assert optimal_schedule(inst) == {}


def test_package_solves_without_scipy():
    # only the tests' oracle needs scipy, and the package never loads it
    src = str(Path(linesched.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); sys.modules['scipy'] = None\n"
            "from linesched import Instance, PacketRequest, solve_instance\n"
            "assert 'linesched.oracle' not in sys.modules\n"
            "inst = Instance(8, 1, 1, tuple(PacketRequest(i, 0, 1 + i, 1)"
            " for i in range(6)))\n"
            "print(solve_instance(inst)[1].throughput)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert int(out.stdout) >= 1


def test_quadrant_pins():
    assert quadrant_feasible_bruteforce([], 3) == 0
    assert quadrant_feasible_bruteforce([(1, 1)], 3) == 1
    # a 1x1 window is all corner: one top slot plus one right slot
    assert quadrant_feasible_bruteforce([(0, 0)] * 3, 1) == 2
    # the corner cell of a real window also ends at two slots
    assert quadrant_feasible_bruteforce([(3, 3)] * 3, 4) == 2


def test_quadrant_size_limits():
    with pytest.raises(SizeLimitError):
        quadrant_feasible_bruteforce([(0, 0)], 5)
    with pytest.raises(SizeLimitError):
        quadrant_feasible_bruteforce([(0, 0)] * 7, 3)
    with pytest.raises(ValueError):
        quadrant_feasible_bruteforce([(4, 0)], 4)


def test_quadrant_bruteforce_matches_max_flow():
    rng = random.Random(9)
    for trial in range(200):
        half = rng.randint(1, 4)
        m = rng.randint(0, 6)
        origins = [(rng.randrange(half), rng.randrange(half)) for _ in range(m)]
        want = quadrant_feasible_bruteforce(origins, half)
        routing = quadrant_route(dict(enumerate(origins)), (0, 0), half, side_limit=half)
        assert len(routing.accepted) == want, (trial, origins, half)


def test_crossbar_pins():
    one = CrossbarProblem(3, 3, (CrossbarEntry(7, "left", 1, "top"),))
    ok, witness = crossbar_feasible_bruteforce(one)
    assert ok and set(witness) == {7}
    end = witness[7].end
    assert end[0] == 3  # left the grid through the top

    # two top-exiters cannot share a single column
    narrow = CrossbarProblem(2, 1, (
        CrossbarEntry(0, "left", 0, "top"),
        CrossbarEntry(1, "left", 1, "top"),
    ))
    ok, witness = crossbar_feasible_bruteforce(narrow)
    assert not ok and witness is None
    with pytest.raises(ValueError):
        route_crossbar(narrow)


def test_crossbar_size_limits():
    with pytest.raises(SizeLimitError):
        crossbar_feasible_bruteforce(CrossbarProblem(6, 3, ()))
    seven = tuple(CrossbarEntry(i, ("left", "bottom")[i % 2], i // 2, "top")
                  for i in range(7))
    with pytest.raises(SizeLimitError):
        crossbar_feasible_bruteforce(CrossbarProblem(4, 4, seven))


def test_crossbar_three_way_agreement():
    rng = random.Random(17)
    for trial in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        sides = [("left", r) for r in range(rows)] + \
                [("bottom", c) for c in range(cols)]
        rng.shuffle(sides)
        entries = tuple(
            CrossbarEntry(i, side, off, rng.choice(("top", "right")))
            for i, (side, off) in enumerate(sides[:rng.randint(0, min(6, len(sides)))]))
        prob = CrossbarProblem(rows, cols, entries)
        ok, witness = crossbar_feasible_bruteforce(prob)
        assert ok == prob.side_counts_fit(), (trial, prob)
        if not ok:
            with pytest.raises(ValueError):
                route_crossbar(prob)
            continue
        for source in (witness, route_crossbar(prob)):
            used = set()
            for entry in entries:
                path = source[entry.request_id]
                exits_top = path.end[0] == rows
                assert exits_top == (entry.exit_side == "top")
                for edge in path.edges():
                    assert edge not in used
                    used.add(edge)
