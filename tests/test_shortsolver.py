"""Tile-confined exact solver tests."""

import random

import pytest

from linesched import shortsolver
from linesched.grid import GridPath, packing_to_schedule, validate_schedule
from linesched.model import Instance, PacketRequest, Thresholds, gen_random_instance
from linesched.shortsolver import _tile_paths, solve_short, solve_tile_exact
from linesched.tiling import Tiling
from oracle import optimal_schedule


def test_path_enumeration_orders_forwards_first():
    req = PacketRequest(0, 0, 2, 2)
    got = list(_tile_paths(req, row1=6, col1=8, max_len=4))
    assert got == ["ff", "fsf", "fssf", "sff", "sfsf", "ssff"]


def test_path_enumeration_respects_walls_and_deadlines():
    # destination row outside the tile: nothing to enumerate
    assert list(_tile_paths(PacketRequest(0, 0, 6, 1), 6, 8, 12)) == []
    # store budget clipped by the tile's right wall
    req = PacketRequest(0, 0, 1, 7)   # origin column 7, one column of room
    assert list(_tile_paths(req, 6, 9, 12)) == ["f", "sf"]
    # deadline tighter than the cap
    req = PacketRequest(0, 0, 2, 2, deadline=5)
    assert list(_tile_paths(req, 6, 8, 12)) == ["ff", "fsf", "sff"]
    # no time at all
    req = PacketRequest(0, 0, 2, 2, deadline=3)
    assert list(_tile_paths(req, 6, 8, 12)) == []


def test_tile_exact_beats_greedy_order():
    # request 0 would grab the forward edge at (1, 1) if routed greedily,
    # starving request 1 whose only two-move path needs it; the search must
    # backtrack and push request 0 through a store first
    tiling = Tiling(6)
    reqs = [PacketRequest(0, 1, 2, 2),    # origin (1, 1), paths "f" or "sf"
            PacketRequest(1, 0, 2, 1)]    # origin (0, 1), only path "ff"
    sol = solve_tile_exact(reqs, tiling, (0, 0), 1, 1, max_len=2)
    assert sol.exact and len(sol.packing) == 2
    assert sol.packing[0].moves == "sf"


def test_tile_exact_matches_oracle_when_walls_are_far():
    rng = random.Random(12)
    tiling = Tiling(24)
    for trial in range(25):
        n = rng.randint(4, 8)
        reqs = []
        for i in range(rng.randint(1, 5)):
            a = rng.randint(0, n - 2)
            b = rng.randint(a + 1, min(n - 1, a + 2))
            t = rng.randint(a + 1, b + 4)   # keeps origin columns inside (0,0)
            reqs.append(PacketRequest(i, a, b, t))
        inst = Instance(n, 1, 1, tuple(reqs))
        sol = solve_tile_exact(reqs, tiling, (0, 0), 1, 1, max_len=8)
        assert sol.exact
        assert len(sol.packing) == len(optimal_schedule(inst, 8)), trial


def test_tile_exact_rejects_foreign_origins():
    tiling = Tiling(6)
    with pytest.raises(ValueError):
        solve_tile_exact([PacketRequest(0, 7, 8, 1)], tiling, (0, 0), 1, 1, 4)


def test_solve_short_output_is_valid_and_confined():
    rng = random.Random(3)
    for trial in range(15):
        n = rng.randint(8, 20)
        level = 3.0
        reqs = []
        for i in range(rng.randint(1, 25)):
            a = rng.randint(0, n - 2)
            b = rng.randint(a + 1, min(n - 1, a + 3))
            reqs.append(PacketRequest(i, a, b, rng.randint(1, 30)))
        inst = Instance(n, 1, 1, tuple(reqs))
        packing = solve_short(reqs, level, 1, 1)
        assert packing == solve_short(reqs, level, 1, 1)   # deterministic
        verdict = validate_schedule(inst, packing_to_schedule(inst, packing))
        assert verdict.ok, (trial, verdict.violations)
        assert all(len(p) <= int(2 * level) for p in packing.values())


def test_solve_short_rejects_long_requests():
    with pytest.raises(ValueError):
        solve_short([PacketRequest(0, 0, 9, 1)], 3.0, 1, 1)


def test_budget_fallback_stays_valid(monkeypatch):
    reqs = [PacketRequest(i, 0, 2, 1 + i % 2) for i in range(6)]
    inst = Instance(12, 2, 2, tuple(reqs))
    full = solve_short(reqs, 3.0, 2, 2)
    monkeypatch.setattr(shortsolver, "_NODE_BUDGET", 1)
    starved = solve_short(reqs, 3.0, 2, 2)
    assert len(starved) <= len(full)
    verdict = validate_schedule(inst, packing_to_schedule(inst, starved))
    assert verdict.ok


def test_best_shift_class_wins(monkeypatch):
    # requests far apart, all short; whatever shift is chosen the result
    # must cover at least a quarter of them (here: all are packable alone)
    reqs = [PacketRequest(i, 4 * i, 4 * i + 1, 50 * i + 1) for i in range(4)]
    monkeypatch.setattr(shortsolver, "_NODE_BUDGET", 10_000)
    packing = solve_short(reqs, 2.0, 1, 1)
    assert len(packing) >= 1
    for rid, path in packing.items():
        assert path.moves.count("f") == 1


def test_lone_request_stops_at_its_first_path():
    # the tile bound is 1, so the all-forward path ends the search at once
    # instead of trying all C(16, 8) paths of the request
    sol = solve_tile_exact([PacketRequest(0, 0, 8, 1)], Tiling(24), (0, 0),
                           1, 1, max_len=16)
    assert sol.exact and sol.nodes == 1
    assert sol.packing[0].moves == "f" * 8


def test_deep_tile_searches_without_recursion():
    # the search visits one level per request, far past Python's recursion
    # limit here; two paths leave the shared origin, so two requests fit
    reqs = [PacketRequest(i, 0, 1, 1) for i in range(1100)]
    sol = solve_tile_exact(reqs, Tiling(12), (0, 0), 1, 1, max_len=2)
    assert sol.exact and len(sol.packing) == 2


def test_tile_exact_matches_oracle_on_congested_tiles():
    # cloned origins overload their out-edges, so the optimum falls below
    # the request count and the origin cut has to prune correctly; tight
    # deadlines leave few store-first paths, so the first forwards-first
    # dive is often not optimal
    rng = random.Random(31)
    tiling = Tiling(24)
    congested = 0
    for trial in range(40):
        n = rng.randint(5, 9)
        B, c = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        spots = [(rng.randint(0, n - 2), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 3))]
        reqs = []
        for i in range(rng.randint(3, 8)):
            a, col = rng.choice(spots)
            b = rng.randint(a + 1, min(n - 1, a + 3))
            t = a + col
            deadline = t + (b - a) + rng.randint(0, 2) if rng.random() < 0.5 else None
            reqs.append(PacketRequest(i, a, b, t, deadline))
        inst = Instance(n, B, c, tuple(reqs))
        sol = solve_tile_exact(reqs, tiling, (0, 0), B, c, max_len=8)
        opt = len(optimal_schedule(inst, 8))
        assert sol.exact, trial
        assert len(sol.packing) == opt, trial
        verdict = validate_schedule(inst, packing_to_schedule(inst, sol.packing))
        assert verdict.ok, (trial, verdict.violations)
        congested += opt < len(reqs)
    assert congested >= 10


# (id, row, col, moves) of every packed request, recorded before the search
# learned to stop at the tile bound and to build paths lazily; both changes
# must leave the packing alone.
_GOLDEN = {
    (40, 1, 1, 80, 4.0, 0.35, 1, None): """
7:31:-29:ff 17:1:5:f 18:5:1:f 23:36:-30:ff 26:34:-27:ff 27:37:-30:sf
28:3:5:fff 31:3:6:fff 32:7:2:f 36:35:-26:f 37:8:2:f 38:8:2:sff
43:34:-24:f 44:9:2:fffff 45:11:0:f 50:36:-25:ff 51:4:9:f 52:11:2:sf
56:34:-19:ff 57:34:-19:sfff 58:3:13:f 59:12:4:f 62:33:-17:f 63:37:-21:f
64:3:14:ffff 65:4:13:fffff 67:33:-16:fff 70:35:-17:ff 71:13:6:ffff
73:35:-16:sf 74:36:-17:sfff""",
    (40, 2, 2, 120, 6.0, 0.3, 2, None): """
2:0:2:fff 5:30:-28:ff 6:31:-29:ff 15:31:-27:fffffff 26:33:-27:ff
27:34:-28:ffff 29:6:1:ff 30:6:1:fff 31:6:1:sffff 34:31:-24:fffff
35:1:7:f 38:33:-25:ffff 39:0:9:ff 40:2:7:f 41:2:7:ffff 42:5:4:ff
47:31:-22:f 48:32:-23:ff 50:5:5:ffff 51:6:4:ffff 52:10:0:ff
55:31:-21:fffff 56:33:-23:ffff 57:34:-24:ffff 58:2:9:f 59:4:7:f
60:7:4:ff 61:9:2:ff 63:34:-23:f 64:1:11:ffffff 65:12:0:f 69:30:-18:ffff
70:34:-22:ff 71:34:-22:fff 72:35:-23:fff 73:2:11:f 74:9:4:fff
75:11:2:fffffff 78:9:5:f 79:9:5:ff 84:34:-20:fffff 85:38:-24:f
86:38:-24:f 87:6:9:f 88:10:5:f 91:7:9:ffffff 92:8:8:f 93:9:7:f 94:13:3:f
97:3:14:fffff 98:5:12:ffffff 99:8:9:f 102:37:-20:ff 104:6:12:f
105:13:5:f 111:9:10:f 116:9:11:f""",
    (48, 1, 1, 100, 3.0, 0.3, 3, 2): """
1:32:-31:ff 5:38:-36:ffff 17:39:-32:fffff 24:13:-4:ff 25:41:-32:sf
41:0:15:f 43:30:-15:ff 53:3:17:f 55:32:-12:ffffff 56:1:20:fffff
60:31:-9:ff 62:1:22:f 67:31:-8:f 68:37:-14:ff 72:8:17:f 73:36:-11:ffffff
74:40:-15:ff 77:31:-5:f 78:39:-13:fffff 79:6:21:fffffff 80:30:-3:f
82:37:-9:ff 84:1:28:ffff 85:7:22:fffff 88:6:24:fff 89:36:-6:ff
90:14:17:f 92:10:22:sfffff 97:35:-2:ffffff 98:38:-5:fff 99:14:20:f""",
}


@pytest.mark.parametrize("case", list(_GOLDEN), ids=lambda c: f"n{c[0]}-B{c[1]}-seed{c[6]}")
def test_solve_short_packing_is_unchanged(case):
    n, B, c, M, rate, p, seed, slack = case
    inst = gen_random_instance(n, B, c, M, arrival_rate=rate, seed=seed,
                               distance=f"geometric:{p}", deadline_slack=slack)
    level = Thresholds.from_n(n).short_max
    packing = solve_short([r for r in inst.requests if r.distance <= level],
                          level, B, c)
    got = [f"{rid}:{path.row}:{path.col}:{path.moves}"
           for rid, path in sorted(packing.items())]
    assert got == _GOLDEN[case].split()
