"""Acceptance gate: eleven package-level guarantees, one test each.

Run with ``pytest -v`` to get one pass/fail line per criterion; every test
also prints a one-line summary with the measured numbers.  The whole module
takes roughly ten minutes: the costly parts are the 100-instance validity
sweep (1), the exhaustive quadrant sweep (7), and the 20-seed ratio
measurement shared by criteria 9 and 10.
"""

import math
import time
from collections import Counter, defaultdict
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from linesched.bounding import truncate_fractional, truncate_integral
from linesched.cli import main as cli_main
from linesched.flow import SingleFlow, max_throughput_mcf, randomized_round
from linesched.grid import (GridPath, load_schedule, packing_to_schedule,
                            validate_schedule)
from linesched.model import (Instance, PacketRequest, Thresholds,
                             capacity_scale, chernoff_exponent,
                             gen_random_instance, load_instance,
                             save_instance)
from linesched.oracle import (crossbar_feasible_bruteforce, optimal_schedule,
                              quadrant_feasible_bruteforce)
from linesched.pipeline import PipelineParams, filter_congested, solve_instance
from linesched.routing import (CrossbarEntry, CrossbarProblem, quadrant_route,
                               route_crossbar)
from linesched.shortsolver import solve_short
from linesched.tiling import Tiling


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS  {detail}")


def _loads(packing):
    out = Counter()
    for p in packing.values():
        out.update(p.edges())
    return out


# ---------------------------------------------------------------------------
# 1. Validity: every emitted schedule verifies, under 60 s per instance.

def test_criterion_01_validity_of_emitted_schedules(tmp_path):
    worst = 0.0
    for seed in range(100):
        n = 64 if seed % 2 == 0 else 256
        M = 120 + 40 * (seed % 8)
        if seed in (13, 47):
            n, M = 256, 2000
        elif seed == 20:
            n, M = 64, 2000
        inst_file = tmp_path / f"i{seed}.json"
        sched_file = tmp_path / f"s{seed}.json"
        save_instance(gen_random_instance(n, 1, 1, M, seed=seed), inst_file)
        start = time.monotonic()
        rc = cli_main(["solve", str(inst_file), "--seed", str(seed),
                       "--out", str(sched_file)])
        elapsed = time.monotonic() - start
        assert rc == 0, f"seed {seed}: solve failed"
        assert elapsed < 60.0, f"seed {seed}: {elapsed:.1f}s"
        worst = max(worst, elapsed)
        verdict = validate_schedule(load_instance(inst_file),
                                    load_schedule(sched_file))
        assert verdict.ok, (seed, verdict.violations[:3])
        assert cli_main(["verify", str(inst_file), str(sched_file)]) == 0
    _report(1, f"100/100 schedules valid, slowest solve {worst:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. Integral length bounding: validity, 2d cap, exact survivor floor.

def _window_paths(row, col, dist, max_col):
    from itertools import combinations
    out = []
    for stores in range(0, max_col - col + 1):
        for spots in combinations(range(stores + dist - 1), stores):
            moves = ["f"] * (stores + dist - 1)
            for i in spots:
                moves[i] = "s"
            out.append(GridPath(row, col, "".join(moves) + "f"))
    return out


def _random_packing(rng, n, d, store_cap, fwd_cap, tries):
    loads = Counter()
    packing = {}
    for _ in range(tries):
        dist = int(rng.integers(1, d + 1))
        a = int(rng.integers(0, n - dist))
        t = int(rng.integers(1, 3 * d + 2))
        stores = int(rng.integers(0, 2 * d + 1))
        body = ["s"] * stores + ["f"] * (dist - 1)
        rng.shuffle(body)
        path = GridPath(a, t - a, "".join(body) + "f")
        edges = list(path.edges())
        if all(loads[e] < (store_cap if e[0] == "s" else fwd_cap)
               for e in edges):
            loads.update(edges)
            packing[len(packing)] = path
    return packing


def test_criterion_02_integral_truncation():
    cap_mix = [(1, 1), (2, 1), (1, 2), (3, 2)]
    tight = 1.0
    for seed in range(500):
        d = (2, 4, 8)[seed % 3]
        store_cap, fwd_cap = cap_mix[seed % 4]
        rng = np.random.default_rng(seed)
        packing = _random_packing(rng, 12, d, store_cap, fwd_cap, tries=60)
        if not packing:
            continue
        out = truncate_integral(packing, d, store_cap=store_cap,
                                fwd_cap=fwd_cap)
        for e, load in _loads(out).items():
            assert load <= (store_cap if e[0] == "s" else fwd_cap)
        assert all(len(q) <= 2 * d for q in out.values())
        assert all(q.moves.count("f") == packing[r].moves.count("f")
                   for r, q in out.items())
        # survivors >= fwd_cap|input| / (2(store_cap+fwd_cap)), = 1/4 at unit
        assert 2 * (store_cap + fwd_cap) * len(out) >= fwd_cap * len(packing)
        tight = min(tight, len(out) / len(packing))

    # exhaustive: every packing of <= 4 paths from four fixed requests in a
    # 4-row by 8-column window, d = 2, unit capacities
    families = [_window_paths(0, 2, 2, 7), _window_paths(1, 2, 2, 7),
                _window_paths(0, 1, 1, 7), _window_paths(2, 2, 1, 7)]
    checked = 0
    for combo in product(*[fam + [None] for fam in families]):
        packing = {rid: p for rid, p in enumerate(combo) if p is not None}
        if not packing or any(v > 1 for v in _loads(packing).values()):
            continue
        out = truncate_integral(packing, 2, store_cap=1, fwd_cap=1)
        for e, load in _loads(out).items():
            assert load <= 1
        assert all(len(q) <= 4 for q in out.values())
        assert 4 * len(out) >= len(packing)
        checked += 1
    assert checked > 5000
    _report(2, f"500 random packings + {checked} exhaustive window packings, "
               f"worst survivor share {tight:.2f}")


# ---------------------------------------------------------------------------
# 3. Fractional length bounding: exact rescaling, capacities, 2d support.

def test_criterion_03_fractional_truncation():
    checked = 0
    for seed in range(150):
        d = (2, 4, 8)[seed % 3]
        caps = [(0.4, 0.3), (0.25, 0.25), (1.0, 0.5), (0.5, 1.0)][seed % 4]
        rng = np.random.default_rng(1000 + seed)
        reqs = []
        for i in range(12):
            dist = int(rng.integers(1, d + 1))
            a = int(rng.integers(0, 10 - dist))
            reqs.append(PacketRequest(i, a, a + dist, int(rng.integers(1, 8))))
        hops = {r.id: r.distance + 3 * d for r in reqs}
        mcf = max_throughput_mcf(reqs, 10, caps[0], caps[1], hops)
        if mcf.throughput < 1e-6:
            continue
        rho = caps[1] / (caps[0] + 2.0 * caps[1])
        out = truncate_fractional(mcf, d, store_cap=caps[0], fwd_cap=caps[1])
        # throughput preserved before the rho-scaling, exactly
        assert out.throughput == pytest.approx(rho * mcf.throughput,
                                               rel=1e-12)
        loads = defaultdict(float)
        for flow in out.flows:
            for e, w in flow.edges.items():
                assert w >= 0.0
                loads[e] += w
        for (kind, _, _), w in loads.items():
            assert w <= (caps[0] if kind == "s" else caps[1]) + 1e-12
        for flow in out.flows:
            for _, path in flow.paths:
                assert len(path) <= 2 * d
        checked += 1
    assert checked >= 140
    _report(3, f"{checked} solver flows rescaled exactly, all supports <= 2d")


# ---------------------------------------------------------------------------
# 4. Closed-form constants.

def test_criterion_04_constants():
    lam = capacity_scale()
    assert abs(chernoff_exponent(1.0) - (2.0 * math.log(2.0) - 1.0)) < 1e-9
    assert 15.53 <= 1.0 / lam <= 15.55
    for i in range(1000):
        eps = -0.99 + 1.98 * i / 999
        assert chernoff_exponent(eps) >= 2 * eps * eps / (4.2 + eps) - 1e-12
        if eps >= 0.0:
            # the quadratic cap genuinely fails left of zero (witness below),
            # so it is asserted on [0, 0.99) only
            assert chernoff_exponent(eps) <= eps * eps / 2.0 + 1e-12
    assert chernoff_exponent(-0.5) > 0.125
    x = lam * math.e
    assert x * x / (1.0 - x) ** 4 <= 0.07
    _report(4, f"beta(1)={chernoff_exponent(1.0):.9f}, 1/lambda={1/lam:.3f}, "
               f"rectangle-sum bound {x*x/(1-x)**4:.4f} <= 0.07")


# ---------------------------------------------------------------------------
# 5. Rounding unbiasedness on a fixed three-path flow.

def test_criterion_05_rounding_unbiasedness():
    req = PacketRequest(0, 0, 2, 1)
    paths = ((0.3, GridPath(0, 1, "ff")), (0.1, GridPath(0, 1, "fsf")),
             (0.2, GridPath(0, 1, "sff")))
    edges = {("f", 0, 1): 0.4, ("s", 0, 1): 0.2, ("f", 0, 2): 0.2,
             ("f", 1, 1): 0.3, ("s", 1, 1): 0.1, ("f", 1, 2): 0.3}
    flow = SingleFlow(req, 0.6, paths)
    assert flow.edges == pytest.approx(edges, rel=1e-15)
    trials = 100_000
    hits = Counter()
    accepted = 0
    for trial in range(trials):
        rounded = randomized_round((flow,), trial)
        if 0 in rounded:
            accepted += 1
            hits.update(rounded[0].edges())

    sigma = math.sqrt(0.6 * 0.4 / trials)
    assert abs(accepted / trials - 0.6) <= 3.0 * sigma
    worst = 0.0
    for e, p in edges.items():
        freq = hits[e] / trials
        sigma = math.sqrt(p * (1.0 - p) / trials)
        dev = abs(freq - p) / sigma
        worst = max(worst, dev)
        assert dev <= 3.0, (e, freq, p)
    assert set(hits) == set(edges)
    _report(5, f"{trials} trials, worst edge deviation {worst:.2f} sigma")


# ---------------------------------------------------------------------------
# 6. Short-request floor against the exact oracle.

def test_criterion_06_short_solver_floor():
    # Base spots live in distinct rows so contention stays cell-local;
    # cloning a spot puts several requests on one cell, whose two out
    # edges then cap what any schedule can carry, so some optima drop
    # below the request count and the comparison is not vacuous.
    import random as pyrandom
    worst = 1.0
    congested = 0
    for seed in range(50):
        rng = pyrandom.Random(seed)
        n = rng.randint(6, 10)
        level = int(Thresholds.from_n(n).short_max)
        rows = rng.sample(range(n - 1), rng.randint(3, 5))
        spots = [(a, rng.randint(1, 5)) for a in rows]
        for _ in range(rng.randint(0, 2)):
            spots.append(rng.choice(spots[: len(rows)]))
        reqs = []
        for i, (a, t) in enumerate(spots):
            dist = rng.randint(1, max(1, min(level, n - 1 - a)))
            reqs.append(PacketRequest(i, a, a + dist, t))
        inst = Instance(n, 1, 1, tuple(reqs))
        packing = solve_short(reqs, level, 1, 1)
        verdict = validate_schedule(inst, packing_to_schedule(inst, packing))
        assert verdict.ok, (seed, verdict.violations[:3])
        best = len(optimal_schedule(inst))
        assert 16 * len(packing) >= best, (seed, len(packing), best)
        if best < len(reqs):
            congested += 1
        if best:
            worst = min(worst, len(packing) / best)
    assert congested >= 3
    _report(6, f"50 oracle comparisons ({congested} with opt below the "
               f"request count), worst |short|/|opt| = {worst:.2f} "
               f"(floor 1/16)")


# ---------------------------------------------------------------------------
# 7. Quadrant routing: exhaustive agreement and the rectangle criterion.

def _no_overloaded_rectangle(origins, half):
    for i1 in range(half):
        for i2 in range(i1 + 1, half + 1):
            for j1 in range(half):
                for j2 in range(j1 + 1, half + 1):
                    dem = sum(1 for (r, c) in origins
                              if i1 <= r < i2 and j1 <= c < j2)
                    if dem > (i2 - i1) + (j2 - j1):
                        return False
    return True


def test_criterion_07_quadrant_exhaustive():
    cases = 0
    for half in (1, 2, 3, 4):
        cells = [(i, j) for i in range(half) for j in range(half)]
        for m in range(0, 7):
            for combo in combinations_with_replacement(cells, m):
                brute = quadrant_feasible_bruteforce(list(combo), half)
                routing = quadrant_route(dict(enumerate(combo)), (0, 0), half)
                assert len(routing.accepted) == brute, (half, combo)
                feasible = brute == m
                assert feasible == _no_overloaded_rectangle(combo, half), \
                    (half, combo)
                if feasible and m:
                    used = Counter()
                    for path, _ in routing.accepted.values():
                        used.update(path.edges())
                    assert all(v == 1 for v in used.values())
                cases += 1
    _report(7, f"{cases} window cases: max-flow == brute force, feasibility "
               f"== rectangle criterion")


# ---------------------------------------------------------------------------
# 8. Crossbar: constructive router == side-count fit == brute force.

def test_criterion_08_crossbar_exhaustive():
    slots = [("left", r) for r in range(4)] + [("bottom", c) for c in range(4)]
    cases = agreements = 0
    from itertools import combinations
    for m in range(0, 7):
        for subset in combinations(range(8), m):
            for exits in product(("top", "right"), repeat=m):
                entries = tuple(
                    CrossbarEntry(i, slots[s][0], slots[s][1], exits[i])
                    for i, s in enumerate(subset))
                prob = CrossbarProblem(4, 4, entries)
                fits = prob.side_counts_fit()
                feasible, witness = crossbar_feasible_bruteforce(prob)
                assert feasible == fits, entries
                if fits:
                    paths = route_crossbar(prob)
                    for check in (paths, witness):
                        used = Counter()
                        for p in check.values():
                            used.update(p.edges())
                        assert all(v == 1 for v in used.values())
                    for e in entries:
                        end = paths[e.request_id].end
                        if e.exit_side == "top":
                            assert end[0] == 4
                        else:
                            assert end[1] == 4
                    agreements += 1
                else:
                    with pytest.raises(ValueError):
                        route_crossbar(prob)
                cases += 1
    assert cases == 5281
    _report(8, f"{cases} crossbar cases, {agreements} feasible, three-way "
               f"agreement everywhere")


# ---------------------------------------------------------------------------
# Shared 20-seed pipeline sweep at n=256 for criteria 9 and 10.

_K_LONG = PipelineParams(255.0, seed=0).k


@pytest.fixture(scope="module")
def ratio_sweep():
    rows = []
    for seed in range(20):
        inst = gen_random_instance(256, 1, 1, 800, seed=100 + seed)
        packing, report = solve_instance(inst, seed=seed)
        trace = report.traces.get("long")
        rows.append({
            "alg": report.throughput,
            "bound": report.frac_bound,
            "rounded": len(trace.rounded) if trace else 0,
            "filtered": len(trace.filtered) if trace else 0,
        })
    return rows


# ---------------------------------------------------------------------------
# 9. Filter: exact threshold semantics, then the statistical tail direction.

def test_criterion_09_filter_semantics_and_survival(ratio_sweep):
    tiling = Tiling(6)
    # three sketch paths over one tile edge at threshold 2: all three fall,
    # because loads count every rounded request, not just survivors
    shared = {i: GridPath(0, 5, "ss") for i in range(3)}
    shared[3] = GridPath(0, 0, "s")
    assert tuple(filter_congested(shared, tiling, threshold=2.0)) == (3,)
    # at exactly the threshold everything stays (inclusive comparison)
    pair = {i: GridPath(0, 5, "s") for i in range(2)}
    assert tuple(filter_congested(pair, tiling, threshold=2.0)) == (0, 1)
    assert tuple(filter_congested(pair, tiling, threshold=1.9)) == ()
    # single-tile sketches never touch a tile-graph edge
    assert tuple(filter_congested({9: GridPath(1, 1, "sf")}, tiling, 0.0)) == (9,)

    rounded = sum(r["rounded"] for r in ratio_sweep)
    filtered = sum(r["filtered"] for r in ratio_sweep)
    assert rounded > 100, "sweep produced too little rounding mass"
    survival = filtered / rounded
    alpha_hat = _K_LONG * max(0.0, 1.0 - survival)
    assert survival >= 1.0 - alpha_hat / _K_LONG + 0.0  # definition of fit
    assert survival >= 0.8, f"survival {survival:.3f} too low"
    _report(9, f"constructed semantics exact; survival {survival:.4f} over "
               f"{rounded} rounded requests, fitted alpha = {alpha_hat:.3f} "
               f"(k = {_K_LONG})")


# ---------------------------------------------------------------------------
# 10. End-to-end constant-ratio accounting chain.

def test_criterion_10_end_to_end_ratio(ratio_sweep):
    lam = capacity_scale()
    rounded = sum(r["rounded"] for r in ratio_sweep)
    filtered = sum(r["filtered"] for r in ratio_sweep)
    alpha_hat = _K_LONG * max(0.0, 1.0 - filtered / rounded)
    floor = ((1.0 / 3.0) * lam * 0.25 * (2.0 / 3.0) * 0.93
             * (1.0 - alpha_hat / _K_LONG) * (1.0 - 0.05))
    ratios = [r["alg"] / r["bound"] for r in ratio_sweep]
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio >= 0.8 * floor, (mean_ratio, floor)
    _report(10, f"mean ratio {mean_ratio:.4f} >= 0.8 x floor "
                f"{floor:.5f} (margin {mean_ratio / (0.8 * floor):.1f}x); "
                f"raw ratios {['%.3f' % r for r in ratios]}")


# ---------------------------------------------------------------------------
# 11. Soft deadlines: overshoot bounded by 2k, emitted schedules clean.

def test_criterion_11_soft_deadlines():
    thr64 = Thresholds.from_n(64)
    band_k = {
        "medium": PipelineParams(thr64.medium_max, seed=0).k,
        "long": PipelineParams(63.0, seed=0).k,
    }
    worst = 0
    drops = 0
    for seed in range(50):
        inst = gen_random_instance(64, 1, 1, 150, seed=200 + seed,
                                   deadline_slack=8 + seed % 30)
        packing, report = solve_instance(inst, seed=seed)
        verdict = validate_schedule(inst, packing_to_schedule(inst, packing))
        assert verdict.ok, (seed, verdict.violations[:3])
        for band, trace in report.traces.items():
            assert trace.max_deadline_overshoot <= 2 * band_k[band], \
                (seed, band, trace.max_deadline_overshoot)
            worst = max(worst, trace.max_deadline_overshoot)
            drops += trace.deadline_drops
    _report(11, f"50 deadline runs clean; worst planned overshoot {worst} "
                f"steps (caps {dict(band_k)}), {drops} late plans dropped "
                f"before emission")
