import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linesched import flow
from linesched.flow import (
    FractionalMCF,
    MaxFlow,
    SingleFlow,
    decompose,
    max_throughput_mcf,
    origin_cut,
    randomized_round,
)
from linesched.grid import GridPath, request_origin
from linesched.model import PacketRequest, capacity_scale
from linesched.oracle import fractional_optimum


# ---------------------------------------------------------------------------
# Dinic.

def test_dinic_textbook_graph():
    g = MaxFlow(6)
    g.add_edge(0, 1, 16)
    g.add_edge(0, 2, 13)
    g.add_edge(1, 2, 10)
    g.add_edge(2, 1, 4)
    g.add_edge(1, 3, 12)
    g.add_edge(3, 2, 9)
    g.add_edge(2, 4, 14)
    g.add_edge(4, 3, 7)
    g.add_edge(3, 5, 20)
    g.add_edge(4, 5, 4)
    assert g.max_flow(0, 5) == 23


def test_dinic_bipartite_matching():
    # source 0, left {1,2,3}, right {4,5,6}, sink 7, complete middle
    g = MaxFlow(8)
    for u in (1, 2, 3):
        g.add_edge(0, u, 1)
        for v in (4, 5, 6):
            g.add_edge(u, v, 1)
    for v in (4, 5, 6):
        g.add_edge(v, 7, 1)
    assert g.max_flow(0, 7) == 3


def test_dinic_flow_handles_and_cut():
    g = MaxFlow(4)
    e1 = g.add_edge(0, 1, 2)
    e2 = g.add_edge(0, 2, 2)
    e3 = g.add_edge(1, 3, 1)
    e4 = g.add_edge(2, 3, 3)
    assert g.max_flow(0, 3) == 3
    assert g.flow_on(e1) == 1
    assert g.flow_on(e2) == 2
    assert g.flow_on(e3) == 1
    assert g.flow_on(e4) == 2
    side = g.residual_reachable(0)
    assert 0 in side and 3 not in side


def test_dinic_zero_and_errors():
    g = MaxFlow(3)
    g.add_edge(0, 1, 5)
    assert g.max_flow(0, 2) == 0
    with pytest.raises(ValueError):
        g.add_edge(0, 1, -1)
    with pytest.raises(ValueError):
        g.max_flow(1, 1)


# ---------------------------------------------------------------------------
# Fractional solver.

def agg_edge_loads(mcf: FractionalMCF) -> dict[tuple[str, int, int], float]:
    loads: dict[tuple[str, int, int], float] = {}
    for f in mcf.flows:
        for key, v in f.edges.items():
            loads[key] = loads.get(key, 0.0) + v
    return loads


def check_feasible(mcf: FractionalMCF, store_cap, fwd_cap, hops):
    for f in mcf.flows:
        assert -1e-12 <= f.amount <= 1.0 + 1e-12
        total = sum(w for w, _ in decompose(f))
        assert total == pytest.approx(f.amount, rel=1e-9, abs=1e-9)
        for w, path in decompose(f):
            assert (path.row, path.col) == request_origin(f.request)
            assert path.moves.count("f") == f.request.distance
            assert path.moves[-1] == "f"
            assert len(path) <= hops[f.request.id]
    for (kind, _, _), load in agg_edge_loads(mcf).items():
        cap = store_cap if kind == "s" else fwd_cap
        assert load <= cap + 1e-9


def test_mcf_single_request_uncongested():
    req = PacketRequest(0, 0, 3, 5)
    mcf = max_throughput_mcf([req], n=4, store_cap=5.0, fwd_cap=5.0, hop_bounds={0: 6})
    assert 0.95 - 1e-9 <= mcf.throughput <= 1.0 + 1e-9
    assert mcf.cert_gap <= 0.05 + 1e-9
    assert not mcf.budget_exhausted
    check_feasible(mcf, 5.0, 5.0, {0: 6})


def test_origin_cut_caps_each_origin_cell():
    # three requests share cell (0, 5); one leaves cell (1, 1) alone
    reqs = [PacketRequest(i, 0, 1, 5) for i in range(3)] + [PacketRequest(3, 1, 2, 2)]
    assert origin_cut(reqs, 0.3, 0.3) == pytest.approx(0.6 + 0.6)
    assert origin_cut(reqs, 2, 1) == 4.0
    assert origin_cut([], 1, 1) == 0.0


def test_mcf_origin_cut_binds():
    # three identical requests leaving one cell through out-capacity 0.6
    reqs = [PacketRequest(i, 0, 1, 5) for i in range(3)]
    hops = dict.fromkeys(range(3), 4)
    mcf = max_throughput_mcf(reqs, n=2, store_cap=0.3, fwd_cap=0.3, hop_bounds=hops)
    assert mcf.throughput <= 0.6 + 1e-9
    assert mcf.throughput >= 0.95 * 0.6 - 1e-9
    assert mcf.dual_bound <= 0.6 + 1e-9
    check_feasible(mcf, 0.3, 0.3, hops)


def test_mcf_tight_hop_bound_forces_direct_path():
    reqs = [PacketRequest(0, 1, 3, 4)]
    mcf = max_throughput_mcf(reqs, n=4, store_cap=1.0, fwd_cap=1.0,
                             hop_bounds={0: 2})
    for _, path in decompose(mcf.flows[0]):
        assert path.moves == "ff"
    with pytest.raises(ValueError, match="hop bound"):
        max_throughput_mcf(reqs, n=4, store_cap=1.0, fwd_cap=1.0, hop_bounds={0: 1})


def check_between_primal_and_lp(mcf: FractionalMCF, reqs, store_cap, fwd_cap, hops):
    """``throughput <= LP optimum <= dual_bound``, and the certified gap is
    at least the true gap to the LP optimum."""
    lp = fractional_optimum(reqs, store_cap, fwd_cap, hops)
    assert mcf.throughput <= lp + 1e-7
    assert lp <= mcf.dual_bound + 1e-7
    if lp > 0:
        assert 1.0 - mcf.throughput / lp <= mcf.cert_gap + 1e-7


def test_mcf_random_instance_feasible_and_certified():
    rng = np.random.default_rng(0)
    reqs = []
    for i in range(12):
        a = int(rng.integers(0, 6))
        b = int(rng.integers(a + 1, 8))
        t = int(rng.integers(1, 10))
        reqs.append(PacketRequest(i, a, b, t))
    hops = {r.id: 7 + r.distance for r in reqs}
    mcf = max_throughput_mcf(reqs, n=8, store_cap=0.2, fwd_cap=0.2, hop_bounds=hops)
    check_feasible(mcf, 0.2, 0.2, hops)
    assert mcf.throughput <= mcf.dual_bound + 1e-9
    assert mcf.congestion <= 1.0 + 1e-9
    check_between_primal_and_lp(mcf, reqs, 0.2, 0.2, hops)


@st.composite
def tiny_mcf_inputs(draw):
    n = draw(st.integers(2, 8))
    reqs, hops = [], {}
    for i in range(draw(st.integers(1, 8))):
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        reqs.append(PacketRequest(i, a, b, draw(st.integers(a, a + 4))))
        hops[i] = b - a + draw(st.integers(0, 4))
    store_cap = draw(st.sampled_from([0.2, 0.5, 1.0, 2.0]))
    fwd_cap = draw(st.sampled_from([0.2, 0.5, 1.0, 2.0]))
    return reqs, n, store_cap, fwd_cap, hops


@settings(max_examples=60, deadline=None)
@given(tiny_mcf_inputs())
def test_mcf_between_primal_and_lp_optimum(inputs):
    reqs, n, store_cap, fwd_cap, hops = inputs
    mcf = max_throughput_mcf(reqs, n, store_cap, fwd_cap, hops)
    check_feasible(mcf, store_cap, fwd_cap, hops)
    check_between_primal_and_lp(mcf, reqs, store_cap, fwd_cap, hops)


def test_mcf_empty_and_duplicate_ids():
    empty = max_throughput_mcf([], n=4, store_cap=1.0, fwd_cap=1.0, hop_bounds={})
    assert empty.throughput == 0.0
    dup = [PacketRequest(0, 0, 1, 1), PacketRequest(0, 0, 1, 2)]
    with pytest.raises(ValueError, match="duplicate"):
        max_throughput_mcf(dup, n=4, store_cap=1.0, fwd_cap=1.0, hop_bounds={0: 4})


def solve_with_every_sweep(*args) -> FractionalMCF:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_sweep_can_lower", lambda *_: True)
        return max_throughput_mcf(*args)


def same_but_dp_count(a: FractionalMCF, b: FractionalMCF) -> bool:
    # repr spells every float out to its last bit
    return repr(replace(a, dp_count=0)) == repr(replace(b, dp_count=0))


@st.composite
def sweep_inputs(draw):
    """Bands with windows on both sides of ``_SCALAR_COLS`` and capacities
    from the pipeline's capacity scale up to 1."""
    n = draw(st.integers(2, 10))
    reqs, hops = [], {}
    for i in range(draw(st.integers(1, 10))):
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        reqs.append(PacketRequest(i, a, b, draw(st.integers(a, a + 6))))
        hops[i] = b - a + draw(st.one_of(st.integers(0, 3),
                                         st.integers(0, 2 * flow._SCALAR_COLS)))
    caps = st.floats(capacity_scale(), 1.0)
    return reqs, n, draw(caps), draw(caps), hops


@settings(max_examples=200, deadline=None)
@given(sweep_inputs())
def test_skipping_a_dual_sweep_never_changes_the_result(inputs):
    reqs, n, store_cap, fwd_cap, hops = inputs
    got = max_throughput_mcf(reqs, n, store_cap, fwd_cap, hops)
    swept = solve_with_every_sweep(reqs, n, store_cap, fwd_cap, hops)
    assert same_but_dp_count(got, swept)
    assert swept.dp_count - got.dp_count in (0, len(reqs), 2 * len(reqs))


def test_dual_sweep_lowers_bound_below_origin_cut():
    # a lone request held to its direct path can leave its origin cell only
    # by the forward edge, which the origin cut, counting the store too,
    # cannot see; the sweep must run and find a bound near fwd_cap
    req = PacketRequest(0, 0, 1, 0)
    args = ([req], 2, 0.5, 0.5, {0: 1})
    got = max_throughput_mcf(*args)
    assert origin_cut([req], 0.5, 0.5) == 1.0
    assert 0.5 <= got.dual_bound < 0.51
    assert same_but_dp_count(got, solve_with_every_sweep(*args))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_sweep_can_lower", lambda *_: False)
        assert max_throughput_mcf(*args).dual_bound == 1.0


def solve_with_every_dp(*args) -> FractionalMCF:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow._PackState, "reachable", lambda *_: True)
        return max_throughput_mcf(*args)


@settings(max_examples=200, deadline=None)
@given(sweep_inputs())
def test_skipping_unreachable_turns_never_changes_the_result(inputs):
    reqs, n, store_cap, fwd_cap, hops = inputs
    got = max_throughput_mcf(reqs, n, store_cap, fwd_cap, hops)
    every = solve_with_every_dp(reqs, n, store_cap, fwd_cap, hops)
    assert same_but_dp_count(got, every)
    assert got.dp_count <= every.dp_count


def solve_keeping_states(*args) -> tuple[FractionalMCF, list[flow._PackState]]:
    states = []

    class Kept(flow._PackState):
        def __init__(self, *a):
            super().__init__(*a)
            states.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_PackState", Kept)
        return max_throughput_mcf(*args), states


@settings(max_examples=100, deadline=None)
@given(sweep_inputs())
def test_open_bits_match_prices_after_a_solve(inputs):
    _, (state,) = solve_keeping_states(*inputs)
    for kind, mask in (("s", state.store_mask), ("f", state.fwd_mask)):
        cost = state.kind[kind][1]
        assert flow._row_bits(mask & (cost < flow._BLOCKED_ABOVE)) == state.open[kind]


def test_precheck_on_hand_built_windows():
    # one window of two rows and two columns: paths ff, sff and fsf
    req = PacketRequest(0, 0, 2, 0)
    state = flow._PackState(3, [req], [3], 1.0, 1.0, 0.05)
    for row, col in ((1, 0), (0, 1)):
        assert state.route(row, col, "f", 1.0)[0] == 1.0
    # only fsf is left: a store detour around the saturated forward edge (1, 0)
    assert state.reachable(req, 0, 1)
    best, j, dist, store_w, fwd_w = flow._window_shortest(
        state.store_cost, state.fwd_cost, req, 0, 1)
    assert best < flow._BLOCKED_ABOVE
    assert flow._backtrack(dist, store_w, fwd_w, j) == "fsf"
    # with every forward edge out of row 1 saturated, nothing is left
    state.route(1, 1, "f", 1.0)
    assert not state.reachable(req, 0, 1)
    assert flow._window_shortest(state.store_cost, state.fwd_cost,
                                 req, 0, 1)[0] >= flow._BLOCKED_ABOVE


def test_turn_without_residual_path_runs_no_dp():
    # requests 0 and 1 saturate the forward edges out of row 1 in request
    # 2's window, so its one turn finds no path and is skipped without a DP
    reqs = [PacketRequest(0, 1, 2, 1), PacketRequest(1, 1, 2, 2), PacketRequest(2, 0, 2, 0)]
    args = (reqs, 3, 1.0, 1.0, {0: 1, 1: 1, 2: 3})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_sweep_can_lower", lambda *_: False)
        got = max_throughput_mcf(*args)
        every = solve_with_every_dp(*args)
    assert [f.amount for f in got.flows] == [1.0, 1.0, 0.0]
    assert (got.dp_count, every.dp_count) == (2, 3)
    assert same_but_dp_count(got, every)


# ---------------------------------------------------------------------------
# Cheapest-path DPs: the two row paths.

@st.composite
def price_grids(draw):
    """Random prices on an ``n``-row grid of ``W`` columns and requests whose
    windows fit in it, with ``_BLOCKED`` entries and ties among the prices."""
    n = draw(st.integers(2, 9))
    width = draw(st.integers(1, 2 * flow._SCALAR_COLS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        store = rng.uniform(1e-3, 2.0, (n, width - 1))
        fwd = rng.uniform(1e-3, 2.0, (n - 1, width))
    else:  # few distinct values, so that paths tie
        store = rng.choice([0.25, 0.5, 1.0], (n, width - 1))
        fwd = rng.choice([0.25, 0.5, 1.0], (n - 1, width))
    blocked = draw(st.sampled_from([0.0, 0.1, 0.5]))
    store[rng.random(store.shape) < blocked] = flow._BLOCKED
    fwd[rng.random(fwd.shape) < blocked] = flow._BLOCKED
    reqs, gcol0, slack = [], [], []
    for i in range(draw(st.integers(1, 10))):
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        g0 = draw(st.integers(0, width - 1))
        # the widest slack reaches the grid's last column
        s = draw(st.one_of(st.just(width - 1 - g0), st.integers(0, width - 1 - g0)))
        reqs.append(PacketRequest(i, a, b, a + g0))
        gcol0.append(g0)
        slack.append(s)
    return store, fwd, reqs, gcol0, slack


@settings(max_examples=300, deadline=None)
@given(price_grids())
def test_scalar_and_numpy_rows_agree(grid):
    store, fwd, reqs, gcol0, slack = grid
    for r, g0, s in zip(reqs, gcol0, slack):
        store_w = store[r.a:r.b, g0:g0 + s]
        fwd_w = fwd[r.a:r.b, g0:g0 + s + 1]
        best_n, j_n, dist_n = flow._rows_numpy(store_w, fwd_w)
        best_s, j_s, dist_s = flow._rows_scalar(store_w.tolist(), fwd_w.tolist())
        assert (best_n.hex(), j_n) == (best_s.hex(), j_s)
        assert dist_n.tolist() == dist_s
        moves = flow._backtrack(dist_n, store_w, fwd_w, j_n)
        assert flow._backtrack(dist_s, store_w.tolist(), fwd_w.tolist(), j_s) == moves
        assert moves.count("f") == r.distance and moves[-1] == "f"
        assert moves.count("s") == j_n <= s
        # the dispatcher picks the row path by window width alone
        got = flow._window_shortest(store, fwd, r, g0, s)
        assert (got[0].hex(), got[1]) == (best_n.hex(), j_n)
        assert isinstance(got[2], list) == (s + 1 <= flow._SCALAR_COLS)


def twice_entered_store_run():
    """A window whose one open path enters row 1 in columns 0 and 2, stores
    on from both into one run of open stores, and leaves from column 3."""
    store = np.ones((3, 4))
    fwd = np.full((2, 5), flow._BLOCKED)
    fwd[0, [0, 2]] = fwd[1, 3] = 1.0
    return store, fwd, [PacketRequest(0, 0, 2, 0)], [0], [4]


@settings(max_examples=300, deadline=None)
@given(price_grids())
@example(twice_entered_store_run())
def test_reachable_iff_window_dp_finds_a_path(grid):
    store, fwd, reqs, gcol0, slack = grid
    bits = SimpleNamespace(open={"s": flow._row_bits(store < flow._BLOCKED_ABOVE),
                                 "f": flow._row_bits(fwd < flow._BLOCKED_ABOVE)})
    for r, g0, s in zip(reqs, gcol0, slack):
        store_w = store[r.a:r.b, g0:g0 + s]
        fwd_w = fwd[r.a:r.b, g0:g0 + s + 1]
        reach = flow._PackState.reachable(bits, r, g0, s)
        assert reach == (flow._rows_numpy(store_w, fwd_w)[0] < flow._BLOCKED_ABOVE)
        assert reach == (flow._rows_scalar(store_w.tolist(), fwd_w.tolist())[0]
                         < flow._BLOCKED_ABOVE)


def test_row_paths_on_edge_windows():
    # d = 1, s = 0, a two-row grid, and windows on both sides of the cutoff
    for d, s in ((1, 0), (1, 5), (3, 0), (4, flow._SCALAR_COLS - 1),
                 (4, flow._SCALAR_COLS), (2, 3 * flow._SCALAR_COLS)):
        rng = np.random.default_rng(d * 100 + s)
        store_w, fwd_w = rng.uniform(0.1, 1.0, (d, s)), rng.uniform(0.1, 1.0, (d, s + 1))
        got_n = flow._rows_numpy(store_w, fwd_w)
        got_s = flow._rows_scalar(store_w.tolist(), fwd_w.tolist())
        assert got_n[:2] == got_s[:2]
        assert got_n[2].tolist() == got_s[2]
        assert (flow._backtrack(got_n[2], store_w, fwd_w, got_n[1])
                == flow._backtrack(got_s[2], store_w.tolist(), fwd_w.tolist(), got_s[1]))
    req = PacketRequest(0, 0, 1, 0)
    fwd = np.array([[2.0, 0.5, 0.25]])
    store = np.array([[1.0, 1.0], [flow._BLOCKED, flow._BLOCKED]])
    assert flow._window_shortest(store, fwd, req, 0, 2)[:2] == (1.5, 1)


def test_route_reprices_with_math_exp():
    reqs = [PacketRequest(0, 0, 4, 1), PacketRequest(1, 1, 5, 2)]
    state = flow._PackState(6, reqs, [9, 8], 0.7, 1.3, 0.05)
    rng = np.random.default_rng(3)
    routed = []
    for step in range(40):
        i = step % 2
        r, g0, s = reqs[i], state.gcol0[i], state.slack[i]
        stores = int(rng.integers(0, s + 1))
        moves = "".join(rng.permutation(["f"] * (r.distance - 1) + ["s"] * stores)) + "f"
        path = GridPath(r.a, g0, moves)
        before = {(k, row, col): float(state.kind[k][0][row, col])
                  for k, row, col in path.edges()}
        residual = min(state.kind[k][2] - state.kind[k][0][row, col]
                       for k, row, col in path.edges())
        demand = float(rng.uniform(0.05, 0.6))
        quantum, keys = state.route(r.a, g0, moves, demand)
        if residual <= 0.0:
            assert (quantum, keys) == (0.0, [])
            continue
        assert quantum == min(demand, residual)
        assert keys == [(k, row, col + state.off) for k, row, col in path.edges()]
        for kind, row, col in path.edges():
            load, cost, cap = state.kind[kind]
            assert load[row, col] == before[kind, row, col] + quantum
            if cap - load[row, col] <= cap * flow._SATURATED:
                assert cost[row, col] == flow._BLOCKED
            else:
                want = math.exp(state.eta * (float(load[row, col]) / cap - 1.0)) / cap
                assert float(cost[row, col]).hex() == want.hex()
        routed.append(quantum)
    assert len(routed) > 5 and any(q < 0.05 for q in routed)  # some paths saturate


# ---------------------------------------------------------------------------
# Rounding.

def hand_flow() -> SingleFlow:
    # amount 0.8 over a 2-forward request released at t=2 from node 0;
    # conservation holds at every interior cell
    req = PacketRequest(0, 0, 2, 2)
    edges = {
        ("f", 0, 2): 0.5,
        ("s", 0, 2): 0.3,
        ("f", 0, 3): 0.3,
        ("s", 1, 2): 0.2,
        ("f", 1, 2): 0.3,
        ("f", 1, 3): 0.5,
    }
    return SingleFlow(request=req, amount=0.8, edges=edges)


def test_decompose_hand_flow():
    paths = decompose(hand_flow())
    assert sum(w for w, _ in paths) == pytest.approx(0.8, abs=1e-12)
    seen = {p.moves for _, p in paths}
    assert seen <= {"ff", "fsf", "sff", "fssf"}  # walks of this support
    for _, p in paths:
        assert p.moves.count("f") == 2 and p.moves[-1] == "f"


def test_randomized_round_is_deterministic_per_seed():
    mcf = FractionalMCF((hand_flow(),), 1.0, 1.0, 0.0, 0, False, True)
    a = randomized_round(mcf, 123)
    b = randomized_round(mcf, 123)
    assert a == b
    outcomes = {tuple(sorted(randomized_round(mcf, s).items())) for s in range(40)}
    assert len(outcomes) > 1


def test_randomized_round_marginals():
    sf = hand_flow()
    mcf = FractionalMCF((sf,), 1.0, 1.0, 0.0, 0, False, True)
    trials = 20000
    hits: dict[tuple[str, int, int], int] = {k: 0 for k in sf.edges}
    accepted = 0
    for seed in range(trials):
        got = randomized_round(mcf, seed)
        if 0 not in got:
            continue
        accepted += 1
        for key in got[0].edges():
            hits[key] += 1
    # acceptance is a Bernoulli(0.8) coin
    sigma = math.sqrt(0.8 * 0.2 / trials)
    assert abs(accepted / trials - 0.8) <= 3.5 * sigma
    # each support edge appears with probability equal to its flow value
    for key, f_e in sf.edges.items():
        sigma = math.sqrt(f_e * (1 - f_e) / trials)
        assert abs(hits[key] / trials - f_e) <= 3.5 * sigma, key
