import contextlib
import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linesched import flow, pipeline
from linesched.flow import (
    FractionalMCF,
    SingleFlow,
    max_throughput_mcf,
    origin_cut,
    randomized_round,
)
from linesched.grid import GridPath, packing_to_schedule, request_origin, validate_schedule
from linesched.model import (PacketRequest, capacity_scale, gen_random_instance,
                             request_rng)
from linesched.oracle import fractional_optimum



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
        # the amount is the routes' quanta summed in route order, capped at 1
        assert min(sum(q for q, _ in f.paths), 1.0) == f.amount
        for w, path in f.paths:
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
    assert mcf.flows[0].paths
    for _, path in mcf.flows[0].paths:
        assert path.moves == "ff"
    with pytest.raises(ValueError, match="hop bound"):
        max_throughput_mcf(reqs, n=4, store_cap=1.0, fwd_cap=1.0, hop_bounds={0: 1})


def check_between_primal_and_lp(mcf: FractionalMCF, reqs, store_cap, fwd_cap, hops):
    """``throughput <= LP optimum <= dual_bound``, and ``cert_gap`` is
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
    with pytest.raises(ValueError, match="beyond the line"):
        max_throughput_mcf([PacketRequest(0, 1, 4, 1)], n=4, store_cap=1.0, fwd_cap=1.0,
                           hop_bounds={0: 3})


@st.composite
def sweep_inputs(draw):
    """Bands with narrow and wide windows, up to 33 columns, and
    capacities from the pipeline's capacity scale up to 1."""
    n = draw(st.integers(2, 10))
    reqs, hops = [], {}
    for i in range(draw(st.integers(1, 10))):
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        reqs.append(PacketRequest(i, a, b, draw(st.integers(a, a + 6))))
        hops[i] = b - a + draw(st.one_of(st.integers(0, 3),
                                         st.integers(0, 32)))
    caps = st.floats(capacity_scale(), 1.0)
    return reqs, n, draw(caps), draw(caps), hops


@settings(max_examples=200, deadline=None)
@given(st.one_of(sweep_inputs(), tiny_mcf_inputs()))
# a lone request held to its direct path can leave its origin cell only by
# the forward edge, which the origin cut, counting the store too, cannot see
@example(([PacketRequest(0, 0, 1, 0)], 2, 0.5, 0.5, {0: 1}))
# the primal sits above the cut, and a numpy pairwise sum of the amounts
# lands one ulp below the sum ``throughput`` reports
@example(([PacketRequest(i, a, b, t) for i, (a, b, t) in enumerate(
    [(3, 4, 22), (3, 4, 40), (3, 4, 15), (1, 3, 27), (1, 3, 15), (0, 2, 12),
     (1, 4, 15), (1, 2, 35)])],
    5, 0.1931471805599453, 0.1931471805599453,
    {0: 4, 1: 4, 2: 4, 3: 4, 4: 2, 5: 3, 6: 7, 7: 2}))
def test_dual_bound_is_the_origin_cut_or_the_primal(inputs):
    reqs, n, store_cap, fwd_cap, hops = inputs
    mcf = max_throughput_mcf(reqs, n, store_cap, fwd_cap, hops)
    cut = min(float(len(reqs)), origin_cut(reqs, store_cap, fwd_cap))
    assert mcf.dual_bound == max(mcf.throughput, cut)
    assert mcf.throughput <= mcf.dual_bound
    assert mcf.dp_count == 0


def window_paths(d: int, s: int):
    """Every move string of a window ``d`` rows deep and ``s + 1`` columns
    wide: ``d`` forward moves, the last one last, and at most ``s`` stores."""
    for j in range(s + 1):
        for stores in itertools.combinations(range(d - 1 + j), j):
            moves = ["f"] * (d - 1 + j)
            for k in stores:
                moves[k] = "s"
            yield "".join(moves) + "f"


def moves_of(runs: list[tuple[int, int]]) -> str:
    """A window path's moves from its forward run in each column."""
    return "s".join("f" * (r1 - r0) for r0, r1 in runs)


def runs_of(row: int, moves: str) -> list[tuple[int, int]]:
    """A path's forward run in each column, ``(first row, end row)``, from
    its first row and its moves."""
    runs = []
    for run in moves.split("s"):
        runs.append((row, row + len(run)))
        row += len(run)
    return runs


def route_moves(state, row: int, col: int, moves: str, demand: float) -> float:
    """``_PackState.route`` on a path given by its first cell and moves."""
    return state.route(col, runs_of(row, moves), demand)


def is_open(bits, req: PacketRequest, g0: int, moves: str) -> bool:
    row, col = req.a, g0
    for mv in moves:
        if not bits[mv][col] >> row & 1:
            return False
        row, col = (row + 1, col) if mv == "f" else (row, col + 1)
    return True


def brute_force_path(state, req: PacketRequest, g0: int,
                     s: int) -> list[tuple[int, int]] | None:
    """The fewest-store open path by enumeration, as its runs; among those,
    the walk back goes forward before store, so the reversed moves are
    least."""
    paths = [m for m in window_paths(req.distance, s) if is_open(state.open, req, g0, m)]
    best = min(paths, key=lambda m: (m.count("s"), m[::-1]), default=None)
    return None if best is None else runs_of(req.a, best)


@st.composite
def open_windows(draw):
    """Random open bitsets, one int per column with bit = row, around one
    window of at most 5 rows and 6 columns, with bits set outside it too."""
    d, s = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    a, g0 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    col_bits = st.lists(st.integers(0, 2**(a + d + 2) - 1),
                        min_size=g0 + s + 2, max_size=g0 + s + 2)
    bits = {"s": draw(col_bits), "f": draw(col_bits)}
    return SimpleNamespace(open=bits), PacketRequest(0, a, a + d, a + g0), g0, s


@settings(max_examples=500, deadline=None)
@given(open_windows())
# every open path enters column 1 in row 0 or 2, forwards on through one run
# of open forward edges, and leaves it by the store out of row 3
@example((SimpleNamespace(open={"f": [0b111, 0b111, 0b1000], "s": [0b101, 0b1000, 0]}),
          PacketRequest(0, 0, 4, 0), 0, 2))
# the fill reaches row 1 in columns 0 and 2, stores on from both into one
# run of open stores, and leaves it from column 3
@example((SimpleNamespace(open={"f": [0b1, 0, 0b1, 0b10, 0], "s": [0b111] * 4 + [0]}),
          PacketRequest(0, 0, 2, 0), 0, 4))
def test_open_path_is_the_brute_force_fewest_store_path(window):
    state, req, g0, s = window
    got = flow._PackState.open_path(state, req, g0, s)
    want = brute_force_path(state, req, g0, s)
    assert (got is None) == (want is None)
    if got is not None:
        moves = moves_of(got)
        assert got == runs_of(req.a, moves)
        assert moves.count("f") == req.distance and moves[-1] == "f"
        assert moves.count("s") <= s
        assert is_open(state.open, req, g0, moves)
        assert got == want


def solve_with_brute_force_paths(*args) -> FractionalMCF:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow._PackState, "open_path", brute_force_path)
        return max_throughput_mcf(*args)


@settings(max_examples=100, deadline=None)
@given(tiny_mcf_inputs())
def test_skipping_unreachable_turns_never_changes_the_result(inputs):
    # the brute force finds no open path exactly where the bitset fill does,
    # and picks the same path elsewhere
    assert repr(max_throughput_mcf(*inputs)) == repr(solve_with_brute_force_paths(*inputs))


@contextlib.contextmanager
def keeping_states():
    """Keep every pack state built inside the block, each recording its
    ``route`` calls as ``(row, col, moves, quantum)`` in ``calls``."""
    states = []

    class Kept(flow._PackState):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = []
            states.append(self)

        def route(self, col, runs, demand):
            quantum = super().route(col, runs, demand)
            self.calls.append((runs[0][0], col, moves_of(runs), quantum))
            return quantum

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_PackState", Kept)
        yield states


def solve_keeping_states(*args) -> tuple[FractionalMCF, list[flow._PackState]]:
    with keeping_states() as states:
        return max_throughput_mcf(*args), states


def window_bits(state, reqs) -> dict[str, list[int]]:
    """Each window's rows ORed into its columns one by one: the reference
    for the segment tree."""
    bits = {"s": [0] * state.W, "f": [0] * state.W}
    for r, g0, s in zip(sorted(reqs, key=lambda r: r.id), state.gcol0, state.slack):
        rows = ((1 << r.distance) - 1) << r.a
        for c in range(g0, g0 + s + 1):
            bits["f"][c] |= rows
            if c < g0 + s:
                bits["s"][c] |= rows
    return bits


def cap_of(state, kind: str) -> float:
    return state.store_cap if kind == "s" else state.fwd_cap


def replayed_loads(state) -> dict[tuple[str, int, int], float]:
    """Every edge's load, its routes' quanta added edge by edge in call order."""
    loads: dict[tuple[str, int, int], float] = {}
    for row, col, moves, quantum in state.calls:
        if quantum > 0.0:
            for key in GridPath(row, col, moves).edges():
                loads[key] = loads.get(key, 0.0) + quantum
    return loads


def check_state_against_loads(state, reqs, loads) -> None:
    """The open bits are the windows' minus every loaded edge, that is every
    edge of every route with a quantum above 0, and the congestion is the
    largest load over its capacity."""
    bits = window_bits(state, reqs)
    for k, r, c in loads:
        bits[k][c] &= ~(1 << r)
    assert state.open == bits
    assert state.congestion == max([x / cap_of(state, k) for (k, _, _), x in loads.items()],
                                   default=0.0)


def wide_band():
    """Forty requests of a 40-node line with windows up to 41 columns wide."""
    rng = np.random.default_rng(11)
    reqs, hops = [], {}
    for i in range(40):
        a = int(rng.integers(0, 38))
        b = int(rng.integers(a + 1, 40))
        reqs.append(PacketRequest(i, a, b, a + int(rng.integers(0, 30))))
        hops[i] = b - a + int(rng.integers(0, 41))
    return reqs, 40, capacity_scale(), capacity_scale(), hops


@settings(max_examples=100, deadline=None)
@given(st.one_of(sweep_inputs(), tiny_mcf_inputs()))
@example(wide_band())
def test_open_bits_match_loads_after_a_solve(inputs):
    mcf, (state,) = solve_keeping_states(*inputs)
    check_state_against_loads(state, inputs[0], replayed_loads(state))
    assert mcf.congestion == state.congestion


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 70), st.lists(st.tuples(st.integers(0, 70), st.integers(0, 70),
                                              st.integers(1, 2**12 - 1)), max_size=12))
def test_window_bits_or_each_mask_into_its_columns(width, windows):
    windows = [(min(lo, width), min(hi, width), m) for lo, hi, m in windows]
    want = [0] * width
    for lo, hi, m in windows:
        for c in range(lo, hi):
            want[c] |= m
    assert flow._window_bits(width, windows) == want


@settings(max_examples=200, deadline=None)
@given(sweep_inputs(), st.integers(1, 7))
def test_every_load_is_zero_or_one_quantum(inputs, k):
    # the pipeline's capacities lam * min(B, c) stay at most 1/2 up to
    # min(B, c) = 7: a request's demand before either of its two routes is
    # 1 or 1 - C >= C, so every route pushes a full quantum C and every
    # routed edge carries exactly C
    reqs, n, _, _, hops = inputs
    cap = capacity_scale() * k
    assert cap <= 0.5
    mcf, (state,) = solve_keeping_states(reqs, n, cap, cap, hops)
    assert set(replayed_loads(state).values()) <= {cap}
    assert all(q == cap for f in mcf.flows for q, _ in f.paths)
    assert mcf.congestion in (0.0, 1.0)


def test_turn_without_residual_path_runs_no_dp():
    # requests 0 and 1 saturate the forward edges out of row 1 in request
    # 2's window, so its one turn finds no path
    reqs = [PacketRequest(0, 1, 2, 1), PacketRequest(1, 1, 2, 2), PacketRequest(2, 0, 2, 0)]
    got = max_throughput_mcf(reqs, 3, 1.0, 1.0, {0: 1, 1: 1, 2: 3})
    assert [f.amount for f in got.flows] == [1.0, 1.0, 0.0]
    assert got.dp_count == 0


def test_precheck_on_hand_built_windows():
    # the bitset fill that once only pre-checked a window for a residual
    # path now returns the path. One window of two rows and two columns:
    # paths ff, sff and fsf
    req = PacketRequest(0, 0, 2, 0)
    state = flow._PackState([req], [3], 1.0, 1.0)
    assert state.open_path(req, 0, 1) == runs_of(0, "ff")
    for row, col in ((1, 0), (0, 1)):
        assert route_moves(state, row, col, "f", 1.0) == 1.0
    # only fsf is left: a store detour around the saturated forward edge (1, 0)
    assert state.open_path(req, 0, 1) == runs_of(0, "fsf") == [(0, 1), (1, 2)]
    # with every forward edge out of row 1 saturated, nothing is left
    route_moves(state, 1, 1, "f", 1.0)
    assert state.open_path(req, 0, 1) is None


def test_straight_path_shortcut_on_hand_built_windows():
    # the straight path is taken whenever all its forward edges are open.
    # One window of three rows and two columns: paths fff, sfff, fsff, ffsf
    req = PacketRequest(0, 0, 3, 0)

    def fresh():
        return flow._PackState([req], [4], 1.0, 1.0)

    assert fresh().open_path(req, 0, 1) == runs_of(0, "fff")
    # a saturated store in row a+1 leaves the straight path open
    state = fresh()
    assert route_moves(state, 1, 0, "s", 1.0) == 1.0
    assert state.open_path(req, 0, 1) == runs_of(0, "fff")
    # a route of half the cap closes its forward edge all the same
    state = fresh()
    assert route_moves(state, 1, 0, "f", 0.5) == 0.5
    assert state.open_path(req, 0, 1) == runs_of(0, "sfff")
    # one store is needed, and sfff, fsff and ffsf all take one: walking
    # back forward before store puts it first
    state = fresh()
    assert route_moves(state, 2, 0, "f", 1.0) == 1.0
    assert state.open_path(req, 0, 1) == runs_of(0, "sfff")
    # with store (0, 0) saturated too, the store moves down a row
    assert route_moves(state, 0, 0, "s", 1.0) == 1.0
    assert state.open_path(req, 0, 1) == runs_of(0, "fsff")


class Booked:
    """A pack state beside its loads, booked route by route, whose every
    ``route`` is checked against its per-edge meaning: the quantum, the
    loads on the path, the open bits and the congestion."""

    def __init__(self, reqs, hops, store_cap, fwd_cap):
        self.reqs = reqs
        self.state = flow._PackState(reqs, hops, store_cap, fwd_cap)
        self.loads: dict[tuple[str, int, int], float] = {}

    def route(self, row: int, g0: int, moves: str, demand: float) -> float:
        state, loads = self.state, self.loads
        path = list(GridPath(row, g0, moves).edges())
        is_open = all(state.open[k][c] >> r & 1 for k, r, c in path)
        quantum = route_moves(state, row, g0, moves, demand)
        if not is_open:
            assert quantum == 0.0  # a closed edge takes no second route
        else:
            assert quantum == min([demand, *(cap_of(state, k) for k, _, _ in path)])
            for e in path:
                assert e not in loads
                loads[e] = quantum
        check_state_against_loads(state, self.reqs, loads)
        return quantum


def test_route_updates_loads_and_open_bits():
    reqs = [PacketRequest(0, 0, 4, 1), PacketRequest(1, 1, 5, 2)]
    booked = Booked(reqs, [9, 8], 0.7, 1.3)
    state = booked.state
    assert state.gcol0 == [0, 0]
    # a path that starts with a store and has two stores in a row, so one
    # column's forward run is empty; it closes though it carries less than
    # either cap
    assert booked.route(0, 0, "ssffsff", 0.3) == 0.3
    # the second path's run closes rows 0-3 of column 0 with one mask, and a
    # third path through rows 1-3 there routes nothing and closes nothing
    assert booked.route(0, 0, "ffff", 0.6) == 0.6
    assert booked.route(1, 0, "ffff", 0.9) == 0.0
    assert [state.open["f"][0] >> r & 1 for r in range(5)] == [0, 0, 0, 0, 1]
    # the open forward edge left in row 4 takes a full forward cap
    assert booked.route(4, 0, "f", 2.0) == 1.3
    assert state.congestion == 1.0
    # with the caps swapped, the forward cap bounds the quantum, and the
    # stores close as well as both runs of sffsff
    booked = Booked(reqs, [9, 8], 1.3, 0.7)
    state = booked.state
    assert booked.route(0, 0, "sffsff", 1.0) == 0.7
    assert [state.open["f"][1] >> 0 & 3, state.open["f"][2] >> 2 & 3] == [0, 0]
    assert [state.open["s"][0] & 1, state.open["s"][1] >> 2 & 1] == [0, 0]

    booked = Booked(reqs, [9, 8], 0.7, 1.3)
    state = booked.state
    rng = np.random.default_rng(3)
    routed = Counter()
    for step in range(40):
        i = step % 2
        r, g0, s = reqs[i], state.gcol0[i], state.slack[i]
        stores = int(rng.integers(0, s + 1))
        moves = "".join(rng.permutation(["f"] * (r.distance - 1) + ["s"] * stores)) + "f"
        if booked.route(r.a, g0, moves, float(rng.uniform(0.05, 0.6))) > 0.0:
            routed[i] += 1
    # each route closes one of its origin's two out-edges, so no request
    # routes more than twice
    assert routed == {0: 2, 1: 1}


def solve_recording_routes(*args) -> tuple[FractionalMCF, list, Counter]:
    """Solve and record every route as ``(request id, quantum, edge keys)``,
    the keys spelled out per edge in path order and grid columns, and count
    each request's turns."""
    calls, turns = [], Counter()

    class Recording(flow._PackState):
        def open_path(self, req, g0, s):
            self.req_id = req.id
            turns[req.id] += 1
            return super().open_path(req, g0, s)

        def route(self, col, runs, demand):
            quantum = super().route(col, runs, demand)
            path = GridPath(runs[0][0], col, moves_of(runs))
            keys = [(k, r, c + self.off) for k, r, c in path.edges()]
            calls.append((self.req_id, quantum, keys if quantum > 0.0 else []))
            return quantum

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_PackState", Recording)
        return max_throughput_mcf(*args), calls, turns


def booked_edges(calls, rid: int) -> dict[tuple[str, int, int], float]:
    """A request's edge map booked route by route, key by key."""
    summed: dict[tuple[str, int, int], float] = {}
    for i, quantum, keys in calls:
        if i == rid:
            for key in keys:
                summed[key] = summed.get(key, 0.0) + quantum
    return summed


def test_a_route_never_reuses_an_edge_of_an_earlier_route():
    # request 0's route f closes the forward edge out of the shared origin
    # cell, so request 1's first route sf closes the store, and with both
    # out-edges closed request 1 has no second route to take
    reqs = [PacketRequest(0, 0, 1, 2), PacketRequest(1, 0, 1, 2)]
    mcf, calls, turns = solve_recording_routes(reqs, 2, 1.5, 0.75, {0: 1, 1: 3})
    assert [(i, k) for i, _, k in calls] == [
        (0, [("f", 0, 2)]),
        (1, [("s", 0, 2), ("f", 0, 3)])]
    assert turns == {0: 2, 1: 2}
    for f in mcf.flows:
        assert list(f.edges.items()) == list(booked_edges(calls, f.request.id).items())
    assert mcf.flows[1].edges[("s", 0, 2)] == 0.75


@settings(max_examples=300, deadline=None)
@given(st.one_of(sweep_inputs(), tiny_mcf_inputs()))
@example(wide_band())
def test_routes_are_edge_disjoint_and_at_most_two_per_request(inputs):
    # every route closes its path, one of its origin cell's two out-edges
    # included, so no turn after a request's second route finds a path
    _, _, store_cap, fwd_cap, _ = inputs
    mcf, calls, turns = solve_recording_routes(*inputs)
    keys = [key for _, _, path in calls for key in path]
    assert len(keys) == len(set(keys))
    assert max(Counter(i for i, q, _ in calls if q > 0.0).values(), default=0) <= 2
    assert max(turns.values()) <= 3
    raw = dict.fromkeys(turns, 0.0)
    for i, quantum, path in calls:
        caps = {store_cap if k == "s" else fwd_cap for k, _, _ in path}
        assert quantum == min([1.0 - raw[i], *caps])
        raw[i] += quantum
    assert not mcf.budget_exhausted


@settings(max_examples=200, deadline=None)
@given(sweep_inputs())
def test_edge_maps_from_paths_match_per_route_booking(inputs):
    # the map summed from the kept paths books the same floats in the same
    # order as booking each route's edges as it is routed
    mcf, calls, _ = solve_recording_routes(*inputs)
    for f in mcf.flows:
        assert "edges" not in f.__dict__  # built on first read only
        assert [(q, list(p.edges())) for q, p in f.paths] == [
            (q, keys) for i, q, keys in calls if i == f.request.id and q > 0.0]
        assert list(f.edges.items()) == list(booked_edges(calls, f.request.id).items())
        assert f.edges is f.edges


def solve_keeping_flows(inst, seed: int) -> tuple[list[SingleFlow], dict]:
    """Every λ-solve flow of one ``solve_instance`` call, and what rounding
    returned, merged over the bands."""
    solves, rounded = [], {}

    def keeping(*args, **kwargs):
        solves.append(max_throughput_mcf(*args, **kwargs))
        return solves[-1]

    def recording(flows, seed):
        got = randomized_round(flows, seed)
        rounded.update(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "max_throughput_mcf", keeping)
        mp.setattr(pipeline, "randomized_round", recording)
        pipeline.solve_instance(inst, seed=seed)
    return [f for mcf in solves for f in mcf.flows], rounded


def test_solve_builds_no_edge_maps():
    # rounding picks whole paths, so no flow of any fractional solve ever
    # sums its paths into an edge map
    flows, rounded = solve_keeping_flows(gen_random_instance(64, 1, 1, 150, seed=5), 5)
    assert rounded and len(flows) > 10 * len(rounded)
    for f in flows:
        assert "edges" not in f.__dict__, f.request.id


def test_solve_at_caps_above_one_half_closes_partly_filled_paths():
    # at B = c = 8 the λ solve's caps C = 8 lam pass 1/2, so a request's
    # second route pushes 1 - C < C, and it still closes its path
    inst = gen_random_instance(64, 8, 8, 150, seed=5)
    cap = 8 * capacity_scale()
    assert 0.5 < cap < 0.52
    with keeping_states() as states:
        packing, _ = pipeline.solve_instance(inst, seed=5)
    partly = [(state, call) for state in states for call in state.calls
              if call[3] == 1.0 - cap]
    assert partly
    for state, (row, col, moves, _) in partly:
        assert not any(state.open[k][c] >> r & 1 for k, r, c in GridPath(row, col, moves).edges())
    assert packing
    verdict = validate_schedule(inst, packing_to_schedule(inst, packing))
    assert verdict.ok, verdict.violations
    assert verdict.accepted == len(packing)


# ---------------------------------------------------------------------------
# Rounding.

def hand_flow() -> SingleFlow:
    # amount 0.8 over a 2-forward request released at t=2 from node 0;
    # conservation holds at every interior cell
    req = PacketRequest(0, 0, 2, 2)
    paths = ((0.3, GridPath(0, 2, "ff")), (0.2, GridPath(0, 2, "fsf")),
             (0.3, GridPath(0, 2, "sff")))
    sf = SingleFlow(request=req, amount=0.8, paths=paths)
    assert sf.edges == {
        ("f", 0, 2): 0.5,
        ("s", 0, 2): 0.3,
        ("f", 0, 3): 0.3,
        ("s", 1, 2): 0.2,
        ("f", 1, 2): 0.3,
        ("f", 1, 3): 0.5,
    }
    return sf


def test_randomized_round_is_deterministic_per_seed():
    flows = (hand_flow(),)
    a = randomized_round(flows, 123)
    b = randomized_round(flows, 123)
    assert a == b
    outcomes = {tuple(sorted(randomized_round(flows, s).items())) for s in range(40)}
    assert len(outcomes) > 1


def test_randomized_round_rejects_an_amount_on_no_path():
    assert randomized_round((SingleFlow(PacketRequest(0, 0, 2, 1), 1e-13, ()),), 0) == {}
    with pytest.raises(ValueError, match="no path"):
        randomized_round((SingleFlow(PacketRequest(0, 0, 2, 1), 0.5, ()),), 0)


def test_randomized_round_marginals():
    sf = hand_flow()
    trials = 20000
    hits: dict[tuple[str, int, int], int] = {k: 0 for k in sf.edges}
    accepted = 0
    for seed in range(trials):
        got = randomized_round((sf,), seed)
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


@settings(max_examples=100, deadline=None)
@given(sweep_inputs())
def test_rounding_picks_one_of_each_accepted_requests_routes(inputs):
    flows = max_throughput_mcf(*inputs).flows
    for seed in range(10):
        got = randomized_round(flows, seed)
        coin = {f.request.id for f in flows
                if request_rng(seed, f.request.id).random() < min(f.amount, 1.0)}
        assert got.keys() == coin
        for f in flows:
            if f.request.id in got:
                assert got[f.request.id] in [p for _, p in f.paths]


def walk_round(flows, master_seed: int) -> dict[int, GridPath]:
    """The rounding that walked each accepted request's edge map from its
    origin, one uniform per step, forward with probability ``wf / (wf + ws)``:
    the reference for the route pick."""
    accepted = {}
    for sf in flows:
        if sf.amount <= 1e-12:
            continue
        rng = request_rng(master_seed, sf.request.id)
        if rng.random() >= min(sf.amount, 1.0):
            continue
        row, col = origin = request_origin(sf.request)
        moves = []
        while row < sf.request.b:
            wf = sf.edges.get(("f", row, col), 0.0)
            ws = sf.edges.get(("s", row, col), 0.0)
            total = wf + ws
            forward = total <= 0.0 or rng.random() < wf / total
            moves.append("f" if forward else "s")
            row, col = (row + 1, col) if forward else (row, col + 1)
        accepted[sf.request.id] = GridPath(*origin, "".join(moves))
    return accepted


def test_route_pick_matches_the_walk_when_the_first_route_goes_forward():
    # at pipeline caps a second route leaves the origin by the edge the
    # first left open, so when the first starts forward the walk's first
    # draw chooses between the two routes just as the pick does
    flows, _ = solve_keeping_flows(gen_random_instance(64, 1, 1, 150, seed=5), 5)
    forward = [f for f in flows if f.paths and f.paths[0][1].moves[0] == "f"]
    assert sum(len(f.paths) == 2 for f in forward) > 10
    for f in forward:
        for seed in range(20):
            assert randomized_round((f,), seed) == walk_round((f,), seed), f.request.id
