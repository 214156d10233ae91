import math

import numpy as np
import pytest

from linesched.flow import (
    FractionalMCF,
    MaxFlow,
    SingleFlow,
    decompose,
    max_throughput_mcf,
    origin_cut,
    randomized_round,
)
from linesched.grid import request_origin
from linesched.model import PacketRequest


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
            h = hops if isinstance(hops, int) else hops[f.request.id]
            assert len(path) <= h
    for (kind, _, _), load in agg_edge_loads(mcf).items():
        cap = store_cap if kind == "s" else fwd_cap
        assert load <= cap + 1e-9


def test_mcf_single_request_uncongested():
    req = PacketRequest(0, 0, 3, 5)
    mcf = max_throughput_mcf([req], n=4, store_cap=5.0, fwd_cap=5.0, hop_bounds=6)
    assert 0.95 - 1e-9 <= mcf.throughput <= 1.0 + 1e-9
    assert mcf.cert_gap <= 0.05 + 1e-9
    assert not mcf.budget_exhausted
    check_feasible(mcf, 5.0, 5.0, 6)


def test_origin_cut_caps_each_origin_cell():
    # three requests share cell (0, 5); one leaves cell (1, 1) alone
    reqs = [PacketRequest(i, 0, 1, 5) for i in range(3)] + [PacketRequest(3, 1, 2, 2)]
    assert origin_cut(reqs, 0.3, 0.3) == pytest.approx(0.6 + 0.6)
    assert origin_cut(reqs, 2, 1) == 4.0
    assert origin_cut([], 1, 1) == 0.0


def test_mcf_origin_cut_binds():
    # three identical requests leaving one cell through out-capacity 0.6
    reqs = [PacketRequest(i, 0, 1, 5) for i in range(3)]
    mcf = max_throughput_mcf(reqs, n=2, store_cap=0.3, fwd_cap=0.3, hop_bounds=4)
    assert mcf.throughput <= 0.6 + 1e-9
    assert mcf.throughput >= 0.95 * 0.6 - 1e-9
    assert mcf.dual_bound <= 0.6 + 1e-9
    check_feasible(mcf, 0.3, 0.3, 4)


def test_mcf_tight_hop_bound_forces_direct_path():
    reqs = [PacketRequest(0, 1, 3, 4)]
    mcf = max_throughput_mcf(reqs, n=4, store_cap=1.0, fwd_cap=1.0,
                             hop_bounds={0: 2})
    for _, path in decompose(mcf.flows[0]):
        assert path.moves == "ff"
    with pytest.raises(ValueError, match="hop bound"):
        max_throughput_mcf(reqs, n=4, store_cap=1.0, fwd_cap=1.0, hop_bounds={0: 1})


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
    if mcf.certified:
        assert mcf.cert_gap <= 0.05 + 1e-9


def test_mcf_empty_and_duplicate_ids():
    empty = max_throughput_mcf([], n=4, store_cap=1.0, fwd_cap=1.0, hop_bounds=4)
    assert empty.throughput == 0.0
    dup = [PacketRequest(0, 0, 1, 1), PacketRequest(0, 0, 1, 2)]
    with pytest.raises(ValueError, match="duplicate"):
        max_throughput_mcf(dup, n=4, store_cap=1.0, fwd_cap=1.0, hop_bounds=4)


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
