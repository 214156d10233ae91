"""Path-length truncation: slab cuts, the 2d bound, and survival ratios."""

import math
from collections import Counter, defaultdict
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesched.bounding import (
    first_boundary_after,
    flow_edges,
    slab_index,
    truncate_fractional,
    truncate_integral,
    truncate_path,
)
from linesched.flow import FractionalMCF, SingleFlow, max_throughput_mcf
from linesched.grid import GridPath, request_origin
from linesched.model import PacketRequest


# ---------------------------------------------------------------------------
# slab arithmetic

def test_slab_index_interior():
    assert slab_index(1, 3) == 1
    assert slab_index(2, 3) == 1
    assert slab_index(4, 3) == 2
    assert slab_index(17, 5) == 4


def test_slab_index_boundary_times_go_to_the_later_slab():
    # a packet starting exactly on a boundary must cross the *next* boundary
    # before its path gets cut, otherwise it would forward out of a vertex it
    # never entered through an in-edge
    assert slab_index(3, 3) == 2
    assert slab_index(6, 3) == 3
    assert slab_index(8, 2) == 5


def test_first_boundary_after_is_strictly_later():
    assert first_boundary_after(1, 3) == 3
    assert first_boundary_after(3, 3) == 6
    assert first_boundary_after(0, 4) == 4
    for t in range(1, 30):
        for d in (1, 2, 3, 7):
            nxt = first_boundary_after(t, d)
            assert nxt > t and nxt % d == 0 and nxt - t <= d


def test_slab_index_rejects_bad_width():
    with pytest.raises(ValueError, match="width"):
        slab_index(4, 0)


# ---------------------------------------------------------------------------
# single-path truncation

def test_truncate_path_confined_path_unchanged():
    p = GridPath(0, 1, "sff")  # times 1..4, next boundary at 6
    q, vertex = truncate_path(p, 6)
    assert q == p and vertex is None


def test_truncate_path_ending_on_boundary_unchanged():
    p = GridPath(1, 2, "sff")  # t0 = 3, ends exactly at t = 6
    q, vertex = truncate_path(p, 3)
    assert q == p and vertex is None


def test_truncate_path_rewrites_past_the_boundary():
    # t0 = 3 sits on no boundary for d = 3; cut after 3 moves at t = 6
    p = GridPath(1, 2, "sfsfsf")
    q, vertex = truncate_path(p, 3)
    assert vertex == (2, 4)
    assert vertex[0] + vertex[1] == 6
    assert q == GridPath(1, 2, "sfsff")
    assert len(q) < len(p)


def test_truncate_path_boundary_origin_gets_a_full_slab():
    # origin time 6 is itself a boundary with d = 3; the cut happens at 9
    p = GridPath(2, 4, "ssfsf")
    q, vertex = truncate_path(p, 3)
    assert vertex == (3, 6)
    assert q == GridPath(2, 4, "ssff")


def test_truncate_path_rejects_post_delivery_stores():
    with pytest.raises(ValueError, match="destination"):
        truncate_path(GridPath(0, 0, "fssss"), 2)


@settings(max_examples=300)
@given(
    row=st.integers(0, 5),
    col=st.integers(-4, 9),
    body=st.lists(st.sampled_from("sf"), max_size=14),
    d=st.integers(1, 6),
)
def test_truncate_path_properties(row, col, body, d):
    p = GridPath(row, col, "".join(body) + "f")
    q, vertex = truncate_path(p, d)
    dist = p.moves.count("f")
    assert (q.row, q.col) == (row, col)
    assert q.moves.count("f") == dist
    assert q.moves.endswith("f")
    assert len(q) <= len(p)
    assert len(q) <= d + dist
    cut = first_boundary_after(row + col, d) - (row + col)
    if vertex is None:
        assert q == p and len(p) <= cut
    else:
        r, c = vertex
        assert r + c == first_boundary_after(row + col, d)
        assert q.moves[:cut] == p.moves[:cut]
        assert set(q.moves[cut:]) == {"f"}


# ---------------------------------------------------------------------------
# integral truncation

def packing_loads(packing):
    loads = Counter()
    for path in packing.values():
        loads.update(path.edges())
    return loads


def assert_valid_packing(packing, store_cap, fwd_cap):
    for (kind, row, col), load in packing_loads(packing).items():
        cap = store_cap if kind == "s" else fwd_cap
        assert load <= cap, f"{kind} edge ({row},{col}) carries {load} > {cap}"


def test_truncate_integral_single_confined_path_survives():
    packing = {0: GridPath(0, 1, "sff")}
    out = truncate_integral(packing, 6, store_cap=1, fwd_cap=1)
    assert out == packing


def test_truncate_integral_keeps_larger_parity_side():
    # two odd-slab origins (t0 = 1) vs one even (t0 = 2), d = 2
    packing = {
        0: GridPath(0, 1, "f"),
        1: GridPath(3, -2, "f"),
        2: GridPath(1, 1, "f"),
    }
    out = truncate_integral(packing, 2, store_cap=1, fwd_cap=1)
    assert set(out) == {0, 1}


def test_truncate_integral_parity_tie_keeps_even():
    packing = {
        0: GridPath(0, 1, "f"),   # t0 = 1, slab 1, odd
        1: GridPath(0, 2, "f"),   # t0 = 2, slab 2, even
    }
    out = truncate_integral(packing, 2, store_cap=1, fwd_cap=1)
    assert set(out) == {1}


def test_truncate_integral_boundary_vertex_keeps_smallest_ids():
    # three same-parity paths forced through the same boundary vertex (2, 2)
    # with d = 2; fwd_cap = 2 keeps requests 3 and 5
    paths = {
        3: GridPath(1, 1, "fsf"),
        5: GridPath(2, 0, "sssf"),
        9: GridPath(1, 2, "ff"),
    }
    out = truncate_integral(paths, 2, store_cap=3, fwd_cap=2)
    assert set(out) == {3, 5}
    for rid in (3, 5):
        q, vertex = truncate_path(paths[rid], 2)
        assert vertex == (2, 2)
        assert out[rid] == q


def test_truncate_integral_rejects_invalid_input():
    clash = {0: GridPath(0, 0, "f"), 1: GridPath(0, 0, "f")}
    with pytest.raises(ValueError, match="overloads"):
        truncate_integral(clash, 2, store_cap=1, fwd_cap=1)
    with pytest.raises(ValueError, match="travels"):
        truncate_integral({0: GridPath(0, 0, "fff")}, 2, store_cap=1, fwd_cap=1)
    with pytest.raises(ValueError, match="delivery"):
        truncate_integral({0: GridPath(0, 0, "fs")}, 2, store_cap=1, fwd_cap=1)


def window_paths(row, col, dist, max_col):
    """Every monotone path from (row, col) with dist forwards, cols <= max_col."""
    out = []
    for stores in range(0, max_col - col + 1):
        for spots in combinations(range(stores + dist - 1), stores):
            moves = ["f"] * (stores + dist - 1)
            for i in spots:
                moves[i] = "s"
            out.append(GridPath(row, col, "".join(moves) + "f"))
    return out


def test_truncate_integral_exhaustive_small_window():
    # every packing of up to 4 paths drawn from four fixed requests inside a
    # 4-row by 8-column window, d = 2, unit capacities
    d = 2
    families = [
        window_paths(0, 2, 2, 7),   # t0 = 2, even slab
        window_paths(1, 2, 2, 7),   # t0 = 3, even slab
        window_paths(0, 1, 1, 7),   # t0 = 1, odd slab
        window_paths(2, 2, 1, 7),   # t0 = 4, odd slab
    ]
    options = [fam + [None] for fam in families]
    checked = 0
    for combo in product(*options):
        packing = {rid: p for rid, p in enumerate(combo) if p is not None}
        if not packing:
            continue
        if any(v > 1 for v in packing_loads(packing).values()):
            continue
        out = truncate_integral(packing, d, store_cap=1, fwd_cap=1)
        assert_valid_packing(out, 1, 1)
        for rid, q in out.items():
            assert len(q) <= 2 * d
            assert q.moves.count("f") == packing[rid].moves.count("f")
            assert (q.row, q.col) == (packing[rid].row, packing[rid].col)
        assert 4 * len(out) >= len(packing)
        checked += 1
    assert checked > 5000


def random_packing(rng, n, d, store_cap, fwd_cap, tries):
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
        fits = all(
            loads[e] + 1 <= (store_cap if e[0] == "s" else fwd_cap)
            for e in edges)
        if fits:
            loads.update(edges)
            packing[len(packing)] = path
    return packing


def test_truncate_integral_random_packings():
    cap_mix = [(1, 1), (2, 1), (1, 2), (3, 2)]
    survived_bound_tight = 0
    for seed in range(500):
        d = (2, 4, 8)[seed % 3]
        store_cap, fwd_cap = cap_mix[seed % 4]
        rng = np.random.default_rng(seed)
        packing = random_packing(rng, 12, d, store_cap, fwd_cap, tries=60)
        if not packing:
            continue
        out = truncate_integral(packing, d, store_cap=store_cap, fwd_cap=fwd_cap)
        assert_valid_packing(out, store_cap, fwd_cap)
        assert all(len(q) <= 2 * d for q in out.values())
        # survivors >= fwd_cap * |input| / (2 (store_cap + fwd_cap)), exactly
        assert 2 * (store_cap + fwd_cap) * len(out) >= fwd_cap * len(packing)
        if 2 * (store_cap + fwd_cap) * len(out) < 2 * fwd_cap * len(packing):
            survived_bound_tight += 1
        again = truncate_integral(packing, d, store_cap=store_cap, fwd_cap=fwd_cap)
        assert again == out
    assert survived_bound_tight >= 0  # bound exercised, not vacuous


def test_truncate_integral_prefixes_and_suffixes_live_in_alternating_slabs():
    rng = np.random.default_rng(11)
    d = 4
    packing = random_packing(rng, 12, d, 2, 2, tries=80)
    out = truncate_integral(packing, d, store_cap=2, fwd_cap=2)
    assert out
    parities = {slab_index(q.row + q.col, d) % 2 for q in out.values()}
    assert len(parities) == 1
    kept_parity = parities.pop()
    for q in out.values():
        t0 = q.row + q.col
        cut = first_boundary_after(t0, d) - t0
        for i, (kind, row, col) in enumerate(q.edges()):
            tail_slab = slab_index(row + col, d)
            if i < cut:
                assert tail_slab % 2 == kept_parity
            else:
                assert kind == "f"
                assert tail_slab % 2 != kept_parity


# ---------------------------------------------------------------------------
# fractional truncation

def scaled(caps):
    store_cap, fwd_cap = caps
    return fwd_cap / (store_cap + 2.0 * fwd_cap)


def as_mcf(flows):
    return FractionalMCF(tuple(flows), dual_bound=float(len(flows)),
                         congestion=1.0, cert_gap=0.0, dp_count=0,
                         budget_exhausted=False)


def test_truncate_fractional_confined_flow_only_scales():
    req = PacketRequest(id=0, a=0, b=2, t=1)
    edges = {("s", 0, 1): 0.7, ("f", 0, 2): 0.7, ("f", 1, 2): 0.7}
    mcf = as_mcf([SingleFlow(req, 0.7, ((0.7, "sff"),))])
    assert flow_edges(mcf.flows[0]) == edges
    out = truncate_fractional(mcf, 6, store_cap=1.0, fwd_cap=1.0)
    flow = out.flows[0]
    assert flow_edges(flow).keys() == edges.keys()
    for e, w in flow_edges(flow).items():
        assert w == pytest.approx(0.7 / 3.0, abs=1e-15)
    assert flow.amount == pytest.approx(0.7 / 3.0, abs=1e-15)


def test_truncate_fractional_rejects_oversized_requests():
    req = PacketRequest(id=0, a=0, b=5, t=1)
    mcf = as_mcf([SingleFlow(req, 0.0, ())])
    with pytest.raises(ValueError, match="travels"):
        truncate_fractional(mcf, 4, store_cap=1.0, fwd_cap=1.0)
    with pytest.raises(ValueError, match="positive"):
        truncate_fractional(as_mcf([]), 4, store_cap=0.0, fwd_cap=1.0)


def solver_mcf(seed, d, caps, m=12, n=10):
    rng = np.random.default_rng(seed)
    reqs = []
    for i in range(m):
        dist = int(rng.integers(1, d + 1))
        a = int(rng.integers(0, n - dist))
        t = int(rng.integers(1, 8))
        reqs.append(PacketRequest(id=i, a=a, b=a + dist, t=t))
    hops = {r.id: r.distance + 3 * d for r in reqs}
    return max_throughput_mcf(reqs, n, caps[0], caps[1], hops)


@pytest.mark.parametrize("seed,caps", [(0, (0.4, 0.3)), (1, (0.25, 0.25)),
                                       (2, (1.0, 0.5)), (3, (0.5, 1.0))])
def test_truncate_fractional_solver_flows(seed, caps):
    d = 4
    mcf = solver_mcf(seed, d, caps)
    assert mcf.throughput > 0.5
    out = truncate_fractional(mcf, d, store_cap=caps[0], fwd_cap=caps[1])
    rho = scaled(caps)

    assert out.throughput == pytest.approx(rho * mcf.throughput, rel=1e-12)

    loads = defaultdict(float)
    for flow in out.flows:
        for e, w in flow_edges(flow).items():
            assert w >= 0.0
            loads[e] += w
    for (kind, row, col), w in loads.items():
        cap = caps[0] if kind == "s" else caps[1]
        assert w <= cap + 1e-12, f"{kind} ({row},{col}): {w} > {cap}"
    assert out.congestion <= 1.0 + 1e-12

    for flow in out.flows:
        boundary = first_boundary_after(flow.request.t, d)
        suffix_cols = defaultdict(list)
        for (kind, row, col), w in flow_edges(flow).items():
            if row + col >= boundary:
                assert kind == "f"
                suffix_cols[col].append(row)
        for col, rows in suffix_cols.items():
            rows.sort()
            assert rows[0] + col == boundary  # run starts on the boundary
            assert rows == list(range(rows[0], flow.request.b))
        for weight, moves in flow.routes:
            assert len(GridPath(*request_origin(flow.request), moves)) <= 2 * d


def rewrite_flow_edges(flow: SingleFlow, d: int) -> dict[tuple[str, int, int], float]:
    """Edge map of the flow with everything past the first boundary replaced,
    worked out on edge weights alone: the reference for the path-wise
    truncation.  Edges whose tail time precedes the boundary are kept, and
    the amount leaving each boundary vertex forwards straight on to the
    destination row.  Stores on the destination row carry nothing and are
    dropped."""
    req = flow.request
    boundary = first_boundary_after(req.t, d)
    out: dict[tuple[str, int, int], float] = defaultdict(float)
    leaving: dict[int, float] = defaultdict(float)
    for (kind, row, col), w in flow_edges(flow).items():
        if kind == "s" and row == req.b:
            continue
        t = row + col
        if t < boundary:
            out[(kind, row, col)] += w
        elif t == boundary:
            leaving[row] += w
    for row, w in leaving.items():
        col = boundary - row
        for r in range(row, req.b):
            out[("f", r, col)] += w
    return dict(out)


def test_truncate_fractional_matches_edge_rewrite():
    # the path-wise truncation against the per-edge rewrite it replaced
    d = 4
    rewritten = 0
    for seed, caps in enumerate([(0.4, 0.3), (0.25, 0.25), (1.0, 0.5), (0.5, 1.0),
                                 (0.4, 0.3), (0.4, 0.3)]):
        mcf = solver_mcf(seed, d, caps)
        out = truncate_fractional(mcf, d, store_cap=caps[0], fwd_cap=caps[1])
        rho = scaled(caps)
        for flow, new_flow in zip(mcf.flows, out.flows):
            want = {e: w * rho for e, w in rewrite_flow_edges(flow, d).items()}
            got = flow_edges(new_flow)
            assert got.keys() == want.keys()
            assert got == pytest.approx(want, rel=1e-12)
            rewritten += want.keys() != flow_edges(flow).keys()
    assert rewritten > 0  # some flows cross a boundary


@pytest.mark.parametrize("seed", [4, 5])
def test_truncate_fractional_matches_pathwise_construction(seed):
    # second route to the same answer: take the input's paths, truncate each
    # path, re-accumulate prefix and suffix loads, compare edge by edge
    d = 4
    caps = (0.4, 0.3)
    mcf = solver_mcf(seed, d, caps)
    out = truncate_fractional(mcf, d, store_cap=caps[0], fwd_cap=caps[1])
    rho = scaled(caps)

    for flow, new_flow in zip(mcf.flows, out.flows):
        assert flow.request == new_flow.request
        pre = defaultdict(float)
        suf = defaultdict(float)
        t0 = flow.request.t
        cut_at = first_boundary_after(t0, d) - t0
        for weight, moves in flow.routes:
            q, vertex = truncate_path(GridPath(*request_origin(flow.request), moves), d)
            for i, e in enumerate(q.edges()):
                if vertex is not None and i >= cut_at:
                    suf[e] += weight
                else:
                    pre[e] += weight
        for e, w in pre.items():
            cap = caps[0] if e[0] == "s" else caps[1]
            assert w <= cap + 1e-9
        for e, w in suf.items():
            assert e[0] == "f"
            assert w <= caps[0] + caps[1] + 1e-9
        rebuilt = defaultdict(float)
        for e, w in pre.items():
            rebuilt[e] += w
        for e, w in suf.items():
            rebuilt[e] += w
        got = flow_edges(new_flow)
        assert rebuilt.keys() == got.keys()
        for e, w in rebuilt.items():
            assert got[e] == pytest.approx(rho * w, rel=1e-9, abs=1e-9)


def test_truncate_fractional_carries_certificate_fields():
    mcf = solver_mcf(6, 4, (0.4, 0.3))
    out = truncate_fractional(mcf, 4, store_cap=0.4, fwd_cap=0.3)
    assert out.dual_bound == mcf.dual_bound
    assert out.cert_gap == mcf.cert_gap
    assert out.budget_exhausted == mcf.budget_exhausted
