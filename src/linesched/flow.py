"""Flow machinery on the untilted grid.

Three layers live here.  ``MaxFlow`` is a plain Dinic implementation for the
small integral routing problems (per-tile quadrant admission); it re-checks
every answer against the residual min cut.  ``max_throughput_mcf`` is the
fractional solver: it maximizes the number of fractionally accepted requests
subject to per-edge capacities, a per-request cap of one unit, and a
per-request hop budget.  ``decompose`` and ``randomized_round`` turn the
fractional answer into weighted paths and into a random integral path set.

The fractional solver pairs a primal packing loop with an LP-duality
certificate.  The primal side routes flow greedily in round-robin turns,
always along a cheapest path under exponential congestion prices and never
beyond residual capacity, so the held flow is feasible at every moment and
nothing is lost to rescaling.  The dual side uses the bound

    OPT <= D(l) / alpha(l),   D(l) = sum_e l(e) cap(e),
                              alpha(l) = min_i shortest_path_i(l)

which is valid for any positive prices l (every accepted unit travels a path
of price >= alpha while the total price volume a feasible flow can pay is at
most D).  Evaluating it on the exponential prices of the final loads, plus
the trivial bounds (request count, origin out-capacity cut), gives a
certified optimality gap that is real whatever the loop dynamics did.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .grid import GridPath, request_origin
from .model import PacketRequest, request_rng

__all__ = [
    "FractionalMCF",
    "MaxFlow",
    "SingleFlow",
    "decompose",
    "max_throughput_mcf",
    "randomized_round",
]


# ---------------------------------------------------------------------------
# Exact max flow (Dinic) for the small per-tile problems.

class MaxFlow:
    """Dinic's algorithm with integer capacities and a min-cut self-check.

    ``add_edge`` returns a handle; after ``max_flow`` the routed amount on
    that edge is available through ``flow_on``.
    """

    def __init__(self, n: int):
        self.n = n
        # edge = [head, remaining capacity, reverse index, original capacity]
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> tuple[int, int]:
        if cap < 0:
            raise ValueError(f"negative capacity {cap}")
        self.adj[u].append([v, cap, len(self.adj[v]), cap])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1, 0])
        return (u, len(self.adj[u]) - 1)

    def flow_on(self, handle: tuple[int, int]) -> int:
        u, i = handle
        e = self.adj[u][i]
        return e[3] - e[1]

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                if e[1] > 0 and level[e[0]] < 0:
                    level[e[0]] = level[u] + 1
                    queue.append(e[0])
        return level if level[t] >= 0 else None

    def _augment(self, u: int, t: int, limit: int, level: list[int],
                 it: list[int]) -> int:
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            if e[1] > 0 and level[e[0]] == level[u] + 1:
                got = self._augment(e[0], t, min(limit, e[1]), level, it)
                if got > 0:
                    e[1] -= got
                    self.adj[e[0]][e[2]][1] += got
                    return got
            it[u] += 1
        return 0

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                if e[1] > 0 and e[0] not in seen:
                    seen.add(e[0])
                    queue.append(e[0])
        return seen

    def max_flow(self, s: int, t: int) -> int:
        if s == t:
            raise ValueError("source equals sink")
        total = 0
        while (level := self._levels(s, t)) is not None:
            it = [0] * self.n
            while (got := self._augment(s, t, 1 << 60, level, it)) > 0:
                total += got
        # cross-check against the min cut induced by residual reachability
        side = self.residual_reachable(s)
        cut = sum(e[3] for u in side for e in self.adj[u]
                  if e[0] not in side and e[3] > 0)
        if cut != total:
            raise AssertionError(f"max-flow/min-cut mismatch: {total} vs {cut}")
        return total


# ---------------------------------------------------------------------------
# Fractional throughput.

@dataclass(frozen=True)
class SingleFlow:
    """Scaled flow of one request: total amount and per-edge values.

    Edge keys are ``(kind, row, col)`` with kind ``"s"`` or ``"f"`` and the
    tail cell in untilted coordinates.
    """

    request: PacketRequest
    amount: float
    edges: dict[tuple[str, int, int], float]


@dataclass(frozen=True)
class FractionalMCF:
    flows: tuple[SingleFlow, ...]
    dual_bound: float
    congestion: float
    cert_gap: float
    dp_count: int
    budget_exhausted: bool
    certified: bool

    @property
    def throughput(self) -> float:
        return sum(f.amount for f in self.flows)


_SATURATED = 1e-12     # residual below cap * this counts as full

# blocked edges get a huge finite price instead of +inf: the window DP sums
# prices along rows, and inf - inf would turn the prefix-minimum pass into
# nan poison.  Real path prices stay far below the detection threshold.
_BLOCKED = 1e30
_BLOCKED_ABOVE = 1e28


class _PackState:
    """Loads, residual-aware prices and per-request windows on the grid."""

    def __init__(self, n: int, reqs: Sequence[PacketRequest], hops: list[int],
                 store_cap: float, fwd_cap: float, eta: float):
        self.n = n
        self.store_cap = store_cap
        self.fwd_cap = fwd_cap
        self.eta = eta
        cols0 = [r.t - r.a for r in reqs]
        slacks = [hops[i] - r.distance for i, r in enumerate(reqs)]
        self.off = min(cols0)
        self.W = max(c0 + s for c0, s in zip(cols0, slacks)) - self.off + 1
        self.gcol0 = [c0 - self.off for c0 in cols0]
        self.slack = slacks

        self.store_mask = np.zeros((n, max(self.W - 1, 0)), dtype=bool)
        self.fwd_mask = np.zeros((n - 1, self.W), dtype=bool)
        for i, r in enumerate(reqs):
            g0, s = self.gcol0[i], self.slack[i]
            # stores are never taken in the destination row (paths end on the
            # first touch of row b), so their usable band stops at b-1
            if s > 0:
                self.store_mask[r.a:r.b, g0:g0 + s] = True
            self.fwd_mask[r.a:r.b, g0:g0 + s + 1] = True
        self.store_load = np.zeros_like(self.store_mask, dtype=float)
        self.fwd_load = np.zeros_like(self.fwd_mask, dtype=float)
        # prices exp(eta (load/cap - 1))/cap on usable edges, +inf elsewhere
        # and on saturated edges; the +inf doubles as the residual filter
        base_s = math.exp(-eta) / store_cap
        base_f = math.exp(-eta) / fwd_cap
        self.store_cost = np.where(self.store_mask, base_s, _BLOCKED)
        self.fwd_cost = np.where(self.fwd_mask, base_f, _BLOCKED)

    def store_residual(self, p: tuple[int, int]) -> float:
        return self.store_cap - self.store_load[p]

    def fwd_residual(self, p: tuple[int, int]) -> float:
        return self.fwd_cap - self.fwd_load[p]

    def add_load(self, kind: str, p: tuple[int, int], q: float) -> None:
        if kind == "s":
            self.store_load[p] += q
            res = self.store_cap - self.store_load[p]
            if res <= self.store_cap * _SATURATED:
                self.store_cost[p] = _BLOCKED
            else:
                self.store_cost[p] = math.exp(
                    self.eta * (self.store_load[p] / self.store_cap - 1.0)) / self.store_cap
        else:
            self.fwd_load[p] += q
            res = self.fwd_cap - self.fwd_load[p]
            if res <= self.fwd_cap * _SATURATED:
                self.fwd_cost[p] = _BLOCKED
            else:
                self.fwd_cost[p] = math.exp(
                    self.eta * (self.fwd_load[p] / self.fwd_cap - 1.0)) / self.fwd_cap

    def prices_at(self, eta: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Unmasked exponential prices for the dual bound, plus their volume."""
        store_p = np.where(
            self.store_mask,
            np.exp(eta * (self.store_load / self.store_cap - 1.0)) / self.store_cap,
            _BLOCKED)
        fwd_p = np.where(
            self.fwd_mask,
            np.exp(eta * (self.fwd_load / self.fwd_cap - 1.0)) / self.fwd_cap,
            _BLOCKED)
        volume = (float(store_p[self.store_mask].sum()) * self.store_cap
                  + float(fwd_p[self.fwd_mask].sum()) * self.fwd_cap)
        return store_p, fwd_p, volume


def _window_shortest(store_cost: np.ndarray, fwd_cost: np.ndarray,
                     req: PacketRequest, g0: int, s: int) -> tuple[float, int, np.ndarray]:
    """Cheapest-path DP over one request's window under the given prices.

    Rows sweep top-down; within a row the prefix-minimum trick folds all
    store chains in one vector pass.  The destination row admits no stores
    (paths end on their first touch of row b).  Returns the best end value,
    its column, and the full table for backtracking.
    """
    d = req.distance
    dist = np.empty((d + 1, s + 1))
    dist[0, 0] = 0.0
    if s > 0:
        np.cumsum(store_cost[req.a, g0:g0 + s], out=dist[0, 1:])
    for k in range(1, d):
        row = req.a + k
        enter = dist[k - 1] + fwd_cost[row - 1, g0:g0 + s + 1]
        if s > 0:
            seg = np.empty(s + 1)
            seg[0] = 0.0
            np.cumsum(store_cost[row, g0:g0 + s], out=seg[1:])
            low = enter - seg
            np.minimum.accumulate(low, out=low)
            dist[k] = low + seg
        else:
            dist[k] = enter
    dist[d] = dist[d - 1] + fwd_cost[req.b - 1, g0:g0 + s + 1]
    j = int(np.argmin(dist[d]))
    return float(dist[d, j]), j, dist


def _backtrack(store_cost: np.ndarray, fwd_cost: np.ndarray,
               req: PacketRequest, g0: int, dist: np.ndarray, j: int) -> str:
    moves = ["f"]
    k = req.distance - 1
    while k > 0 or j > 0:
        up = (dist[k - 1, j] + fwd_cost[req.a + k - 1, g0 + j]
              if k > 0 else math.inf)
        left = (dist[k, j - 1] + store_cost[req.a + k, g0 + j - 1]
                if j > 0 else math.inf)
        if up <= left:
            moves.append("f")
            k -= 1
        else:
            moves.append("s")
            j -= 1
    moves.reverse()
    return "".join(moves)


def max_throughput_mcf(requests: Sequence[PacketRequest], n: int,
                       store_cap: float, fwd_cap: float,
                       hop_bounds: int | Mapping[int, int], *,
                       eps: float = 0.05,
                       dp_budget: int | None = None) -> FractionalMCF:
    """Fractionally accept as many requests as possible.

    Maximizes ``sum_i |f_i|`` subject to: at most ``store_cap`` total flow on
    every store edge and ``fwd_cap`` on every forward edge, ``|f_i| <= 1``,
    and every path of request i using at most ``hop_bounds[i]`` actions
    (enforced structurally through the per-request column window).

    The returned flow respects all capacities exactly (no rescaling step).
    ``dual_bound`` is always a true upper bound on the fractional optimum;
    ``cert_gap`` is the certified relative gap between the two, and
    ``certified`` says whether it came in under ``eps``.  ``dp_budget``
    limits the number of cheapest-path computations spent on routing.
    """
    if store_cap <= 0 or fwd_cap <= 0:
        raise ValueError("capacities must be positive")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    reqs = sorted(requests, key=lambda r: r.id)
    M = len(reqs)
    if M == 0:
        return FractionalMCF((), 0.0, 0.0, 0.0, 0, False, True)
    if len({r.id for r in reqs}) != M:
        raise ValueError("duplicate request ids")
    hops = []
    for r in reqs:
        h = hop_bounds if isinstance(hop_bounds, int) else hop_bounds[r.id]
        if h < r.distance:
            raise ValueError(f"request {r.id}: hop bound {h} below distance {r.distance}")
        hops.append(h)
    if dp_budget is None:
        dp_budget = 12 * M + 2000

    state = _PackState(n, reqs, hops, store_cap, fwd_cap, eta=1.0)
    m_edges = int(state.store_mask.sum() + state.fwd_mask.sum()) + M
    eta = math.log(max(m_edges, 2) / min(eps, 0.5))
    state.eta = eta
    base_s = math.exp(-eta) / store_cap
    base_f = math.exp(-eta) / fwd_cap
    state.store_cost[state.store_mask] = base_s
    state.fwd_cost[state.fwd_mask] = base_f

    raw = np.zeros(M)
    per_edges: list[dict[tuple[str, int, int], float]] = [dict() for _ in range(M)]

    # trivial dual bounds: request count and the origin out-capacity cut
    origin_count: dict[tuple[int, int], int] = {}
    for r in reqs:
        o = request_origin(r)
        origin_count[o] = origin_count.get(o, 0) + 1
    origin_cut = sum(min(float(cnt), store_cap + fwd_cap)
                     for cnt in origin_count.values())
    dual_best = min(float(M), origin_cut)

    dp_count = 0
    budget_out = False
    active = deque(range(M))
    while active:
        if dp_count >= dp_budget:
            budget_out = True
            break
        i = active.popleft()
        r = reqs[i]
        g0, s = state.gcol0[i], state.slack[i]
        best, j, dist = _window_shortest(state.store_cost, state.fwd_cost, r, g0, s)
        dp_count += 1
        if best >= _BLOCKED_ABOVE:
            continue  # no residual path left; permanently blocked
        moves = _backtrack(state.store_cost, state.fwd_cost, r, g0, dist, j)
        # quantum: bounded by the residual along the path and the demand
        quantum = 1.0 - raw[i]
        row, col = r.a, g0
        for mv in moves:
            if mv == "s":
                quantum = min(quantum, state.store_residual((row, col)))
                col += 1
            else:
                quantum = min(quantum, state.fwd_residual((row, col)))
                row += 1
        if quantum <= 0.0:
            continue
        row, col = r.a, g0
        edges = per_edges[i]
        for mv in moves:
            state.add_load(mv, (row, col), quantum)
            key = (mv, row, col + state.off)
            edges[key] = edges.get(key, 0.0) + quantum
            if mv == "s":
                col += 1
            else:
                row += 1
        raw[i] += quantum
        if raw[i] < 1.0 - 1e-12:
            active.append(i)

    primal = float(raw.sum())
    # dual sweeps on a small ladder of price sharpnesses; every candidate is
    # a valid bound, the sharpness only decides how tight it comes out
    for eta_d in (eta, 2.0 * eta):
        store_p, fwd_p, volume = state.prices_at(eta_d)
        virt_p = np.exp(eta_d * (raw - 1.0))
        volume += float(virt_p.sum())
        alpha = math.inf
        for i, r in enumerate(reqs):
            best, _, _ = _window_shortest(store_p, fwd_p, r, state.gcol0[i],
                                          state.slack[i])
            dp_count += 1
            alpha = min(alpha, best + float(virt_p[i]))
        if 0 < alpha < _BLOCKED_ABOVE:
            dual_best = min(dual_best, volume / alpha)
    dual_best = max(dual_best, primal)

    cert_gap = 0.0 if dual_best <= 0 else max(0.0, 1.0 - primal / dual_best)
    congestion = 0.0
    if state.store_mask.any():
        congestion = max(congestion,
                         float(state.store_load[state.store_mask].max()) / store_cap)
    if state.fwd_mask.any():
        congestion = max(congestion,
                         float(state.fwd_load[state.fwd_mask].max()) / fwd_cap)

    flows = []
    for i, r in enumerate(reqs):
        flows.append(SingleFlow(request=r, amount=float(min(raw[i], 1.0)),
                                edges=dict(per_edges[i])))
    return FractionalMCF(tuple(flows), dual_best, congestion, cert_gap,
                         dp_count, budget_out, cert_gap <= eps + 1e-12)


# ---------------------------------------------------------------------------
# Fractional flow -> paths.

def decompose(flow: SingleFlow, tol: float = 1e-12) -> list[tuple[float, GridPath]]:
    """Split one request's flow into weighted origin-to-destination paths.

    Greedy stripping along the largest remaining out-edge; the support is a
    DAG so this terminates, clearing at least one edge per path.
    """
    r = flow.request
    origin = request_origin(r)
    edges = {k: v for k, v in flow.edges.items() if v > tol}
    out: list[tuple[float, GridPath]] = []
    guard = len(edges) + 2
    while edges and guard:
        guard -= 1
        row, col = origin
        moves = []
        weight = math.inf
        while row < r.b:
            wf = edges.get(("f", row, col), 0.0)
            ws = edges.get(("s", row, col), 0.0)
            if max(wf, ws) <= 0.0:
                moves = []
                break
            if wf >= ws:
                moves.append("f")
                weight = min(weight, wf)
            else:
                moves.append("s")
                weight = min(weight, ws)
            if moves[-1] == "f":
                row += 1
            else:
                col += 1
        if not moves:
            break
        path_row, path_col = origin
        for mv in moves:
            key = (mv, path_row, path_col)
            left = edges[key] - weight
            if left > tol:
                edges[key] = left
            else:
                del edges[key]
            if mv == "s":
                path_col += 1
            else:
                path_row += 1
        out.append((weight, GridPath(origin[0], origin[1], "".join(moves))))
    return out


def randomized_round(mcf: FractionalMCF, master_seed: int,
                     tol: float = 1e-12) -> dict[int, GridPath]:
    """Round a fractional answer to one random path per accepted request.

    Every request uses its own random stream (``request_rng``), drawing first
    the acceptance coin (success probability ``|f_i|``) and then one uniform
    per step of the flow-proportional walk.  Results therefore do not depend
    on the set or order of other requests.  For each support edge e,
    ``Pr[e on the rounded path] = f_i(e)``.
    """
    accepted: dict[int, GridPath] = {}
    for sf in mcf.flows:
        if sf.amount <= tol:
            continue
        rng = request_rng(master_seed, sf.request.id)
        if rng.random() >= min(sf.amount, 1.0):
            continue
        row, col = request_origin(sf.request)
        moves = []
        while row < sf.request.b:
            wf = sf.edges.get(("f", row, col), 0.0)
            ws = sf.edges.get(("s", row, col), 0.0)
            total = wf + ws
            # conservation can leave a dust-sized deficit at a cell the walk
            # reaches with dust-sized probability; forwarding is then the
            # only choice that still terminates
            if total <= 0.0 or rng.random() < wf / total:
                moves.append("f")
                row += 1
            else:
                moves.append("s")
                col += 1
        o_row, o_col = request_origin(sf.request)
        accepted[sf.request.id] = GridPath(o_row, o_col, "".join(moves))
    return accepted
