"""Flow machinery on the untilted grid.

Three layers live here.  ``MaxFlow`` is a plain Dinic implementation for the
small integral routing problems (per-tile quadrant admission); it re-checks
every answer against the residual min cut.  ``max_throughput_mcf`` is the
fractional solver: it maximizes the number of fractionally accepted requests
subject to per-edge capacities, a per-request cap of one unit, and a
per-request hop budget.  ``decompose`` and ``randomized_round`` turn the
fractional answer into weighted paths and into a random integral path set;
both walk a request's flow from its origin with one shared walker
(``_walk``) and differ only in how they pick the next move.

``origin_cut`` is the closed-form bound behind both the solver's trivial
dual bound and the upper bound printed next to every schedule
(``pipeline.fractional_upper_bound``): a path leaves its origin cell
through that cell's store or forward edge, so one cell sends out at most
``store_cap + fwd_cap`` units, whatever the path lengths.

The fractional solver pairs a primal packing loop with an LP-duality
certificate.  The primal side routes flow greedily in round-robin turns,
along the path its window DP picks under exponential congestion prices and
never beyond residual capacity, so the held flow is feasible at every moment
and nothing is lost to rescaling.  That path is not always a cheapest one:
the DP misprices cells right of a saturated store (see ``_BLOCKED``).  The
dual side uses the bound

    OPT <= D(l) / alpha(l),   D(l) = sum_e l(e) cap(e),
                              alpha(l) = min_i shortest_path_i(l)

which is valid for any positive prices l (every accepted unit travels a path
of price >= alpha while the total price volume a feasible flow can pay is at
most D).  Evaluating it on the exponential prices of the final loads, plus
the trivial bounds (request count, ``origin_cut``), gives a certified
optimality gap that is real whatever the loop dynamics did.

Both sides spend their time in one cheapest-path DP over a request's
window, a band of grid rows ``a..b-1`` and ``hop budget - distance + 1``
columns (``_window_shortest``).  The packing loop runs one per turn whose
window still holds a path of open edges, since every routed path reprices
the grid.  A routed path tends to push a full quantum and so saturate every
edge on it, and then many turns find no such path.  ``_PackState`` keeps one
Python ``int`` per grid row of open store edges and one of open forward
edges, bit = column, and clears an edge's bit in the step that prices it
``_BLOCKED``; ``_PackState.reachable`` fills the window's reachable cells
row by row from these bitsets, a few big-integer operations per row against
a numpy DP's row of cells.  Skipping a turn it finds unreachable is exact:
every path through such a window prices at least one ``_BLOCKED`` edge, and
the DP's rounding errors stay many orders of magnitude below
``_BLOCKED_ABOVE``, so the DP would report ``best >= _BLOCKED_ABOVE`` and
the loop would drop the request just the same.

A dual sweep, one DP per request, runs only when it could lower the bound
(``_sweep_can_lower``).  Each request's all-forward path lies in its window,
and its price, summed in the DP's own order, bounds the DP's best value
from above in floats.  So when ``volume / min(straight + virt)`` is no
lower than the bound in hand, neither is ``volume / alpha``, and skipping
the sweep leaves every bit of the bound as it was.  On long bands ``volume / alpha`` tends to be many times
``origin_cut``, so the sweep is almost always skipped there.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .grid import GridPath, request_origin
from .model import PacketRequest, SolverInvariantError, request_rng

__all__ = [
    "FractionalMCF",
    "MaxFlow",
    "SingleFlow",
    "decompose",
    "max_throughput_mcf",
    "origin_cut",
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
            raise SolverInvariantError(f"max-flow/min-cut mismatch: {total} vs {cut}")
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
# nan poison.  Real path prices stay far below the detection threshold, so
# whether a cell is reachable reads true.  Its price may not: right of a
# blocked store, (enter - seg) + seg loses the entering price in _BLOCKED's
# ulp (about 1.4e14), and the cell reads as about 0, so the packing loop can
# route along a dearer path than the cheapest open one
_BLOCKED = 1e30
_BLOCKED_ABOVE = 1e28

# the packing loop stops after this many turns
_TURNS_PER_REQUEST, _TURNS_BASE = 12, 2000


class _PackState:
    """Loads, residual-aware prices and per-request windows on the grid.

    Prices are ``exp(eta (load/cap - 1))/cap`` with the sharpness ``eta``
    set from ``eps`` and the number of usable edges.
    """

    def __init__(self, n: int, reqs: Sequence[PacketRequest], hops: list[int],
                 store_cap: float, fwd_cap: float, eps: float):
        self.n = n
        self.store_cap = store_cap
        self.fwd_cap = fwd_cap
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
        m_edges = int(self.store_mask.sum() + self.fwd_mask.sum()) + len(reqs)
        self.eta = math.log(max(m_edges, 2) / min(eps, 0.5))
        # unloaded prices on usable edges, _BLOCKED elsewhere and on
        # saturated edges; the block doubles as the residual filter
        self.store_cost = np.where(self.store_mask,
                                   math.exp(-self.eta) / store_cap, _BLOCKED)
        self.fwd_cost = np.where(self.fwd_mask,
                                 math.exp(-self.eta) / fwd_cap, _BLOCKED)
        # edge kind -> (loads, prices, capacity)
        self.kind = {"s": (self.store_load, self.store_cost, store_cap),
                     "f": (self.fwd_load, self.fwd_cost, fwd_cap)}
        # edge kind -> residual bitsets, one Python int per grid row with
        # bit = column, set while the edge is usable and not priced _BLOCKED
        self.open = {"s": _row_bits(self.store_mask), "f": _row_bits(self.fwd_mask)}

    def route(self, row: int, col: int, moves: str,
              demand: float) -> tuple[float, list[tuple[str, int, int]]]:
        """Push up to ``demand`` units along one window path, as far as its
        residual allows, and reprice its edges.

        Returns the amount (0 if the path has no residual) and the path's
        edge keys ``(kind, row, column)`` in path order, with columns back
        in grid coordinates.  The loads and price arguments are computed
        in numpy, but each exponential is ``math.exp`` on a Python float,
        so the prices equal the one-edge-at-a-time formula bit for bit.
        """
        fwd = np.frombuffer(moves.encode(), dtype=np.uint8) == ord("f")
        rows = np.cumsum(fwd) - fwd + row
        cols = np.arange(len(moves)) + (row + col) - rows
        edges = [(k, (rows[sel], cols[sel])) for k, sel in (("s", ~fwd), ("f", fwd))]
        quantum = demand
        for k, p in edges:
            if p[0].size:
                load, _, cap = self.kind[k]
                quantum = min(quantum, (cap - load[p]).min())
        if quantum <= 0.0:
            return 0.0, []
        for k, p in edges:
            load, cost, cap = self.kind[k]
            x = load[p] + quantum
            load[p] = x
            arg = (self.eta * (x / cap - 1.0)).tolist()
            price = np.array(list(map(math.exp, arg))) / cap
            full = cap - x <= cap * _SATURATED
            price[full] = _BLOCKED
            cost[p] = price
            bits = self.open[k]
            for r, c in zip(p[0][full].tolist(), p[1][full].tolist()):
                bits[r] &= ~(1 << c)
        return quantum, list(zip(moves, rows.tolist(), (cols + self.off).tolist()))

    def reachable(self, req: PacketRequest, g0: int, s: int) -> bool:
        """Whether the request's window still holds a path of open edges.

        A forward fill of the reachable window cells, row by row, with bit
        ``j`` for window column ``j``.  Open stores carry a row's cells right
        within runs: ``e`` marks the runs' cells entered from a reached cell,
        and adding ``e`` to the run mask ``m`` clears each run from its first
        entered cell up, so ``m & ~(m + e)`` holds those cells except any
        second entered cell of a run, which ``e`` itself supplies.  Open
        forward edges then carry the cells down a row, the last time into
        the destination row.
        """
        full = (1 << (s + 1)) - 1
        store, fwd = self.open["s"], self.open["f"]
        x = 1
        for row in range(req.a, req.b):
            m = ((store[row] >> g0) << 1) & full
            e = (x << 1) & m
            x |= e | (m & ~(m + e))
            x &= fwd[row] >> g0
            if not x:
                return False
        return True

    def prices_at(self, eta: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Unmasked exponential prices for the dual bound, plus their volume."""
        prices, volume = [], 0.0
        for mask, load, cap in ((self.store_mask, self.store_load, self.store_cap),
                                (self.fwd_mask, self.fwd_load, self.fwd_cap)):
            price = np.where(mask, np.exp(eta * (load / cap - 1.0)) / cap, _BLOCKED)
            volume += float(price[mask].sum()) * cap
            prices.append(price)
        return prices[0], prices[1], volume


def _row_bits(mask: np.ndarray) -> list[int]:
    """One Python int per row of a boolean grid, bit ``j`` for column ``j``.

    Rows without a set bit, which no request's window reaches, cost nothing.
    """
    bits = [0] * len(mask)
    packed = np.packbits(mask, axis=1, bitorder="little")
    k, raw = packed.shape[1], packed.tobytes()
    for row in np.flatnonzero(packed.any(axis=1)).tolist():
        bits[row] = int.from_bytes(raw[row * k:row * k + k], "little")
    return bits


# windows of at most this many columns run their DP rows as Python floats:
# there numpy's per-call overhead outweighs its per-column speed (measured
# crossover 16-24 columns, at 20 and at 127 rows)
_SCALAR_COLS = 16


def _rows_numpy(store_w: np.ndarray, fwd_w: np.ndarray) -> tuple[float, int, np.ndarray]:
    """The window DP of ``_window_shortest`` in whole-row numpy steps."""
    d, w = fwd_w.shape
    # every row's store prefix sums in one call; row k of the table is
    # written in place by four ufunc calls
    seg = np.empty((d, w))
    seg[:, 0] = 0.0
    np.add.accumulate(store_w, axis=1, out=seg[:, 1:])
    dist = np.empty((d + 1, w))
    dist[0] = seg[0]
    add, sub, low = np.add, np.subtract, np.minimum.accumulate
    for k in range(1, d):
        row = dist[k]
        add(dist[k - 1], fwd_w[k - 1], out=row)
        sub(row, seg[k], out=row)
        low(row, out=row)
        add(row, seg[k], out=row)
    add(dist[d - 1], fwd_w[d - 1], out=dist[d])
    j = int(dist[d].argmin())
    return float(dist[d, j]), j, dist


def _rows_scalar(store_w: list[list[float]],
                 fwd_w: list[list[float]]) -> tuple[float, int, list[list[float]]]:
    """The window DP of ``_window_shortest`` one float at a time."""
    d = len(fwd_w)
    prev = [0.0]
    acc = 0.0
    for x in store_w[0]:
        acc += x
        prev.append(acc)
    dist = [prev]
    cols = range(1, len(prev))
    for k in range(1, d):
        f, st = fwd_w[k - 1], store_w[k]
        low = prev[0] + f[0]
        row = [low]
        seg = 0.0
        for j in cols:
            seg += st[j - 1]
            v = prev[j] + f[j] - seg
            if v < low:
                low = v
            row.append(low + seg)
        dist.append(row)
        prev = row
    last = [p + f for p, f in zip(prev, fwd_w[d - 1])]
    dist.append(last)
    best = min(last)
    return best, last.index(best), dist


def _window_shortest(store_cost: np.ndarray, fwd_cost: np.ndarray,
                     req: PacketRequest, g0: int, s: int):
    """Cheapest-path DP over one request's window under the given prices.

    Table row ``k`` holds the cheapest price of reaching each window cell of
    grid row ``a + k``.  Rows sweep top-down: a row enters from the row above
    through the forward edges, then the prefix-minimum trick folds all store
    chains in one pass, ``min.accumulate(enter - seg) + seg`` with ``seg``
    the running sum of the row's store prices.  The destination row admits
    no stores (paths end on their first touch of row b).

    Windows of at most ``_SCALAR_COLS`` columns run the rows as Python
    floats (``_rows_scalar``) over one ``tolist`` copy of the window's
    prices; wider ones run them as numpy calls writing into one table
    (``_rows_numpy``).  Both make the same IEEE additions, subtractions and
    comparisons in the same order, left to right along each row, so the
    table, the best value and its first-minimum column agree bit for bit.

    Returns the best end value, its column, the table, and the window's
    store and forward prices, for ``_backtrack``.
    """
    store_w = store_cost[req.a:req.b, g0:g0 + s]
    fwd_w = fwd_cost[req.a:req.b, g0:g0 + s + 1]
    if s + 1 <= _SCALAR_COLS:
        store_w, fwd_w = store_w.tolist(), fwd_w.tolist()
        return (*_rows_scalar(store_w, fwd_w), store_w, fwd_w)
    return (*_rows_numpy(store_w, fwd_w), store_w, fwd_w)


def _backtrack(dist, store_w, fwd_w, j: int) -> str:
    """Moves of the cheapest path ending in column ``j`` of a DP table."""
    moves = ["f"]
    k = len(dist) - 2
    while k > 0 or j > 0:
        up = dist[k - 1][j] + fwd_w[k - 1][j] if k > 0 else math.inf
        left = dist[k][j - 1] + store_w[k][j - 1] if j > 0 else math.inf
        if up <= left:
            moves.append("f")
            k -= 1
        else:
            moves.append("s")
            j -= 1
    moves.reverse()
    return "".join(moves)


def _sweep_can_lower(fwd_p: np.ndarray, reqs: Sequence[PacketRequest],
                     gcol0: Sequence[int], virt_p: np.ndarray, volume: float,
                     dual_best: float) -> bool:
    """Whether a dual sweep at these prices could lower ``dual_best``; the
    module docstring says why skipping it otherwise is exact."""
    straight = np.array([np.add.accumulate(fwd_p[r.a:r.b, g0])[-1]
                         for r, g0 in zip(reqs, gcol0)])
    alpha = float((straight + virt_p).min())
    return alpha > 0 and volume / alpha < dual_best


def origin_cut(requests: Iterable[PacketRequest], store_cap: float,
               fwd_cap: float) -> float:
    """Origin out-capacity cut: ``sum over origin cells of min(count, cap)``.

    Every path starts with a store or a forward edge out of its origin cell,
    so no flow, fractional or integral, of any path length takes more than
    ``store_cap + fwd_cap`` units out of one cell, and no request more than
    one.
    """
    count = Counter(request_origin(r) for r in requests)
    return sum((min(float(k), store_cap + fwd_cap) for k in count.values()), 0.0)


def max_throughput_mcf(requests: Sequence[PacketRequest], n: int,
                       store_cap: float, fwd_cap: float,
                       hop_bounds: Mapping[int, int], *,
                       eps: float = 0.05) -> FractionalMCF:
    """Fractionally accept as many requests as possible.

    Maximizes ``sum_i |f_i|`` subject to: at most ``store_cap`` total flow on
    every store edge and ``fwd_cap`` on every forward edge, ``|f_i| <= 1``,
    and every path of request i using at most ``hop_bounds[i]`` actions
    (enforced structurally through the per-request column window).

    The returned flow respects all capacities exactly (no rescaling step).
    ``dual_bound`` is always a true upper bound on the fractional optimum;
    ``cert_gap`` is the certified relative gap between the two, and
    ``certified`` says whether it came in under ``eps``.  Routing stops
    after ``12 M + 2000`` packing turns (``budget_exhausted``).
    ``dp_count`` counts the cheapest-path DPs that ran: one per packing turn
    whose window still held a path of open edges (a turn without one is
    dropped on the bitset check alone, see the module docstring), and ``M``
    for each of the two dual sweeps that ran.
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
    hops = [hop_bounds[r.id] for r in reqs]
    for r, h in zip(reqs, hops):
        if h < r.distance:
            raise ValueError(f"request {r.id}: hop bound {h} below distance {r.distance}")
    turn_budget = _TURNS_PER_REQUEST * M + _TURNS_BASE
    state = _PackState(n, reqs, hops, store_cap, fwd_cap, eps)
    eta = state.eta

    raw = np.zeros(M)
    per_edges: list[dict[tuple[str, int, int], float]] = [dict() for _ in range(M)]

    # trivial dual bounds: request count and the origin out-capacity cut
    dual_best = min(float(M), origin_cut(reqs, store_cap, fwd_cap))

    turns = dp_count = 0
    budget_out = False
    active = deque(range(M))
    while active:
        if turns >= turn_budget:
            budget_out = True
            break
        turns += 1
        i = active.popleft()
        r = reqs[i]
        g0, s = state.gcol0[i], state.slack[i]
        if not state.reachable(r, g0, s):
            continue  # no residual path left; permanently blocked
        best, j, dist, store_w, fwd_w = _window_shortest(
            state.store_cost, state.fwd_cost, r, g0, s)
        dp_count += 1
        if best >= _BLOCKED_ABOVE:
            continue  # open, but capacities so small that prices hit the threshold
        # quantum: bounded by the residual along the path and the demand
        quantum, keys = state.route(r.a, g0, _backtrack(dist, store_w, fwd_w, j),
                                    1.0 - raw[i])
        if quantum <= 0.0:
            continue
        edges = per_edges[i]
        for key in keys:
            edges[key] = edges.get(key, 0.0) + quantum
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
        if not _sweep_can_lower(fwd_p, reqs, state.gcol0, virt_p, volume, dual_best):
            continue
        best = np.array([_window_shortest(store_p, fwd_p, r, g0, s)[0]
                         for r, g0, s in zip(reqs, state.gcol0, state.slack)])
        dp_count += M  # one cheapest path per request
        alpha = float((best + virt_p).min())
        if 0 < alpha < _BLOCKED_ABOVE:
            dual_best = min(dual_best, volume / alpha)
    dual_best = max(dual_best, primal)

    cert_gap = 0.0 if dual_best <= 0 else max(0.0, 1.0 - primal / dual_best)
    congestion = 0.0
    for mask, load, cap in ((state.store_mask, state.store_load, store_cap),
                            (state.fwd_mask, state.fwd_load, fwd_cap)):
        if mask.any():
            congestion = max(congestion, float(load[mask].max()) / cap)

    flows = []
    for i, r in enumerate(reqs):
        flows.append(SingleFlow(request=r, amount=float(min(raw[i], 1.0)),
                                edges=dict(per_edges[i])))
    return FractionalMCF(tuple(flows), dual_best, congestion, cert_gap,
                         dp_count, budget_out, cert_gap <= eps + 1e-12)


# ---------------------------------------------------------------------------
# Fractional flow -> paths.

def _walk(edges: Mapping[tuple[str, int, int], float], req: PacketRequest,
          choose: Callable[[float, float], str | None]) -> GridPath | None:
    """One origin-to-destination walk through a request's flow edges.

    At every cell ``choose(wf, ws)`` gets the flow on the forward and the
    store out-edge and returns ``"f"``, ``"s"``, or None to abandon the walk.
    """
    origin = request_origin(req)
    row, col = origin
    moves = []
    while row < req.b:
        mv = choose(edges.get(("f", row, col), 0.0), edges.get(("s", row, col), 0.0))
        if mv is None:
            return None
        moves.append(mv)
        if mv == "f":
            row += 1
        else:
            col += 1
    return GridPath(*origin, "".join(moves))


def _heaviest(wf: float, ws: float) -> str | None:
    if max(wf, ws) <= 0.0:
        return None
    return "f" if wf >= ws else "s"


def decompose(flow: SingleFlow, tol: float = 1e-12) -> list[tuple[float, GridPath]]:
    """Split one request's flow into weighted origin-to-destination paths.

    Greedy stripping along the largest remaining out-edge; the support is a
    DAG so this terminates, clearing at least one edge per path.
    """
    edges = {k: v for k, v in flow.edges.items() if v > tol}
    out: list[tuple[float, GridPath]] = []
    for _ in range(len(edges) + 2):
        path = _walk(edges, flow.request, _heaviest) if edges else None
        if path is None:
            break
        weight = min(edges[e] for e in path.edges())
        for e in path.edges():
            left = edges[e] - weight
            if left > tol:
                edges[e] = left
            else:
                del edges[e]
        out.append((weight, path))
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

        # conservation can leave a dust-sized deficit at a cell the walk
        # reaches with dust-sized probability; forwarding is then the only
        # choice that still terminates
        def coin(wf: float, ws: float) -> str:
            total = wf + ws
            return "f" if total <= 0.0 or rng.random() < wf / total else "s"

        accepted[sf.request.id] = _walk(sf.edges, sf.request, coin)
    return accepted
