"""Flow machinery on the untilted grid.

Three layers live here.  ``MaxFlow`` is a plain Dinic implementation for the
small integral routing problems (per-tile quadrant admission); it re-checks
every answer against the residual min cut.  ``max_throughput_mcf`` is the
fractional solver: it maximizes the number of fractionally accepted requests
subject to per-edge capacities, a per-request cap of one unit, and a
per-request hop budget, and keeps each request's flow as the weighted paths
it routed.  ``randomized_round`` turns the fractional answer into a random
integral path set by picking one of those paths per accepted request.

``origin_cut`` is the closed-form bound behind both the solver's trivial
dual bound and the upper bound printed next to every schedule
(``pipeline.fractional_upper_bound``): a path leaves its origin cell
through that cell's store or forward edge, so one cell sends out at most
``store_cap + fwd_cap`` units, whatever the path lengths.

The fractional solver pairs a primal packing loop with an LP-duality
certificate.  The primal side routes flow greedily in round-robin turns,
each along the fewest-store open path of the request's window, and never
beyond residual capacity, so the held flow is feasible at every moment and
nothing is lost to rescaling.  ``_PackState`` keeps one Python ``int`` per
grid column of open store edges and one of open forward edges, bit = row,
and clears an edge's bit when a route saturates it.  ``_PackState.open_path``
fills the window's reachable cells column by column from these bitsets, a
few big-integer operations per column in the bit-parallel style of Myers
(JACM 1999), and stops at the first column that reaches the destination
row: a path ending in window column ``j`` takes ``j`` stores.  It walks the
path back from there.  Most paths take few stores, so a fill costs far
fewer steps than the window has rows.  A turn whose window holds no open
path drops its request for good, since edges only ever fill.
``_PackState.route`` then pushes the turn's flow a column run at a time:
such a path is one forward run per window column joined by single stores,
so its loads are one column slice per run and one scalar per store.  It
adds the quantum into them in place, the same float additions a per-edge
scatter makes, and clears a run whose edges all fill with one bit mask.
The solver keeps each route as one ``(quantum, GridPath)`` pair, which is
all rounding reads; a flow's per-edge map (``SingleFlow.edges``) is summed
from its paths only when something reads it, and no solve path does.

Why fewest stores.  In the pipeline both capacities are ``C = lam min(B, c)
<= 1/2``.  While every edge load is 0 or ``C``, a route pushes
``min(demand, C)`` and saturates its whole path, whose first edge is one of
the origin cell's two out-edges.  So a request routes at most twice, its
demand before either route is 1 or ``1 - C >= C``, and every route pushes a
full ``C``, which keeps every load at 0 or ``C``.  Congestion prices then
price all open edges alike, and a cheapest open path is a fewest-store one.
Calls with other capacities use the same rule; their flow stays feasible
and the certificate below stays valid.

The dual side uses the bound

    OPT <= D(l) / alpha(l),   D(l) = sum_e l(e) cap(e),
                              alpha(l) = min_i shortest_path_i(l)

which is valid for any positive prices l (every accepted unit travels a path
of price >= alpha while the total price volume a feasible flow can pay is at
most D).  Evaluating it on the exponential prices of the final loads, plus
the trivial bounds (request count, ``origin_cut``), gives a certified
optimality gap that is real whatever the loop dynamics did.  ``eps`` sets
those prices' sharpness and the gap under which a solve counts as
certified.

A dual sweep runs one cheapest-path DP per request over its window, a band
of grid rows ``a..b-1`` and ``hop budget - distance + 1`` columns
(``_window_shortest``), and runs only when it could lower the bound
(``_sweep_can_lower``).  Each request's all-forward path lies in its window,
and its price, summed in the DP's own order, bounds the DP's best value
from above in floats.  So when ``volume / min(straight + virt)`` is no
lower than the bound in hand, neither is ``volume / alpha``, and skipping
the sweep leaves every bit of the bound as it was.  On long bands
``volume / alpha`` tends to be many times ``origin_cut``, so the sweep is
almost always skipped there.  The prices are taken over the masked edges
only, and the store price grid, which only the sweep reads, is built only
for a sweep that runs.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .grid import GridPath, request_origin
from .model import PacketRequest, SolverInvariantError, request_rng

__all__ = [
    "FractionalMCF",
    "MaxFlow",
    "SingleFlow",
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
    """Scaled flow of one request: total amount and weighted paths.

    ``paths`` holds ``(quantum, GridPath)`` pairs in route order.  ``edges``
    maps each edge key ``(kind, row, col)``, kind ``"s"`` or ``"f"`` and the
    tail cell in untilted coordinates, to the summed quanta of the paths
    through it.  It is built on first read and kept: the quanta are added
    path by path in route order, each path's edges in path order.  No solve
    path reads it; rounding picks whole paths.
    """

    request: PacketRequest
    amount: float
    paths: tuple[tuple[float, GridPath], ...]

    @cached_property
    def edges(self) -> dict[tuple[str, int, int], float]:
        out: dict[tuple[str, int, int], float] = {}
        for quantum, path in self.paths:
            for key in path.edges():
                out[key] = out.get(key, 0.0) + quantum
        return out


@dataclass(frozen=True)
class FractionalMCF:
    """What ``max_throughput_mcf`` found; ``dp_count`` counts the window
    DPs of the dual sweeps, since packing turns run none."""

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

# the window DP's price for an unusable edge, which _price_grid gives every
# edge outside the masks: a huge finite price instead of +inf, since the DP
# sums prices along rows and inf - inf would turn the prefix-minimum pass
# into nan poison.  A window with a path of other edges prices it below the
# threshold, so whether a cell is reachable reads true.  Its price may not:
# right of a blocked store, (enter - seg) + seg loses the entering price in
# _BLOCKED's ulp (about 1.4e14).  No solve reads such a cell: a dual sweep's
# windows lie inside the masks, and packing reads the open bitsets, not prices
_BLOCKED = 1e30
_BLOCKED_ABOVE = 1e28

# the packing loop stops after this many turns
_TURNS_PER_REQUEST, _TURNS_BASE = 12, 2000


class _PackState:
    """Loads, open-edge bitsets and per-request windows on the grid.

    ``eta``, the sharpness of the dual sweeps' prices
    ``exp(eta (load/cap - 1))/cap``, is set from ``eps`` and the number of
    usable edges.
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
        # edge kind -> residual bitsets, one Python int per grid column with
        # bit = row, set while the edge is usable and not saturated
        self.open = {"s": _row_bits(self.store_mask.T), "f": _row_bits(self.fwd_mask.T)}

    def route(self, row: int, col: int, moves: str, demand: float) -> float:
        """Push up to ``demand`` units along one window path, as far as its
        residual allows, and clear the open bits of the edges it saturates.

        Returns the amount, 0 if the path has no residual.

        The path is walked a column run at a time: ``moves.split("s")`` gives
        one forward run per column, and a store leaves the last row of every
        run but the final one.  A run's loads are one column slice, read and
        updated in place, and a store's is one scalar.  Since ``cap - load``
        only falls as ``load`` grows, also in floats, ``cap - slice.max()``
        is the run's smallest residual and ``cap - slice.min()`` its largest,
        so the quantum and the saturation test need no per-edge arrays, and
        adding the quantum into each slice does the same float additions as
        a per-edge scatter.  A run whose every edge saturates clears its open
        bits with one mask; only a partly saturated run, which needs loads
        other than 0 or one quantum (caps above 1/2), clears them bit by bit.
        """
        fwd_load, store_load = self.fwd_load, self.store_load
        fcap, scap = self.fwd_cap, self.store_cap
        runs = []  # per column: the forward run's first and end row
        r0 = row
        for c, run in enumerate(moves.split("s"), col):
            runs.append((r0, r0 + len(run), c))
            r0 += len(run)
        quantum = demand
        for r0, r1, c in runs:
            if r1 > r0:
                quantum = min(quantum, fcap - fwd_load[r0:r1, c].max())
        for _, r1, c in runs[:-1]:
            quantum = min(quantum, scap - store_load[r1, c])
        if quantum <= 0.0:
            return 0.0
        f_full, s_full = fcap * _SATURATED, scap * _SATURATED
        f_bits, s_bits = self.open["f"], self.open["s"]
        for r0, r1, c in runs:
            if r1 > r0:
                span = fwd_load[r0:r1, c]
                span += quantum
                if fcap - span.min() <= f_full:
                    f_bits[c] &= ~(((1 << (r1 - r0)) - 1) << r0)
                elif fcap - span.max() <= f_full:
                    for r in np.flatnonzero(fcap - span <= f_full).tolist():
                        f_bits[c] &= ~(1 << (r0 + r))
        for _, r1, c in runs[:-1]:
            x = store_load[r1, c] + quantum
            store_load[r1, c] = x
            if scap - x <= s_full:
                s_bits[c] &= ~(1 << r1)
        return quantum

    def open_path(self, req: PacketRequest, g0: int, s: int) -> str | None:
        """Moves of the request's fewest-store path of open edges, or None
        when its window holds no such path.

        A forward fill of the reachable window cells, column by column from
        the origin's, with bit ``k`` for window row ``a + k``; ``x`` starts
        each column as its cells entered from the left.  Open forward edges
        carry a column's cells down within runs: ``e`` marks the runs'
        cells entered from a reached cell, and adding ``e`` to the run mask
        ``m`` clears each run from its first entered cell on, so
        ``m & ~(m + e)`` holds those cells except any second entered cell
        of a run, which ``e`` itself supplies.  Open stores then carry the
        cells right a column.  A path ending in window column ``j`` takes
        ``j`` stores, so the fill stops at the first column that reaches the
        destination row, after as many columns as the path has stores plus
        one.

        The walk back from the destination cell goes up while its cell was
        entered from above and left otherwise: it climbs each column to the
        nearest cell up that was not entered from above, and takes the store
        into that cell.  Ties among fewest-store paths thus go to the one
        whose stores come earliest.
        """
        a, d = req.a, req.distance
        full = (1 << d) - 1
        store, fwd = self.open["s"], self.open["f"]
        last = g0 + s
        above = []  # per column: its cells entered from above
        x = 1
        for col in range(g0, last + 1):
            m = ((fwd[col] >> a) & full) << 1
            e = (x << 1) & m
            x |= e | (m & ~(m + e))
            above.append((x << 1) & m)
            if x >> d:
                break
            x &= store[col] >> a if col < last else 0  # no stores leave the window
            if not x:
                return None
        k = d
        runs = []
        for up in reversed(above):
            top = (~up & ((2 << k) - 1)).bit_length() - 1
            runs.append("f" * (k - top))
            k = top
        runs.reverse()
        return "s".join(runs)

    def prices_at(self, eta: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Exponential prices of the usable edges for the dual bound.

        Returns the store prices of the masked edges in row-major order, the
        forward price grid with ``_BLOCKED`` off the mask, and the price
        volume.  ``exp`` runs over the masked loads only; the store grid is
        left to ``_price_grid``, for the rare dual sweep that reads it.
        """
        prices, volume = [], 0.0
        for mask, load, cap in ((self.store_mask, self.store_load, self.store_cap),
                                (self.fwd_mask, self.fwd_load, self.fwd_cap)):
            price = np.exp(eta * (load[mask] / cap - 1.0)) / cap
            volume += float(price.sum()) * cap
            prices.append(price)
        return prices[0], _price_grid(self.fwd_mask, prices[1]), volume


def _price_grid(mask: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """The grid of ``mask``'s shape with ``prices`` on it and ``_BLOCKED``
    elsewhere."""
    grid = np.full(mask.shape, _BLOCKED)
    grid[mask] = prices
    return grid


def _row_bits(mask: np.ndarray) -> list[int]:
    """One Python int per row of a boolean array, bit ``j`` for column ``j``.

    Rows without a set bit, which no request's window reaches, cost nothing.
    """
    bits = [0] * len(mask)
    packed = np.packbits(mask, axis=1, bitorder="little")
    k, raw = packed.shape[1], packed.tobytes()
    for row in np.flatnonzero(packed.any(axis=1)).tolist():
        bits[row] = int.from_bytes(raw[row * k:row * k + k], "little")
    return bits


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


def _window_shortest(store_p: np.ndarray, fwd_p: np.ndarray,
                     req: PacketRequest, g0: int, s: int):
    """Cheapest-path DP over one request's window under the given prices.

    Table row ``k`` holds the cheapest price of reaching each window cell of
    grid row ``a + k``.  Rows sweep top-down: a row enters from the row above
    through the forward edges, then the prefix-minimum trick folds all store
    chains in one pass, ``min.accumulate(enter - seg) + seg`` with ``seg``
    the running sum of the row's store prices.  The destination row admits
    no stores (paths end on their first touch of row b).  The rows run as
    numpy calls writing into one table (``_rows_numpy``).

    Returns the best end value, its column and the table.
    """
    return _rows_numpy(store_p[req.a:req.b, g0:g0 + s],
                       fwd_p[req.a:req.b, g0:g0 + s + 1])


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
    after ``12 M + 2000`` packing turns (``budget_exhausted``).  Each turn
    routes the fewest-store open path of its window (module docstring), so
    ``eps`` sets only the dual sweeps' price sharpness and the ``certified``
    threshold.  ``dp_count`` counts the dual sweeps' cheapest-path DPs, ``M``
    for each of the two sweeps that ran; packing turns run no DP.
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
    routes: list[list[tuple[float, GridPath]]] = [[] for _ in range(M)]

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
        g0 = state.gcol0[i]
        moves = state.open_path(r, g0, state.slack[i])
        if moves is None:
            continue  # no residual path left; edges only fill, so for good
        # quantum: bounded by the residual along the path and the demand
        quantum = state.route(r.a, g0, moves, 1.0 - raw[i])
        if quantum > 0.0:
            routes[i].append((quantum, GridPath(r.a, g0 + state.off, moves)))
        raw[i] += quantum
        if raw[i] < 1.0 - 1e-12:
            active.append(i)

    primal = float(raw.sum())
    # dual sweeps on a small ladder of price sharpnesses; every candidate is
    # a valid bound, the sharpness only decides how tight it comes out
    for eta_d in (eta, 2.0 * eta):
        store_prices, fwd_p, volume = state.prices_at(eta_d)
        virt_p = np.exp(eta_d * (raw - 1.0))
        volume += float(virt_p.sum())
        if not _sweep_can_lower(fwd_p, reqs, state.gcol0, virt_p, volume, dual_best):
            continue
        store_p = _price_grid(state.store_mask, store_prices)
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

    flows = tuple(SingleFlow(request=r, amount=float(min(raw[i], 1.0)),
                             paths=tuple((float(q), p) for q, p in routes[i]))
                  for i, r in enumerate(reqs))
    return FractionalMCF(flows, dual_best, congestion, cert_gap,
                         dp_count, budget_out, cert_gap <= eps + 1e-12)


# ---------------------------------------------------------------------------
# Fractional flow -> one path per request.

def randomized_round(flows: Iterable[SingleFlow], master_seed: int,
                     tol: float = 1e-12) -> dict[int, GridPath]:
    """Round fractional flows to one random path per accepted request.

    Every request uses its own random stream (``request_rng``), drawing first
    the acceptance coin (success probability ``|f_i|``) and then one uniform
    that picks route k of its ``paths`` with probability ``q_k / sum q``, in
    route order: a pick from the flow's path decomposition (Raghavan and
    Thompson, Combinatorica 1987), so ``Pr[e on the rounded path] = f_i(e)``
    for each edge e.  Results do not depend on the set or order of other
    requests.  A positive amount on no path raises ``ValueError``.
    """
    accepted: dict[int, GridPath] = {}
    for sf in flows:
        if sf.amount <= tol:
            continue
        if not sf.paths:
            raise ValueError(f"request {sf.request.id}: amount {sf.amount} on no path")
        rng = request_rng(master_seed, sf.request.id)
        if rng.random() >= min(sf.amount, 1.0):
            continue
        pick = rng.random() * sum(q for q, _ in sf.paths)
        # a pick that float rounding leaves at or past the sum takes the last route
        for q, path in sf.paths:
            pick -= q
            if pick < 0.0:
                break
        accepted[sf.request.id] = path
    return accepted
