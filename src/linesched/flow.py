"""Flow machinery on the untilted grid.

Two layers live here.  ``max_throughput_mcf`` is the fractional solver:
it maximizes the number of fractionally accepted requests subject to
per-edge capacities, a per-request cap of one unit, and a per-request hop
budget, and keeps each request's flow as the weighted paths it routed.
``randomized_round`` turns the fractional answer into a random integral
path set by picking one of those paths per accepted request.  The integral
max flow of per-tile quadrant admission lives with its only user,
``routing.quadrant_route``.

``origin_cut`` is the closed-form bound behind both the solver's dual bound
and the upper bound printed next to every schedule
(``pipeline.fractional_upper_bound``): a path leaves its origin cell
through that cell's store or forward edge, so one cell sends out at most
``store_cap + fwd_cap`` units, whatever the path lengths.

The fractional solver is a greedy edge-disjoint path packing: the greedy
for edge-disjoint paths (Kleinberg, PhD thesis, MIT 1996), held to each
request's hop budget like the greedy for bounded-length paths (Kolliopoulos
and Stein, Math. Programming 2004).  In round-robin turns it routes each
request along the fewest-store open path of its window, pushes
``min(demand, cap)`` of each edge kind on the path, and closes every edge
of the path.  So an edge is open exactly when its load is 0, carries at
most one route, and never holds more than its capacity: the flow is
feasible at every moment and nothing is lost to rescaling.  Every route
closes one of its origin cell's two out-edges, so a request routes at most
twice and takes at most three turns; a turn whose window holds no open path
drops its request for good, since edges only ever close.

``_PackState`` keeps one Python ``int`` per grid column of open store edges
and one of open forward edges, bit = row.  Each window is a column range
with one row mask, so the bits start as those masks ORed into the nodes of
a segment tree over the columns (Bentley 1977) and pushed down to the
columns once.  ``_PackState.open_path`` fills the window's reachable cells
column by column from these bitsets, a few big-integer operations per
column in the bit-parallel style of Myers (JACM 1999), and stops at the
first column that reaches the destination row: a path ending in window
column ``j`` takes ``j`` stores.  It walks the path back from there, one
forward run per column, and returns those runs.  Most paths take few
stores, so a fill costs far fewer steps than the window has rows.  Such a
path is one forward run per window column joined by single stores, so
``_PackState.route`` closes it with one mask per run, and its move string
is spelled out once, for the kept ``GridPath``.  The solver keeps each
route as one ``(quantum, GridPath)`` pair, which is all rounding reads; a
flow's per-edge map (``SingleFlow.edges``) is summed from its paths only
when something reads it, and no solve path does.

The dual bound is ``min(M, origin_cut)``, the request count and the origin
cut, each of which bounds the fractional optimum, raised to the primal if
float rounding ever puts the primal above it.  The primal is the one sum
``FractionalMCF.throughput`` reports, so ``cert_gap`` compares the bound
with that very number.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .grid import GridPath, request_origin
from .model import PacketRequest, request_rng

__all__ = [
    "FractionalMCF",
    "SingleFlow",
    "max_throughput_mcf",
    "origin_cut",
    "randomized_round",
]


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
    """What ``max_throughput_mcf`` found.  ``cert_gap`` is
    ``1 - throughput / dual_bound``, and ``congestion`` the largest quantum
    over its edge's capacity, at most 1.  ``dp_count`` is always 0, as no
    solve runs a cheapest-path DP, and ``budget_exhausted`` is always
    ``False``, as the packing has no turn budget to exhaust; both fields
    stay because ``perfbench/layers.py`` reads them."""

    flows: tuple[SingleFlow, ...]
    dual_bound: float
    congestion: float
    cert_gap: float
    dp_count: int
    budget_exhausted: bool

    @property
    def throughput(self) -> float:
        return sum(f.amount for f in self.flows)


DUST = 1e-12  # a flow amount at or below this carries nothing


def _window_bits(width: int, windows: Iterable[tuple[int, int, int]]) -> list[int]:
    """One Python int per column of ``width``, bit = row: the OR of every
    window ``(first column, end column, row mask)`` over its columns.

    Each mask goes into the O(log width) nodes of a segment tree over the
    columns that tile its range (Bentley 1977), and one pass pushes every
    node into its children, so the leaves end up as the columns' bits.
    """
    size = 1 << max(width - 1, 0).bit_length()
    tree = [0] * (2 * size)
    for lo, hi, mask in windows:
        lo += size
        hi += size
        while lo < hi:
            if lo & 1:
                tree[lo] |= mask
                lo += 1
            if hi & 1:
                hi -= 1
                tree[hi] |= mask
            lo >>= 1
            hi >>= 1
    for i in range(1, size):
        tree[2 * i] |= tree[i]
        tree[2 * i + 1] |= tree[i]
    return tree[size:size + width]


class _PackState:
    """Open-edge bitsets and per-request windows on the grid.

    ``open[kind][col]`` has bit ``row`` set while edge ``(kind, row, col)``,
    in window columns, lies in some request's window and no route has taken
    it; ``congestion`` is the largest quantum over its capacity so far.
    """

    def __init__(self, reqs: Sequence[PacketRequest], hops: list[int],
                 store_cap: float, fwd_cap: float):
        self.store_cap = store_cap
        self.fwd_cap = fwd_cap
        cols0 = [r.t - r.a for r in reqs]
        slacks = [hops[i] - r.distance for i, r in enumerate(reqs)]
        self.off = min(cols0)
        self.W = max(c0 + s for c0, s in zip(cols0, slacks)) - self.off + 1
        self.gcol0 = [c0 - self.off for c0 in cols0]
        self.slack = slacks
        # stores are never taken in the destination row (paths end on the
        # first touch of row b), so a window's stores and forward edges span
        # the same rows a..b-1; its stores stop a column short
        stores, fwds = [], []
        for r, g0, s in zip(reqs, self.gcol0, slacks):
            rows = ((1 << r.distance) - 1) << r.a
            stores.append((g0, g0 + s, rows))
            fwds.append((g0, g0 + s + 1, rows))
        self.open = {"s": _window_bits(self.W, stores), "f": _window_bits(self.W, fwds)}
        self.congestion = 0.0

    def route(self, col: int, runs: Sequence[tuple[int, int]],
              demand: float) -> float:
        """Push ``min(demand, cap of each edge kind on the path)`` along one
        window path and close every edge of it, whatever capacity the
        quantum leaves unused.

        Returns the amount, 0 for a path through a closed edge, which is
        left as it was.  ``runs`` holds the path's forward run in each of
        its columns from ``col`` on, as ``(first row, end row)`` pairs
        (``open_path``), and a store leaves the end row of every run but the
        last, so each run and each store closes with one mask.
        """
        fwds, stores = [], []  # (column, row mask)
        for c, (r0, r1) in enumerate(runs, col):
            if r1 > r0:
                fwds.append((c, ((1 << (r1 - r0)) - 1) << r0))
            stores.append((c, 1 << r1))
        stores.pop()  # the path ends in the last run's column
        kinds = [(self.open[kind], cap, masks)
                 for kind, cap, masks in (("f", self.fwd_cap, fwds),
                                          ("s", self.store_cap, stores)) if masks]
        if any(bits[c] & m != m for bits, _, masks in kinds for c, m in masks):
            return 0.0
        quantum = min([demand, *(cap for _, cap, _ in kinds)])
        for bits, cap, masks in kinds:
            for c, m in masks:
                bits[c] &= ~m
            self.congestion = max(self.congestion, quantum / cap)
        return quantum

    def open_path(self, req: PacketRequest, g0: int,
                  s: int) -> list[tuple[int, int]] | None:
        """The request's fewest-store path of open edges as its forward run
        in each window column from ``g0`` on, ``(first row, end row)``, or
        None when its window holds no such path.

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
        into that cell, so each column's climb is that column's run.  Ties
        among fewest-store paths thus go to the one whose stores come
        earliest.
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
            runs.append((a + top, a + k))
            k = top
        runs.reverse()
        return runs


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
                       hop_bounds: Mapping[int, int]) -> FractionalMCF:
    """Fractionally accept as many requests as possible.

    Maximizes ``sum_i |f_i|`` subject to: at most ``store_cap`` total flow on
    every store edge and ``fwd_cap`` on every forward edge, ``|f_i| <= 1``,
    and every path of request i using at most ``hop_bounds[i]`` actions
    (enforced structurally through the per-request column window).

    The returned flow respects all capacities exactly (no rescaling step):
    each turn routes the fewest-store open path of its window and closes it,
    so the routes are edge-disjoint, at most two per request (module
    docstring).  ``dual_bound`` is ``min(M, origin_cut)``, a true upper
    bound on the fractional optimum, raised to ``throughput`` where float
    rounding puts that sum above it; ``cert_gap`` is the relative gap
    between the two.  ``congestion`` is the largest quantum over its
    capacity, ``dp_count`` is always 0 and ``budget_exhausted`` always
    ``False``.  Every destination must lie on the line of ``n`` nodes.
    """
    if store_cap <= 0 or fwd_cap <= 0:
        raise ValueError("capacities must be positive")
    reqs = sorted(requests, key=lambda r: r.id)
    M = len(reqs)
    if M == 0:
        return FractionalMCF((), 0.0, 0.0, 0.0, 0, False)
    if len({r.id for r in reqs}) != M:
        raise ValueError("duplicate request ids")
    hops = [hop_bounds[r.id] for r in reqs]
    for r, h in zip(reqs, hops):
        if r.b >= n:
            raise ValueError(f"request {r.id}: destination {r.b} beyond the line of {n} nodes")
        if h < r.distance:
            raise ValueError(f"request {r.id}: hop bound {h} below distance {r.distance}")
    state = _PackState(reqs, hops, store_cap, fwd_cap)
    raw = [0.0] * M
    routes: list[list[tuple[float, GridPath]]] = [[] for _ in range(M)]

    active = deque(range(M))
    while active:
        i = active.popleft()
        r = reqs[i]
        g0 = state.gcol0[i]
        runs = state.open_path(r, g0, state.slack[i])
        if runs is None:
            continue  # no open path left; edges only close, so for good
        quantum = state.route(g0, runs, 1.0 - raw[i])
        moves = "s".join("f" * (r1 - r0) for r0, r1 in runs)
        routes[i].append((quantum, GridPath(r.a, g0 + state.off, moves)))
        raw[i] += quantum
        if raw[i] < 1.0 - 1e-12:
            active.append(i)

    flows = tuple(SingleFlow(request=r, amount=min(raw[i], 1.0), paths=tuple(routes[i]))
                  for i, r in enumerate(reqs))
    primal = sum(f.amount for f in flows)
    dual_bound = max(primal, min(float(M), origin_cut(reqs, store_cap, fwd_cap)))
    cert_gap = 1.0 - primal / dual_bound
    return FractionalMCF(flows, dual_bound, state.congestion, cert_gap, 0, False)


# ---------------------------------------------------------------------------
# Fractional flow -> one path per request.

def randomized_round(flows: Iterable[SingleFlow], master_seed: int) -> dict[int, GridPath]:
    """Round fractional flows to one random path per accepted request.

    Every request uses its own random stream (``request_rng``), drawing first
    the acceptance coin (success probability ``|f_i|``) and then one uniform
    that picks route k of its ``paths`` with probability ``q_k / sum q``, in
    route order: a pick from the flow's path decomposition (Raghavan and
    Thompson, Combinatorica 1987), so ``Pr[e on the rounded path] = f_i(e)``
    for each edge e.  Results do not depend on the set or order of other
    requests.  An amount at or below ``DUST`` is rejected without a draw; a
    larger one on no path raises ``ValueError``.
    """
    accepted: dict[int, GridPath] = {}
    for sf in flows:
        if sf.amount <= DUST:
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
