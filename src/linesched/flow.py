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
twice: all requests take a first turn in id order, and those that routed
once and still want more take a second.  A turn whose window holds no open
path drops its request for good, since edges only ever close.

``_PackState`` keeps one Python ``int`` per grid column of open store edges
and one of open forward edges, bit = row.  The bits of every row short of
the furthest destination row start set, with no window masks: a request's
fill reads only the rows and columns of its own window, so an edge outside
every window is never read.  (Not ``-1``: Python's bit operations on
negative ints cost more, the more so the longer the line.)  One
``_PackState.take`` is one turn.  It fills the window's reachable cells
column by column from these bitsets, a few big-integer operations per
column in the bit-parallel style of Myers (JACM 1999), and stops at the
first column that reaches the destination row: a path ending in window
column ``j`` takes ``j`` stores.  Most paths take few stores, so a fill
costs far fewer steps than the window has rows.  It then walks the path
back from the destination, one forward run per column joined by single
stores, and closes each run with one mask and each store with one bit as
it goes; the walk follows open edges only, so nothing needs checking
again.  The solver keeps each route as ``(quantum, moves)``, as every
route starts at its request's origin.

The dual bound is ``min(M, origin_cut)``, the request count and the origin
cut, each of which bounds the fractional optimum, raised to the primal if
float rounding ever puts the primal above it.  The primal is the one sum
``FractionalMCF.throughput`` reports, so ``cert_gap`` compares the bound
with that very number.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
    """Scaled flow of one request: total amount and weighted routes.

    ``routes`` holds one ``(quantum, moves)`` pair per route, in route
    order; every route starts at the request's origin cell.
    """

    request: PacketRequest
    amount: float
    routes: tuple[tuple[float, str], ...]


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


class _PackState:
    """Open-edge bitsets on the grid and one window per request.

    ``open[kind][col]`` has bit ``row``, for every row short of the
    furthest destination row, cleared once a route takes edge
    ``(kind, row, col)``, in window columns, and set otherwise.
    ``windows[i]`` is request i's first row, distance, first window column
    and slack, its hop bound minus its distance.  ``congestion`` is the
    largest quantum over its capacity so far.
    """

    def __init__(self, reqs: Sequence[PacketRequest], hops: list[int],
                 store_cap: float, fwd_cap: float):
        # the least capacity on a path without stores and on one with
        self.least_cap = (fwd_cap, min(fwd_cap, store_cap))
        off = min(r.t - r.a for r in reqs)  # the first window column's grid column
        self.windows = [(r.a, r.distance, r.t - r.a - off, h - r.distance)
                        for r, h in zip(reqs, hops)]
        width = max(g0 + s for _, _, g0, s in self.windows) + 1
        ones = (1 << max(r.b for r in reqs)) - 1  # every row a window uses
        self.open = {"s": [ones] * width, "f": [ones] * width}
        self.congestion = 0.0

    def take(self, i: int, demand: float) -> tuple[float, str] | None:
        """Route request i along its window's fewest-store open path: push
        ``min(demand, cap of each edge kind on the path)`` and close every
        edge of the path.  Returns the quantum and the path's moves, or None
        when the window holds no open path.

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
        one.  Stores are never taken in the destination row, so the fill
        reads rows ``a..b-1`` only, and no stores out of the last column.

        The walk back from the destination cell goes up while its cell was
        entered from above and left otherwise: it climbs each column to the
        nearest cell up that was not entered from above, and takes the store
        into that cell, so each column's climb is that column's forward run.
        Ties among fewest-store paths thus go to the one whose stores come
        earliest.  Each run closes with one mask and each store with one
        bit; the walk follows only edges the fill found open.
        """
        a, d, g0, s = self.windows[i]
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
        for up in above[:0:-1]:  # back to the second window column
            top = (~up & ((2 << k) - 1)).bit_length() - 1
            fwd[col] &= ~((1 << (a + k)) - (1 << (a + top)))
            runs.append("f" * (k - top))
            k = top
            col -= 1
            store[col] &= ~(1 << (a + k))  # the store into the column walked
        # every cell reached in the origin's column is entered from above but
        # the origin, so that column's run starts at the origin
        fwd[g0] &= ~((1 << (a + k)) - (1 << a))
        runs.append("f" * k)
        cap = self.least_cap[len(above) > 1]
        quantum = min(demand, cap)
        self.congestion = max(self.congestion, quantum / cap)
        runs.reverse()
        return quantum, "s".join(runs)


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
    routes: list[tuple[tuple[float, str], ...]] = [()] * M

    def turn(i: int) -> bool:
        """Take one route for request i; True if it wants a second."""
        got = state.take(i, 1.0 - raw[i])
        if got is None:
            return False  # no open path left; edges only close, so for good
        quantum, moves = got
        routes[i] += ((quantum, moves),)
        raw[i] += quantum
        return raw[i] < 1.0 - 1e-12

    # a second route closes the origin's last open out-edge, so no third
    for i in [i for i in range(M) if turn(i)]:
        turn(i)

    flows = tuple(SingleFlow(r, min(x, 1.0), rs) for r, x, rs in zip(reqs, raw, routes))
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
    that picks route k of its ``routes`` with probability ``q_k / sum q``, in
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
        if not sf.routes:
            raise ValueError(f"request {sf.request.id}: amount {sf.amount} on no path")
        rng = request_rng(master_seed, sf.request.id)
        if rng.random() >= min(sf.amount, 1.0):
            continue
        pick = rng.random() * sum(q for q, _ in sf.routes)
        # a pick that float rounding leaves at or past the sum takes the last route
        for q, moves in sf.routes:
            pick -= q
            if pick < 0.0:
                break
        accepted[sf.request.id] = GridPath(*request_origin(sf.request), moves)
    return accepted
