"""From a fractional flow to an integral packing, and why the coin is fair.

The medium and long pipelines first solve a fractional relaxation: each
request may split its unit of demand over many grid paths as long as edge
loads stay within capacity.  ``max_throughput_mcf`` packs edge-disjoint
paths greedily, at most two per request, and returns each request's flow
as the weighted paths it routed, plus a dual bound that upper-bounds
any schedule: the origin cut, since no cell sends out more than its store
and forward capacity.  ``cert_gap`` is how far the routed amount falls
short of that bound, as a share of it.  Rounding then makes one
accept/reject coin per request (probability = routed amount) and, on accept, picks one of those
paths with probability proportional to its weight, so the chance any edge
ends up used equals exactly the fractional load on it.

The pipeline feeds the solver scaled-down capacities (a constant times the
true ones) to leave headroom for the later routing stages, so the
interesting regime is fractional caps; that is what this demo uses.
"""

from collections import Counter

from linesched import PacketRequest, max_throughput_mcf, randomized_round

requests = tuple(PacketRequest(i, a=i % 3, b=i % 3 + 3, t=1 + i % 2)
                 for i in range(6))
mcf = max_throughput_mcf(requests, n=8, store_cap=0.75, fwd_cap=0.75,
                         hop_bounds={r.id: r.distance + 6 for r in requests})

print(f"routed {mcf.throughput:.3f} of {len(requests)} requests "
      f"fractionally, dual bound {mcf.dual_bound:.3f}, "
      f"cert_gap {mcf.cert_gap:.3f}")
print("amounts:", " ".join(f"{f.request.id}:{f.amount:.2f}"
                           for f in mcf.flows))

# The most split-up request shows the weighted paths best.
split = max(mcf.flows, key=lambda f: len(f.routes))
print(f"\nrequest {split.request.id} carries {split.amount:.3f} over "
      f"{len(split.routes)} paths:")
for amount, moves in split.routes:
    print(f"  {amount:.3f} on {moves!r}")

# Round many times with independent seeds and compare the acceptance rate
# of a partially routed request against its fractional amount.
partial = min(mcf.flows, key=lambda f: abs(f.amount - 0.5))
hits = 0
trials = 4000
for seed in range(trials):
    packing = randomized_round(mcf.flows, master_seed=seed)
    hits += partial.request.id in packing
rate = hits / trials
sigma = (partial.amount * (1 - partial.amount) / trials) ** 0.5
print(f"\nacceptance of request {partial.request.id} over {trials} seeds: "
      f"{rate:.3f} (expected {partial.amount:.3f}, sigma {sigma:.3f})")

# One concrete rounded packing, with its loads.  Rounding ignores the cap
# scaling on purpose; the pipeline's congestion filter deals with pileups.
packing = randomized_round(mcf.flows, master_seed=7)
loads = Counter()
for path in packing.values():
    loads.update(path.edges())
print(f"\nseed 7 keeps {sorted(packing)} with max edge load "
      f"{max(loads.values())}")
