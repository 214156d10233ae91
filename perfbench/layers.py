"""Per-layer metrics and solver checks computed from recorded spans.

A traced pass solves every instance of the workload once with the tracer
active.  Times are seconds per solve (summed over the pass, divided by the
number of solves), so they add up with ``trace.uncovered_s`` to
``trace.solve_s``.  Counts are totals over the pass; ``*_cert_gap`` is the
mean over calls.
"""

from __future__ import annotations

from statistics import fmean
from typing import Sequence

from spans import Span

# Attributes of linesched's submodules that the tracer wraps.
TRACED = {
    "pipeline": ("max_throughput_mcf", "fractional_upper_bound",
                 "run_medium_long", "solve_short", "randomized_round",
                 "filter_congested", "quadrant_route", "route_detailed"),
    "shortsolver": ("solve_tile_exact",),
    "grid": ("packing_to_schedule", "validate_schedule"),
}


def targets(ls) -> list[tuple[object, str]]:
    return [(getattr(ls, mod), attr) for mod, attrs in TRACED.items()
            for attr in attrs]


def _mean(xs: Sequence[float]) -> float:
    return fmean(xs) if xs else 0.0


def flow_problems(spans: Sequence[Span]) -> list[str]:
    """Every fractional solve must respect capacities and its own bound."""
    out = []
    for s in spans:
        if s.name != "max_throughput_mcf":
            continue
        mcf = s.result
        if mcf.congestion > 1.0 + 1e-9:
            out.append(f"fractional solve over capacity: congestion {mcf.congestion}")
        if mcf.throughput > mcf.dual_bound * (1.0 + 1e-9) + 1e-9:
            out.append(f"fractional solve above its bound: "
                       f"{mcf.throughput} > {mcf.dual_bound}")
    return out


def layer_metrics(spans: Sequence[Span], traced_s: Sequence[float],
                  untraced_s: Sequence[float], gen_s: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as ``name -> (value, unit)``.

    ``traced_s`` and ``untraced_s`` hold the wall time of each traced solve
    and of an untraced solve of the same instances.
    """
    solves = len(traced_s)

    def named(name: str, parent: str | None = None) -> list[Span]:
        return [s for s in spans if s.name == name and
                (parent is None or (s.parent is not None and s.parent.name == parent))]

    def per_solve(ss: Sequence[Span], attr: str = "duration") -> float:
        return sum(getattr(s, attr) for s in ss) / solves

    lam = named("max_throughput_mcf", "run_medium_long")
    bnd = named("max_throughput_mcf", "fractional_upper_bound")
    tiles = named("solve_tile_exact")
    bands = named("run_medium_long")
    top = [s for s in spans if s.parent is None]
    traced = fmean(traced_s)
    return {
        "flow.lambda_s": (per_solve(lam), "s"),
        "flow.lambda_calls": (len(lam), "count"),
        "flow.lambda_dp_count": (sum(s.result.dp_count for s in lam), "count"),
        "flow.lambda_cert_gap": (_mean([s.result.cert_gap for s in lam]), "ratio"),
        "flow.bound_s": (per_solve(bnd), "s"),
        "flow.bound_dp_count": (sum(s.result.dp_count for s in bnd), "count"),
        "flow.bound_cert_gap": (_mean([s.result.cert_gap for s in bnd]), "ratio"),
        "flow.budget_exhausted": (sum(s.result.budget_exhausted for s in lam + bnd), "count"),
        "flow.round_s": (per_solve(named("randomized_round")), "s"),
        "flow.rounded": (sum(len(s.result) for s in named("randomized_round")), "count"),
        "shortsolver.solve_s": (per_solve(named("solve_short")), "s"),
        "shortsolver.tiles": (len(tiles), "count"),
        "shortsolver.nodes": (sum(s.result.nodes for s in tiles), "count"),
        "shortsolver.nodes_max_tile": (max((s.result.nodes for s in tiles), default=0), "count"),
        "shortsolver.inexact_tiles": (sum(not s.result.exact for s in tiles), "count"),
        "pipeline.filter_s": (per_solve(named("filter_congested")), "s"),
        "pipeline.filtered": (sum(len(s.result) for s in named("filter_congested")), "count"),
        "pipeline.quadrant_s": (per_solve(named("quadrant_route")), "s"),
        "pipeline.quadrant_calls": (len(named("quadrant_route")), "count"),
        "pipeline.routed": (sum(len(s.result[1].routed) for s in bands), "count"),
        "pipeline.detailed_s": (per_solve(named("route_detailed")), "s"),
        "pipeline.terminal_drops": (sum(s.result[1].terminal_drops for s in bands), "count"),
        "pipeline.deadline_drops": (sum(s.result[1].deadline_drops for s in bands), "count"),
        "pipeline.band_self_s": (per_solve(bands, "self_s"), "s"),
        "grid.validate_s": (per_solve(named("validate_schedule")), "s"),
        "model.gen_s": (gen_s / solves, "s"),
        "trace.solve_s": (traced, "s"),
        "trace.overhead_s": (traced - fmean(untraced_s), "s"),
        "trace.uncovered_s": (traced - per_solve(top), "s"),
    }
