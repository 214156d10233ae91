"""Workload definitions and the import of the package under test.

Each workload is a family of random instances from
``linesched.gen_random_instance``; a run solves ``instances`` of them, whose
generator seeds are drawn from the run's ``--seed``.  Several instances per
run, rather than one large one, keep the reported medians and totals steady
from seed to seed: the solver's randomized rounding delivers a small,
noisy share of each instance.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    n: int
    M: int
    B: int
    c: int
    distance: str
    deadline_slack: int | None
    instances: int
    why: str

    def quotas(self) -> dict[int, int]:
        """Requests per distance under the distance law, rounded along its
        cumulative distribution so that they sum to ``M``."""
        n, M = self.n, self.M
        if self.distance == "uniform":
            def cdf(d: int) -> float:
                return d / (n - 1)
        else:
            p = float(self.distance.removeprefix("geometric:"))

            def cdf(d: int) -> float:   # geometric, capped at n - 1
                return 1.0 if d >= n - 1 else 1.0 - (1.0 - p) ** d
        counts = {d: round(M * cdf(d)) - round(M * cdf(d - 1)) for d in range(1, n)}
        return {d: k for d, k in counts.items() if k}

    def generate(self, ls, seed: int):
        """``[(instance seed, instance)]`` after a JSON round trip, and the
        seconds spent generating them.

        Each instance joins one ``gen_random_instance`` call per distance,
        with that distance's quota of requests released over the same ``M``
        steps.  Fixing the quotas keeps the costliest short distances from
        swinging the solve time from seed to seed, while endpoints and
        release times stay random.
        """
        import numpy as np

        quotas = self.quotas()
        seeds = np.random.SeedSequence(seed).generate_state(self.instances)
        out, gen_s = [], 0.0
        for s in map(int, seeds):
            t0 = time.perf_counter()
            reqs = []
            for d, k in quotas.items():
                part = ls.gen_random_instance(
                    self.n, self.B, self.c, k, arrival_rate=k / self.M,
                    distance=f"fixed:{d}", deadline_slack=self.deadline_slack,
                    seed=int(np.random.SeedSequence([s, d]).generate_state(1)[0]))
                reqs += part.requests
            inst = ls.Instance(self.n, self.B, self.c, tuple(
                ls.PacketRequest(i, r.a, r.b, r.t, r.deadline)
                for i, r in enumerate(reqs))).canonical()
            gen_s += time.perf_counter() - t0
            back = ls.model.instance_from_json(ls.model.instance_to_json(inst))
            if back != inst:
                raise RuntimeError(f"instance {s} changed in its JSON round trip")
            out.append((s, back))
        return out, gen_s


WORKLOADS = {
    "uniform-long": Workload(
        n=192, M=300, B=1, c=1, distance="uniform", deadline_slack=None,
        instances=9,
        why="mostly long-band requests over windows up to 2(n-1) columns wide: "
            "the fractional solver takes most of the time, the short band the rest"),
    "geometric-short": Workload(
        n=128, M=50, B=1, c=1, distance="geometric:0.3", deadline_slack=None,
        instances=12,
        why="mostly short-band requests: the per-tile branch and bound "
            "dominates and the fractional solver barely runs"),
    "deadline-tight": Workload(
        n=128, M=400, B=2, c=2, distance="uniform", deadline_slack=4,
        instances=10,
        why="deadlines 4 steps past the earliest arrival: narrow flow windows, "
            "capacity 2, the very-short band and the deadline-drop path"),
}


def load_linesched():
    """Import ``linesched`` from ``src/`` beside this directory and from
    nowhere else."""
    src = ROOT / "src"
    pkg = src / "linesched"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no linesched sources under {src}")
    sys.path.insert(0, str(src))
    import linesched

    if Path(linesched.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported linesched from {linesched.__file__}, not {pkg}")
    return linesched
