"""Solve benchmark for linesched.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One operation is the in-process equivalent of ``linesched solve``:
``pipeline.solve_instance`` including the bound, then
``grid.packing_to_schedule`` and ``grid.validate_schedule``.  A run solves
every instance of the workload once per pass, and makes passes while
``--seconds`` allows (at least one), then solves the first instance once more
to check that repeated solves agree byte for byte.  Every output is checked
by ``checks.replay`` and against ``checks.greedy_pack``, which share no code
with the solver.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` there is one pass, in which each
instance is solved untraced and traced (alternating which goes first), and
the JSON object holds the per-layer metrics; the spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

# one solver thread, whatever numerical libraries the import pulls in
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checks import greedy_pack, replay  # noqa: E402
from layers import flow_problems, layer_metrics, targets  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, load_linesched  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import, generation and round trip."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return median(times)


def solve(ls, inst, seed: int):
    t0 = time.perf_counter()
    packing, report = ls.pipeline.solve_instance(inst, seed=seed)
    schedule = ls.grid.packing_to_schedule(inst, packing)
    verdict = ls.grid.validate_schedule(inst, schedule)
    return time.perf_counter() - t0, schedule, report, verdict


class Checker:
    """Checks each solve's output and that repeated solves agree."""

    def __init__(self, ls, instances):
        self.ls = ls
        self.instances = instances
        self.problems: list[str] = []
        self.first: dict[int, tuple[str, str]] = {}   # schedule and report JSON
        self.reports: dict[int, object] = {}
        self.greedy: list[int] = []
        for _, inst in instances:
            reqs = self.requests(inst)
            sched = greedy_pack(inst.B, inst.c, reqs)
            size, bad = replay(inst.n, inst.B, inst.c, reqs, sched)
            self.problems += [f"greedy: {p}" for p in bad]
            self.greedy.append(size)

    @staticmethod
    def requests(inst):
        return [(r.a, r.b, r.t, r.deadline) for r in inst.requests]

    def check(self, j: int, schedule, report, verdict) -> None:
        seed, inst = self.instances[j]
        # the report JSON holds every band's stage counts, so a change in a
        # band that did not win shows too
        key = (self.ls.grid.schedule_to_json(schedule),
               self.ls.pipeline.report_to_json(report))
        if j in self.first:
            if key != self.first[j]:
                self.problems.append(f"instance {seed}: repeated solve differs")
            return
        self.first[j] = key
        self.reports[j] = report
        delivered, bad = replay(inst.n, inst.B, inst.c, self.requests(inst), schedule)
        self.problems += [f"instance {seed}: {p}" for p in bad]
        if not verdict.ok:
            self.problems.append(f"instance {seed}: validator rejects the schedule")
        if delivered != report.throughput:
            self.problems.append(f"instance {seed}: replay delivers {delivered}, "
                                 f"report says {report.throughput}")
        if not delivered <= report.frac_bound <= len(inst.requests):
            self.problems.append(f"instance {seed}: bound {report.frac_bound} "
                                 f"outside [{delivered}, {len(inst.requests)}]")
        if report.frac_bound < self.greedy[j]:
            self.problems.append(f"instance {seed}: bound {report.frac_bound} "
                                 f"below greedy {self.greedy[j]}")


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    ls = load_linesched()
    setup_s = setup_seconds(args.workload, args.seed)
    instances, gen_s = wl.generate(ls, args.seed)
    checker = Checker(ls, instances)
    tracer = Tracer(targets(ls))
    times: list[list[float]] = [[] for _ in instances]
    traced_s: list[float] = []
    spans = []
    attempted = failed = 0

    def attempt(j: int, traced: bool = False) -> None:
        nonlocal attempted, failed
        seed, inst = instances[j]
        attempted += 1
        try:
            if traced:
                with tracer:
                    dt, *out = solve(ls, inst, seed)
            else:
                dt, *out = solve(ls, inst, seed)
        except Exception:
            failed += 1
            traceback.print_exc()
            return
        (traced_s if traced else times[j]).append(dt)
        checker.check(j, *out)

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for j in range(len(instances)):
            kinds = [False, True] if args.trace else [False]
            if j % 2:
                kinds.reverse()  # so the order in a pair cannot bias the overhead
            for traced in kinds:
                attempt(j, traced)
            spans += tracer.take()
        last_pass = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + last_pass > args.seconds:
            break
    attempt(0)

    if args.trace:
        checker.problems += flow_problems(spans)
        write_spans(args, spans)
        metrics = layer_metrics(spans, traced_s, [t[0] for t in times if t], gen_s)
    else:
        metrics = {
            "solve_s": (median(median(t) for t in times if t), "s"),
            "delivered": (sum(r.throughput for r in checker.reports.values()), "packets"),
            "upper_bound": (sum(r.frac_bound for r in checker.reports.values()), "packets"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for p in checker.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} solves in "
          f"{time.perf_counter() - start:.1f} s; per instance: first solve s "
          f"{[round(t[0], 3) for t in times if t]}, delivered "
          f"{[r.throughput for r in checker.reports.values()]}, greedy {checker.greedy}")
    return {
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_spans(args, spans) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [{"name": s.name, "parent": index.get(id(s.parent)),
             "start": s.start, "duration": s.duration, "self": s.self_s}
            for s in spans]
    path = out / f"{args.workload}-seed{args.seed}.spans.json"
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: exit {proc.returncode} without a result")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(*lines[:-1], sep="\n")
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:28s} {v['value']:.6g} {v['unit']}")
        status |= not result["correct"] or result["failed"] > 0
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
