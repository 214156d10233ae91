"""Command line front end: generate, solve, verify, benchmark.

Every command is deterministic given its inputs and flags; output bytes do
not change between runs.  ``solve`` writes the schedule plus a stage-trace
sidecar next to it, ``bench`` turns a sweep config into a CSV report with
per-group aggregate rows.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys

from .grid import (ScheduleFormatError, load_schedule, packing_to_schedule,
                   save_schedule, validate_schedule)
from .model import (Instance, InstanceFormatError, SolverInvariantError,
                    check_generator_args, gen_random_instance,
                    instance_to_json, load_instance, save_instance)
from .pipeline import CATEGORY_CHOICES, report_to_json, solve_instance

_CSV_COLUMNS = ["seed", "n", "B", "c", "M", "category",
                "R_rnd", "R_fltr", "R_quad", "R_final",
                "alg", "frac_bound", "ratio"]

_RUN_DEFAULTS = {
    "B": 1,
    "c": 1,
    "seeds": [0],
    "arrival_rate": 1.0,
    "distance": "uniform",
    "deadline_slack": None,
    "category": "auto",
}


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def cmd_gen(args: argparse.Namespace) -> int:
    inst = gen_random_instance(
        args.n, args.B, args.c, args.M,
        arrival_rate=args.arrival_rate, distance=args.distance,
        seed=args.seed, deadline_slack=args.deadline_slack)
    if args.out:
        save_instance(inst, args.out)
    else:
        sys.stdout.write(instance_to_json(inst))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    packing, report = solve_instance(inst, seed=args.seed, category=args.category)
    schedule = packing_to_schedule(inst, packing)
    verdict = validate_schedule(inst, schedule)
    if not verdict.ok:
        for line in verdict.violations:
            print(line, file=sys.stderr)
        return 1
    if args.out:
        save_schedule(schedule, args.out)
        with open(f"{args.out}.trace.json", "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    print(f"throughput {report.throughput}")
    print(f"fractional_upper_bound {_fmt(report.frac_bound)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    verdict = validate_schedule(inst, schedule)
    for line in verdict.violations:
        print(line)
    if verdict.ok:
        print(f"ok: {verdict.accepted} delivered, 0 violations")
        return 0
    return 1


class ConfigError(ValueError):
    pass


_INT, _NUM, _STR = (int, "an integer"), ((int, float), "a number"), (str, "a string")
_RUN_TYPES = {"n": _INT, "M": _INT, "B": _INT, "c": _INT, "arrival_rate": _NUM,
              "distance": _STR, "deadline_slack": ((int, type(None)), "an integer or null"),
              "category": _STR}


def _is_type(value, kind) -> bool:
    # bool is an int subclass; JSON true/false must not pass for a number
    return isinstance(value, kind) and not isinstance(value, bool)


def _load_bench_config(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(payload, dict) or "runs" not in payload:
        raise ConfigError('config must be an object with a "runs" list')
    extra = payload.keys() - {"runs"}
    if extra:
        raise ConfigError(f"unknown top-level config keys: {sorted(extra)}")
    runs = payload["runs"]
    if not isinstance(runs, list) or not runs:
        raise ConfigError('"runs" must be a non-empty list')
    out = []
    for i, row in enumerate(runs):
        if not isinstance(row, dict):
            raise ConfigError(f"runs[{i}] is not an object")
        unknown = row.keys() - _RUN_DEFAULTS.keys() - {"n", "M"}
        if unknown:
            raise ConfigError(f"runs[{i}]: unknown keys {sorted(unknown)}")
        missing = {"n", "M"} - row.keys()
        if missing:
            raise ConfigError(f"runs[{i}]: missing keys {sorted(missing)}")
        merged = dict(_RUN_DEFAULTS, **row)
        seeds = merged["seeds"]
        if not (isinstance(seeds, list) and seeds and all(_is_type(s, int) for s in seeds)):
            raise ConfigError(f"runs[{i}]: seeds must be a non-empty list of integers, got {seeds!r}")
        for key, (kind, name) in _RUN_TYPES.items():
            if not _is_type(merged[key], kind):
                raise ConfigError(f"runs[{i}]: {key} must be {name}, got {merged[key]!r}")
        try:
            _check_run_values(merged)
        except ValueError as e:
            raise ConfigError(f"runs[{i}]: {e}") from e
        out.append(merged)
    return out


def _check_run_values(run: dict) -> None:
    """The value checks that generating and solving a run would make, made
    before the first run starts, so that a bad run leaves no partial report."""
    Instance(run["n"], run["B"], run["c"], ())
    check_generator_args(run["n"], run["M"], run["arrival_rate"], run["distance"])
    if run["category"] not in CATEGORY_CHOICES:
        raise ValueError(f"unknown category {run['category']!r}")


def _bench_row(run: dict, seed: int) -> dict[str, object]:
    inst = gen_random_instance(
        run["n"], run["B"], run["c"], run["M"],
        arrival_rate=run["arrival_rate"], distance=run["distance"],
        seed=seed, deadline_slack=run["deadline_slack"])
    _, report = solve_instance(inst, seed=seed, category=run["category"])
    alg = report.throughput
    fb = report.frac_bound
    trace = report.traces.get(report.category)
    # short bands keep no stage trace: everything they deliver is final
    stage = trace.counts() if trace else {"R_rnd": 0, "R_fltr": 0,
                                          "R_quad": 0, "R_final": alg}
    return {
        "seed": seed,
        "n": run["n"], "B": run["B"], "c": run["c"], "M": run["M"],
        "category": report.category,
        **stage,
        "alg": alg,
        "frac_bound": fb,
        "ratio": alg / fb if fb > 0 else 1.0,
    }


def _aggregate_rows(rows: list[dict]) -> list[dict[str, object]]:
    """Mean and 95% CI half-width rows over one config group."""
    numeric = ["R_rnd", "R_fltr", "R_quad", "R_final",
               "alg", "frac_bound", "ratio"]
    fixed = {k: rows[0][k] for k in ("n", "B", "c", "M")}
    mean_row: dict[str, object] = {"seed": "mean", "category": "-", **fixed}
    ci_row: dict[str, object] = {"seed": "ci95_half", "category": "-", **fixed}
    for col in numeric:
        vals = [float(r[col]) for r in rows]
        mean_row[col] = statistics.fmean(vals)
        half = 0.0
        if len(vals) > 1:
            half = 1.96 * statistics.stdev(vals) / math.sqrt(len(vals))
        ci_row[col] = half
    return [mean_row, ci_row]


def cmd_bench(args: argparse.Namespace) -> int:
    runs = _load_bench_config(args.config)
    out = open(args.out, "w", encoding="utf-8", newline="") \
        if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for run in runs:
            group = [_bench_row(run, seed) for seed in run["seeds"]]
            for row in group + _aggregate_rows(group):
                writer.writerow([_fmt(row[c]) if isinstance(row[c], float)
                                 else row[c] for c in _CSV_COLUMNS])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linesched",
        description="Store-and-forward packet scheduling on a directed line.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--B", type=int, default=1)
    g.add_argument("--c", type=int, default=1)
    g.add_argument("--M", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--arrival-rate", type=float, default=1.0)
    g.add_argument("--distance", default="uniform",
                   help="'uniform', 'fixed:D' or 'geometric:P'")
    g.add_argument("--deadline-slack", type=int, default=None)
    g.add_argument("--out", default=None, help="instance file (default stdout)")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve an instance")
    s.add_argument("instance", help="instance file")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--category", default="auto",
                   choices=CATEGORY_CHOICES,
                   help="run one band, or every nonempty band and keep the best (auto)")
    s.add_argument("--out", default=None,
                   help="schedule file; a <out>.trace.json sidecar is written too")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="validate a schedule against an instance")
    v.add_argument("instance", help="instance file")
    v.add_argument("schedule", help="schedule file")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="run a benchmark sweep, emit CSV")
    b.add_argument("config", help="sweep config file")
    b.add_argument("--out", default=None, help="report file (default stdout)")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, ScheduleFormatError, ConfigError,
            OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SolverInvariantError as e:
        print(f"error: solver self-check failed: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
