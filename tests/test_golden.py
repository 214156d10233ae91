"""Golden end-to-end outputs of the command line.

Pins the exact bytes of ``linesched solve`` (stdout, schedule file and
``.trace.json`` sidecar) on three seeded instances, one of them also with a
forced band, and the CSV of a two-seed ``linesched bench`` run.  Refactors
must leave every one of them unchanged; a change that alters schedules on
purpose re-records these digests and says why.
"""

import hashlib
import json

import pytest

from linesched.cli import main

pytestmark = pytest.mark.filterwarnings("ignore:.*never be served.*")

# name -> (gen flags, solve flags)
SOLVES = {
    "uniform_64_150": (
        ["--n", "64", "--M", "150", "--seed", "5"],
        ["--seed", "5"]),
    "geometric_deadline_48_80": (
        ["--n", "48", "--M", "80", "--B", "2", "--c", "2", "--seed", "5",
         "--distance", "geometric:0.3", "--deadline-slack", "4"],
        ["--seed", "5"]),
    "uniform_64_150_medium": (
        ["--n", "64", "--M", "150", "--seed", "5"],
        ["--seed", "5", "--category", "medium"]),
    # uniform distances with deadlines: every flow window is at most 5
    # columns wide, and the trace pins the fractional dual bound in full
    "uniform_deadline_96_300": (
        ["--n", "96", "--M", "300", "--B", "2", "--c", "2", "--seed", "5",
         "--deadline-slack", "4"],
        ["--seed", "5"]),
}

BENCH = {"runs": [{"n": 64, "M": 150, "seeds": [5, 6]}]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_solve(tmp_path, capsys, name: str) -> dict[str, str]:
    gen_flags, solve_flags = SOLVES[name]
    inst = tmp_path / f"{name}.json"
    sched = tmp_path / f"{name}.sched.json"
    assert main(["gen", *gen_flags, "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["solve", str(inst), *solve_flags, "--out", str(sched)]) == 0
    return {
        "stdout": capsys.readouterr().out,
        "schedule": _sha(sched.read_bytes()),
        "trace": _sha((tmp_path / f"{name}.sched.json.trace.json").read_bytes()),
    }


def run_bench(tmp_path) -> str:
    cfg, out = tmp_path / "bench.json", tmp_path / "bench.csv"
    cfg.write_text(json.dumps(BENCH))
    assert main(["bench", str(cfg), "--out", str(out)]) == 0
    return _sha(out.read_bytes())


GOLDEN_SOLVES = {
    "geometric_deadline_48_80": {
        "stdout": "throughput 24\nfractional_upper_bound 80.000000\n",
        "schedule": "8d239139e883b933a9bafbb4b6f684a087afbd6a1259e602f8fd6c7b1e8b5d0f",
        "trace": "0fdca4acac6161483b17afef0803928d78142b2d554d5056165007e97e024570",
    },
    "uniform_64_150": {
        "stdout": "throughput 5\nfractional_upper_bound 150.000000\n",
        "schedule": "5c69a186d85b846509002790bc44321e1abc74ad607ca04a8a9b9a5e0e1c3baf",
        "trace": "f360e26a51ab0c7dccbe45040e6ce99eb116dec0f54bbd51abfee06ec02b2a81",
    },
    "uniform_64_150_medium": {
        "stdout": "throughput 1\nfractional_upper_bound 150.000000\n",
        "schedule": "7264c3447c24a1142b4cb48c825363d97fdcf61518295cef34e17548ca0fc34d",
        "trace": "6e1a4479c9225978d084722bde6db24ac8a15caabee631d973224b5635fdea00",
    },
    "uniform_deadline_96_300": {
        "stdout": "throughput 8\nfractional_upper_bound 300.000000\n",
        "schedule": "33b7173f2fbed29165020503a28a186a2746e5d36915f45ac33317d3d80a564b",
        "trace": "d4f36954f81609b7f9f98ebc4b1d5bedeb789f96d651b74c346b3abb26492628",
    },
}

GOLDEN_BENCH = "a7a7432ac1c49c1c8a7617375fe685b7ea06503e4c13a060a5539aa40a7d0d95"


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solve_outputs_are_pinned(tmp_path, capsys, name):
    assert run_solve(tmp_path, capsys, name) == GOLDEN_SOLVES[name]


def test_bench_csv_is_pinned(tmp_path):
    assert run_bench(tmp_path) == GOLDEN_BENCH


def test_solve_category_all_is_refused(tmp_path, capsys):
    # "auto" runs every nonempty band; there is no separate "all"
    gen_flags, _ = SOLVES["geometric_deadline_48_80"]
    inst = tmp_path / "inst.json"
    assert main(["gen", *gen_flags, "--out", str(inst)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(inst), "--seed", "5", "--category", "all"])
    assert exc.value.code == 2
    assert "invalid choice: 'all'" in capsys.readouterr().err
