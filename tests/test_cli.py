"""End-to-end command line tests, driven in-process through main()."""

import json

import pytest

from linesched.cli import main
from linesched.model import SolverInvariantError

pytestmark = pytest.mark.filterwarnings("ignore:.*never be served.*")


def _gen(tmp_path, name="inst.json", n=48, M=120, seed=7, extra=()):
    path = tmp_path / name
    rc = main(["gen", "--n", str(n), "--M", str(M), "--seed", str(seed),
               "--out", str(path), *extra])
    assert rc == 0
    return path


def test_gen_writes_canonical_instance(tmp_path, capsys):
    path = _gen(tmp_path)
    assert main(["gen", "--n", "48", "--M", "120", "--seed", "7"]) == 0
    assert capsys.readouterr().out == path.read_text()


def test_solve_roundtrip_verifies(tmp_path, capsys):
    inst = _gen(tmp_path)
    sched = tmp_path / "sched.json"
    assert main(["solve", str(inst), "--seed", "1", "--out", str(sched)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("throughput ")
    assert out[1].startswith("fractional_upper_bound ")
    assert main(["verify", str(inst), str(sched)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_solve_is_byte_deterministic(tmp_path, capsys):
    inst = _gen(tmp_path, seed=11)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", str(inst), "--seed", "4", "--out", str(a)]) == 0
    first = capsys.readouterr().out
    assert main(["solve", str(inst), "--seed", "4", "--out", str(b)]) == 0
    assert capsys.readouterr().out == first
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.trace.json").read_bytes() == \
        (tmp_path / "b.json.trace.json").read_bytes()


def test_solve_throughput_within_reported_bound(tmp_path, capsys):
    inst = _gen(tmp_path, n=64, M=200, seed=3)
    assert main(["solve", str(inst), "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    alg = int(lines[0].split()[1])
    bound = float(lines[1].split()[1])
    assert alg <= bound / (1 - 0.05) + 1e-9


def test_solve_category_flag(tmp_path, capsys):
    inst = _gen(tmp_path)
    assert main(["solve", str(inst), "--category", "long"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["solve", str(inst), "--category", "bogus"])


def test_solve_very_short_category_verifies(tmp_path, capsys):
    # the very-short band exists only when min(B, c) > 1
    inst = _gen(tmp_path, extra=("--B", "2", "--c", "2",
                                 "--distance", "geometric:0.4"))
    sched = tmp_path / "sched.json"
    assert main(["solve", str(inst), "--category", "very_short",
                 "--out", str(sched)]) == 0
    assert int(capsys.readouterr().out.split()[1]) > 0
    trace = json.loads((tmp_path / "sched.json.trace.json").read_text())
    assert trace["category"] == "very_short"
    assert list(trace["band_results"]) == ["very_short"]
    assert main(["verify", str(inst), str(sched)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_verify_flags_corrupted_schedule(tmp_path, capsys):
    inst = _gen(tmp_path)
    sched = tmp_path / "sched.json"
    assert main(["solve", str(inst), "--out", str(sched)]) == 0
    capsys.readouterr()
    payload = json.loads(sched.read_text())
    victim = next(k for k, v in payload.items() if v != "reject")
    payload[victim] = payload[victim] + "f"     # one forward too many
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", str(inst), str(bad)]) == 1
    assert f"request {victim}:" in capsys.readouterr().out


def test_verify_rejects_garbage_file(tmp_path, capsys):
    inst = _gen(tmp_path)
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["verify", str(inst), str(junk)]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_instance_solves_to_zero(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"n":4,"B":1,"c":1,"requests":[]}')
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "throughput 0" in out


def test_bench_single_run_layout(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"runs": [{"n": 32, "M": 60}]}))
    assert main(["bench", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("seed,n,B,c,M,category,R_rnd,R_fltr,R_quad,R_final,"
                        "alg,frac_bound,ratio")
    assert len(lines) == 4          # data row + mean + ci95_half
    assert lines[1].startswith("0,32,1,1,60,")
    assert lines[2].startswith("mean,32,1,1,60,-,")
    assert lines[3].startswith("ci95_half,32,1,1,60,-,")


def test_bench_multi_seed_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"runs": [
        {"n": 32, "M": 60, "seeds": [0, 1, 2, 3, 4]},
        {"n": 48, "M": 80, "seeds": [0], "deadline_slack": 25},
    ]}))
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["bench", str(cfg), "--out", str(r1)]) == 0
    assert main(["bench", str(cfg), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    lines = r1.read_text().splitlines()
    assert len(lines) == 1 + (5 + 2) + (1 + 2)
    ratios = [float(line.split(",")[-1]) for line in lines[1:6]]
    mean = float(lines[6].split(",")[-1])
    assert mean == pytest.approx(sum(ratios) / len(ratios), abs=1e-6)


def test_bench_config_validation(tmp_path, capsys):
    bad1 = tmp_path / "bad1.json"
    bad1.write_text(json.dumps({"runs": [{"n": 32}]}))
    assert main(["bench", str(bad1)]) == 2
    assert "missing keys" in capsys.readouterr().err
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"runs": [{"n": 32, "M": 5, "pop": 1}]}))
    assert main(["bench", str(bad2)]) == 2
    assert "unknown keys" in capsys.readouterr().err
    bad3 = tmp_path / "bad3.json"
    bad3.write_text("[]")
    assert main(["bench", str(bad3)]) == 2
    capsys.readouterr()
    for key, value in (("seeds", [1.5]), ("n", "16"), ("distance", 3), ("B", True)):
        bad = tmp_path / f"bad_{key}.json"
        bad.write_text(json.dumps({"runs": [{"n": 16, "M": 5, key: value}]}))
        assert main(["bench", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: runs[0]: {key} must be")
        assert captured.err.count("\n") == 1
    # values are checked for every run before the report is opened, so a bad
    # later run leaves no partial file behind
    for key, value, message in (
            ("category", "foo", "unknown category 'foo'"),
            ("eps_gk", 0.05, "unknown keys ['eps_gk']"),
            ("distance", "fixed:16", "fixed distance must be in [1, n-1]"),
            ("distance", "zipf", "unknown distance form"),
            ("n", 1, "need at least 2 nodes"),
            ("B", 0, "capacities must be >= 1"),
            ("c", 0, "capacities must be >= 1")):
        bad = tmp_path / "bad_value.json"
        bad.write_text(json.dumps({"runs": [{"n": 16, "M": 5},
                                            {"n": 16, "M": 5, key: value}]}))
        report = tmp_path / "report.csv"
        assert main(["bench", str(bad), "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: runs[1]: {message}")
        assert not report.exists()


def test_eps_is_checked_when_only_short_bands_run(tmp_path, capsys):
    inst = _gen(tmp_path, n=6, M=5, seed=1)
    sched = tmp_path / "sched.json"
    assert main(["solve", str(inst), "--out", str(sched)]) == 0
    capsys.readouterr()
    trace = json.loads((tmp_path / "sched.json.trace.json").read_text())
    assert trace["stages"] == {}  # no fractional solve ran
    # the solver has no accuracy knob, so the old flag is an unknown option
    out = tmp_path / "eps.json"
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(inst), "--eps-gk", "0.05", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --eps-gk 0.05" in captured.err
    assert not out.exists()


def test_solver_invariant_failure_exits_2(tmp_path, capsys, monkeypatch):
    inst = _gen(tmp_path, n=16, M=10)

    def broken(*args, **kwargs):
        raise SolverInvariantError("capacity violated after routing")

    monkeypatch.setattr("linesched.cli.solve_instance", broken)
    assert main(["solve", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: solver self-check failed: "
                            "capacity violated after routing\n")


def test_missing_instance_file_is_reported(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err
