"""Tests of the benchmark's own checks and tracer: ``pytest perfbench``."""

import random
import types

from checks import greedy_pack, replay
from spans import Tracer

# (a, b, t, deadline) on a line of 4 nodes
REQS = [(0, 2, 1, None), (0, 1, 1, None), (0, 1, 1, None), (2, 3, 1, 2)]
VALID = {0: "ff", 1: "sf", 2: "reject", 3: "f"}


def problems(schedule, B=1, c=1):
    return replay(4, B, c, REQS, {**VALID, **schedule})[1]


def test_replay_accepts_a_valid_schedule():
    assert replay(4, 1, 1, REQS, VALID) == (3, [])


def test_replay_rejects_an_overloaded_link():
    bad = problems({1: "f"})
    assert bad == ["link 0->1 carries 2 > c=1 in step 1"]
    assert problems({1: "f"}, c=2) == []


def test_replay_rejects_an_overfull_buffer():
    bad = problems({2: "ssf"})
    assert bad == ["node 0 stores 2 > B=1 in step 1"]
    assert problems({2: "ssf"}, B=2) == []


def test_replay_rejects_a_wrong_forward_count():
    assert problems({0: "f"}) == ["request 0: 1 forwards, distance 2"]
    assert problems({0: "fff"}) == ["request 0: 3 forwards, distance 2"]


def test_replay_rejects_moves_after_delivery_and_bad_moves():
    assert problems({0: "ffs"}) == ["request 0: moves after delivery"]
    assert problems({0: "fx"}) == ["request 0: bad moves 'fx'"]


def test_replay_rejects_a_late_arrival():
    assert problems({3: "sf"}) == ["request 3: arrives 3, deadline 2"]


def test_replay_rejects_undecided_and_unknown_requests():
    schedule = {k: v for k, v in VALID.items() if k != 2}
    assert replay(4, 1, 1, REQS, {**schedule, 9: "f"})[1] == [
        "request 9: not in the instance", "request 2: undecided"]


def test_greedy_packs_valid_schedules_within_its_limits():
    rng = random.Random(3)
    for B, c in ((1, 1), (2, 1), (1, 2), (2, 2)):
        reqs = []
        for _ in range(120):
            a = rng.randrange(0, 15)
            b = rng.randrange(a + 1, 16)
            t = rng.randrange(1, 30)
            deadline = t + (b - a) + rng.randrange(0, 3) if rng.random() < 0.5 else None
            reqs.append((a, b, t, deadline))
        schedule = greedy_pack(B, c, reqs)
        delivered, bad = replay(16, B, c, reqs, schedule)
        assert bad == []
        assert 0 < delivered < len(reqs)
        for (a, b, _, _), moves in zip(reqs, schedule.values()):
            assert moves == "reject" or len(moves) <= 2 * (b - a)


def test_tracer_records_parents_and_restores_attributes():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = (mod.inner, mod.outer)
    with Tracer([(mod, "inner"), (mod, "outer")]) as tracer:
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == original
    inner, outer = tracer.take()
    assert (inner.name, inner.parent, inner.result) == ("inner", outer, 2)
    assert (outer.name, outer.parent, outer.result) == ("outer", None, 4)
    assert 0 <= outer.self_s <= outer.duration
    assert outer.child_s == inner.duration
    assert tracer.take() == []
