import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesched.model import (
    Category,
    Instance,
    InstanceFormatError,
    PacketRequest,
    Thresholds,
    capacity_scale,
    categorize,
    chernoff_exponent,
    gen_random_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    request_rng,
    round_up_to_multiple_of_6,
    save_instance,
)


# ---------------------------------------------------------------------------
# Constants.

def test_chernoff_exponent_at_one():
    assert chernoff_exponent(1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-15)
    assert chernoff_exponent(1.0) == pytest.approx(0.3862943611198906, abs=1e-12)


def test_capacity_scale_value():
    assert capacity_scale() == pytest.approx(chernoff_exponent(1.0) / 6.0, abs=1e-15)
    assert capacity_scale() == pytest.approx(0.06438239351998176, abs=1e-12)
    assert 1.0 / capacity_scale() == pytest.approx(15.532, abs=1e-3)


def test_capacity_scale_leaves_quadrant_slack():
    # The per-quadrant admission argument needs the weighted double series
    # sum_{x,y>=1} x*y*z^(x+y) with z = capacity_scale()*e to stay below 0.07.
    z = capacity_scale() * math.e
    assert z == pytest.approx(0.1750094903780658, abs=1e-12)
    closed_form = z * z / (1.0 - z) ** 4
    series = sum(x * y * z ** (x + y) for x in range(1, 200) for y in range(1, 200))
    assert closed_form == pytest.approx(series, rel=1e-12)
    assert closed_form <= 0.07


def test_chernoff_exponent_basic_shape():
    assert chernoff_exponent(0.0) == 0.0
    assert chernoff_exponent(-0.5) > 0.0
    assert chernoff_exponent(2.0) > chernoff_exponent(1.0)
    with pytest.raises(ValueError):
        chernoff_exponent(-1.0)


@given(st.floats(min_value=-0.99, max_value=0.99))
def test_chernoff_exponent_lower_bound(eps):
    # beta(eps) >= 2 eps^2 / (4.2 + eps) on the whole symmetric range.
    assert chernoff_exponent(eps) >= 2.0 * eps * eps / (4.2 + eps) - 1e-12


@given(st.floats(min_value=0.0, max_value=0.99))
def test_chernoff_exponent_upper_bound_nonnegative_eps(eps):
    assert chernoff_exponent(eps) <= eps * eps / 2.0 + 1e-12


def test_chernoff_exponent_upper_bound_fails_below_zero():
    # The quadratic eps^2/2 is NOT an upper bound for negative eps (the gap
    # beta - eps^2/2 has derivative ln(1+eps) - eps <= 0, so it is positive
    # left of zero).  Keep a concrete witness so nobody re-widens the domain
    # of the test above.
    assert chernoff_exponent(-0.5) > 0.25 / 2.0
    assert chernoff_exponent(-0.5) == pytest.approx(0.15342640972002736, abs=1e-12)


def test_chernoff_exponent_convex():
    xs = np.linspace(-0.9, 3.0, 400)
    ys = np.array([chernoff_exponent(float(x)) for x in xs])
    second = np.diff(ys, 2)
    assert (second >= -1e-12).all()


def test_round_up_to_multiple_of_6():
    assert round_up_to_multiple_of_6(1.0) == 6
    assert round_up_to_multiple_of_6(6.0) == 6
    assert round_up_to_multiple_of_6(6.01) == 12
    assert round_up_to_multiple_of_6(35.9) == 36
    assert round_up_to_multiple_of_6(2.0, minimum=12) == 12


# ---------------------------------------------------------------------------
# Thresholds and categories.

def test_thresholds_ordering_for_normal_n():
    for n in [5, 8, 64, 256, 10 ** 6]:
        thr = Thresholds.from_n(n)
        assert 0 < thr.very_short_max < thr.short_max < thr.medium_max
        assert thr.medium_max == pytest.approx(3.0 * math.log(n))
        assert thr.short_max == pytest.approx(3.0 * math.log(3.0 * math.log(n)))
        assert thr.very_short_max == pytest.approx(math.log(thr.short_max))


def test_thresholds_degenerate_for_tiny_n():
    # 3 ln(3 ln n) > 3 ln n for n in {2, 3, 4}; everything is then short.
    for n in [2, 3, 4]:
        thr = Thresholds.from_n(n)
        assert thr.short_max > thr.medium_max
    with pytest.raises(ValueError):
        Thresholds.from_n(1)


def test_categorize():
    thr = Thresholds.from_n(1000)
    assert categorize(1, thr) is Category.SHORT
    assert categorize(1, thr, B=2, c=2) is Category.VERY_SHORT
    assert categorize(2, thr, B=2, c=2) is Category.VERY_SHORT
    assert categorize(3, thr, B=2, c=2) is Category.SHORT
    assert categorize(math.floor(thr.short_max), thr) is Category.SHORT
    assert categorize(math.ceil(thr.short_max), thr) is Category.MEDIUM
    assert categorize(math.floor(thr.medium_max), thr) is Category.MEDIUM
    assert categorize(math.ceil(thr.medium_max), thr) is Category.LONG
    with pytest.raises(ValueError):
        categorize(0, thr)


@given(st.integers(min_value=2, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_categorize_is_total(n, d, B, c):
    thr = Thresholds.from_n(n)
    assert categorize(d, thr, B=B, c=c) in Category


# ---------------------------------------------------------------------------
# Requests and instances.

def test_packet_request_properties():
    r = PacketRequest(id=0, a=2, b=7, t=3)
    assert r.distance == 5
    assert r.earliest_arrival == 8
    assert r.is_servable()
    assert not PacketRequest(id=0, a=2, b=7, t=3, deadline=7).is_servable()
    assert PacketRequest(id=0, a=2, b=7, t=3, deadline=8).is_servable()


def test_instance_validation():
    ok = Instance(n=4, B=1, c=1, requests=(PacketRequest(0, 0, 3, 1),))
    assert len(ok) == 1
    with pytest.raises(ValueError, match="ids"):
        Instance(n=4, B=1, c=1, requests=(PacketRequest(1, 0, 3, 1),))
    with pytest.raises(ValueError, match="a < b"):
        Instance(n=4, B=1, c=1, requests=(PacketRequest(0, 3, 3, 1),))
    with pytest.raises(ValueError, match="a < b"):
        Instance(n=4, B=1, c=1, requests=(PacketRequest(0, 0, 4, 1),))
    with pytest.raises(ValueError, match="release"):
        Instance(n=4, B=1, c=1, requests=(PacketRequest(0, 0, 3, 0),))
    with pytest.raises(ValueError, match="nodes"):
        Instance(n=1, B=1, c=1, requests=())
    with pytest.raises(ValueError, match="capacities"):
        Instance(n=4, B=0, c=1, requests=())


def test_unservable_deadline_warns_but_is_kept():
    with pytest.warns(UserWarning, match="never be served"):
        inst = Instance(n=4, B=1, c=1,
                        requests=(PacketRequest(0, 0, 3, 1, deadline=2),))
    assert inst.requests[0].deadline == 2


def test_canonical_sorts_and_renumbers():
    reqs = (PacketRequest(0, 1, 3, 5), PacketRequest(1, 0, 2, 1),
            PacketRequest(2, 0, 1, 5), PacketRequest(3, 1, 2, 1))
    inst = Instance(n=4, B=1, c=1, requests=reqs)
    keys = [(r.t, r.a, r.b) for r in inst.requests]
    assert keys != sorted(keys)
    canon = inst.canonical()
    keys = [(r.t, r.a, r.b) for r in canon.requests]
    assert keys == sorted(keys)
    assert [(r.t, r.a, r.b) for r in canon.requests] == [(1, 0, 2), (1, 1, 2), (5, 0, 1), (5, 1, 3)]
    assert [r.id for r in canon.requests] == [0, 1, 2, 3]
    assert canon.canonical() == canon


# ---------------------------------------------------------------------------
# JSON round trip.

def test_instance_json_round_trip_is_byte_identical(tmp_path):
    inst = gen_random_instance(16, 2, 1, 40, seed=7, deadline_slack=5)
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again == inst
    assert instance_to_json(again) == text
    p = tmp_path / "inst.json"
    save_instance(inst, p)
    assert load_instance(p) == inst
    assert p.read_text() == text


def test_instance_json_shape():
    inst = Instance(n=3, B=1, c=2,
                    requests=(PacketRequest(0, 0, 2, 1), PacketRequest(1, 1, 2, 4, deadline=9)))
    payload = json.loads(instance_to_json(inst))
    assert payload == {"n": 3, "B": 1, "c": 2,
                       "requests": [{"a": 0, "b": 2, "t": 1},
                                    {"a": 1, "b": 2, "t": 4, "deadline": 9}]}


@pytest.mark.parametrize("text", [
    "not json",
    "[]",
    '{"n":3,"B":1,"c":1}',
    '{"n":3,"B":1,"c":1,"requests":[],"extra":1}',
    '{"n":3,"B":1,"c":1,"requests":[{"a":0,"t":1}]}',
    '{"n":3,"B":1,"c":1,"requests":[{"a":0,"b":2,"t":1,"x":0}]}',
    '{"n":3,"B":true,"c":1,"requests":[]}',
    '{"n":3.0,"B":1,"c":1,"requests":[]}',
    '{"n":3,"B":1,"c":1,"requests":[{"a":0,"b":"2","t":1}]}',
    '{"n":3,"B":1,"c":1,"requests":[{"a":2,"b":1,"t":1}]}',
])
def test_instance_json_rejects_malformed(text):
    with pytest.raises(InstanceFormatError):
        instance_from_json(text)


# ---------------------------------------------------------------------------
# Random instances.

def test_generator_is_deterministic_and_canonical():
    a = gen_random_instance(64, 1, 1, 100, seed=3)
    b = gen_random_instance(64, 1, 1, 100, seed=3)
    assert a == b
    keys = [(r.t, r.a, r.b) for r in a.requests]
    assert keys == sorted(keys)
    assert [r.id for r in a.requests] == list(range(100))
    assert a != gen_random_instance(64, 1, 1, 100, seed=4)


def test_generator_respects_bounds():
    inst = gen_random_instance(16, 1, 1, 300, arrival_rate=2.0, seed=1)
    horizon = math.ceil(300 / 2.0)
    for r in inst.requests:
        assert 0 <= r.a < r.b < 16
        assert 1 <= r.t <= horizon
        assert r.deadline is None


def test_generator_distance_laws():
    fixed = gen_random_instance(16, 1, 1, 50, distance="fixed:3", seed=0)
    assert all(r.distance == 3 for r in fixed.requests)
    geo = gen_random_instance(8, 1, 1, 400, distance="geometric:0.5", seed=0)
    assert all(1 <= r.distance <= 7 for r in geo.requests)
    assert any(r.distance == 1 for r in geo.requests)
    with pytest.raises(ValueError):
        gen_random_instance(16, 1, 1, 10, distance="fixed:16")
    with pytest.raises(ValueError):
        gen_random_instance(16, 1, 1, 10, distance="zipf:2")


def test_generator_uniform_distance_mean():
    # Uniform on [1, 63]: mean 32, sd 18.18; with M=4000 the sample mean
    # stays within 1.0 of 32 far beyond the 3-sigma level.
    inst = gen_random_instance(64, 1, 1, 4000, seed=11)
    mean = sum(r.distance for r in inst.requests) / 4000.0
    assert abs(mean - 32.0) < 1.0


def test_generator_deadline_slack():
    inst = gen_random_instance(16, 1, 1, 60, seed=2, deadline_slack=4)
    assert all(r.deadline == r.t + r.distance + 4 for r in inst.requests)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gen_random_instance(16, 1, 1, 60, seed=2, deadline_slack=0)


def test_request_rng_streams_are_stable_and_distinct():
    first = request_rng(99, 0).random(4)
    assert np.array_equal(first, request_rng(99, 0).random(4))
    assert not np.array_equal(first, request_rng(99, 1).random(4))
    assert not np.array_equal(first, request_rng(98, 0).random(4))
    # Stream for id 7 does not depend on whether other ids were drawn first.
    lone = request_rng(5, 7).random()
    request_rng(5, 6).random()
    assert request_rng(5, 7).random() == lone
