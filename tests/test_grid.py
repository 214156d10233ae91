import pytest
from hypothesis import given
from hypothesis import strategies as st

from linesched.grid import (
    GridPath,
    ScheduleFormatError,
    packing_to_schedule,
    request_origin,
    schedule_from_json,
    schedule_to_json,
    throughput,
    validate_schedule,
)
from linesched.model import Instance, PacketRequest


def make_instance(n, B, c, *abts):
    reqs = tuple(PacketRequest(i, a, b, t, deadline)
                 for i, (a, b, t, *rest) in enumerate(abts)
                 for deadline in [rest[0] if rest else None])
    return Instance(n=n, B=B, c=c, requests=reqs)


# ---------------------------------------------------------------------------
# Paths in the untilted grid.

def test_request_origin():
    assert request_origin(PacketRequest(0, 3, 5, 2)) == (3, -1)
    assert request_origin(PacketRequest(0, 0, 5, 7)) == (0, 7)


def test_path_cells_and_edges():
    assert list(GridPath(1, 2, "sff").cells()) == [(1, 2), (1, 3), (2, 3), (3, 3)]
    assert list(GridPath(1, 2, "sff").edges()) == [("s", 1, 2), ("f", 1, 3), ("f", 2, 3)]
    assert list(GridPath(4, -3, "").cells()) == [(4, -3)]
    assert list(GridPath(4, -3, "").edges()) == []
    with pytest.raises(ValueError):
        GridPath(0, 0, "sx")


def test_grid_path():
    p = GridPath(2, -1, "fsf")
    assert p.end == (4, 0)
    assert len(p) == 3
    assert list(p.cells())[-1] == p.end
    with pytest.raises(ValueError):
        GridPath(0, 0, "abc")


@given(st.integers(-5, 5), st.integers(-5, 5), st.text(alphabet="sf", max_size=12))
def test_original_time_is_row_plus_col(row, col, moves):
    # Every action advances original time t = row + col by exactly one.
    path = GridPath(row, col, moves)
    cells = list(path.cells())
    for i, (r, c) in enumerate(cells):
        assert r + c == row + col + i
    # every edge leaves the cell before it and enters the cell after it
    for (kind, r, c), before, after in zip(path.edges(), cells, cells[1:]):
        assert (r, c) == before
        assert after == ((r + 1, c) if kind == "f" else (r, c + 1))


# ---------------------------------------------------------------------------
# Validator.

def test_two_requests_same_link_need_a_stagger():
    inst = make_instance(3, 1, 1, (0, 1, 1), (0, 1, 1))
    clash = validate_schedule(inst, {0: "f", 1: "f"})
    assert not clash.ok
    assert any("link overload" in v for v in clash.violations)
    staggered = validate_schedule(inst, {0: "f", 1: "sf"})
    assert staggered.ok
    assert staggered.accepted == 2
    assert staggered.arrivals == {0: 2, 1: 3}
    assert throughput(inst, {0: "f", 1: "sf"}) == 2
    with pytest.raises(ValueError, match="invalid schedule"):
        throughput(inst, {0: "f", 1: "f"})


def test_buffer_capacity_is_checked():
    inst = make_instance(3, 1, 1, (0, 1, 1), (0, 1, 1))
    v = validate_schedule(inst, {0: "sf", 1: "sf"})
    assert not v.ok
    assert any("buffer overflow" in s for s in v.violations)
    roomy = make_instance(3, 2, 2, (0, 1, 1), (0, 1, 1))
    assert validate_schedule(roomy, {0: "sf", 1: "sf"}).ok


def test_structural_violations():
    inst = make_instance(4, 1, 1, (0, 2, 1))
    assert not validate_schedule(inst, {}).ok
    assert not validate_schedule(inst, {0: "ff", 5: "f"}).ok
    assert not validate_schedule(inst, {0: "f"}).ok          # one forward short
    assert not validate_schedule(inst, {0: "fff"}).ok        # overshoots b
    assert not validate_schedule(inst, {0: "ffs"}).ok        # action after delivery
    assert not validate_schedule(inst, {0: ""}).ok
    assert not validate_schedule(inst, {0: "fx"}).ok
    assert validate_schedule(inst, {0: "reject"}).ok
    assert validate_schedule(inst, {0: "sfsf"}).ok


def test_deadline_violation():
    inst = make_instance(4, 1, 1, (0, 2, 1, 4))
    assert validate_schedule(inst, {0: "fsf"}).ok            # arrives at 4
    late = validate_schedule(inst, {0: "sfsf"})              # arrives at 5
    assert not late.ok
    assert "deadline" in late.violations[0]


def test_rejected_requests_consume_nothing():
    inst = make_instance(3, 1, 1, (0, 1, 1), (0, 1, 1), (0, 1, 1))
    v = validate_schedule(inst, {0: "f", 1: "reject", 2: "sf"})
    assert v.ok and v.accepted == 2


# ---------------------------------------------------------------------------
# Packings and schedule files.

def test_packing_round_trip():
    inst = make_instance(5, 1, 1, (0, 2, 1), (1, 4, 2), (2, 3, 1))
    schedule = {0: "fsf", 1: "fff", 2: "reject"}
    packing = {0: GridPath(0, 1, "fsf"), 1: GridPath(1, 1, "fff")}
    assert packing[0] == GridPath(*request_origin(inst.requests[0]), "fsf")
    assert packing[1] == GridPath(*request_origin(inst.requests[1]), "fff")
    assert packing_to_schedule(inst, packing) == schedule
    bad = {0: GridPath(1, 1, "fsf")}
    with pytest.raises(ValueError, match="origin"):
        packing_to_schedule(inst, bad)


def test_schedule_json_round_trip():
    sched = {2: "reject", 0: "sff", 1: "f"}
    text = schedule_to_json(sched)
    assert text == '{"0":"sff","1":"f","2":"reject"}\n'
    assert schedule_from_json(text) == sched


@pytest.mark.parametrize("text", [
    "[]",
    '{"x":"f"}',
    '{"0":5}',
    '{"0":""}',
    '{"0":"fq"}',
    '{"0":"accepted"}',
])
def test_schedule_json_rejects_malformed(text):
    with pytest.raises(ScheduleFormatError):
        schedule_from_json(text)
