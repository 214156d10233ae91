"""Space-time paths and the schedule validator.

The untilted grid maps node v at time t to cell ``(row, col) = (v, t - v)``.
A store keeps the packet at its node for one step, ``(r, c) -> (r, c+1)``;
a forward crosses one link, ``(r, c) -> (r+1, c)``.  Either way original
time t = row + col grows by one per action, and columns may go negative.

Schedules are flat dicts ``request id -> "reject" | moves``, where moves is
a string over ``s`` (store) and ``f`` (forward).  A packet is delivered the
moment it first reaches its destination, so a valid moves string contains
exactly ``b - a`` forwards and ends with one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .model import Instance, PacketRequest

__all__ = [
    "GridPath",
    "ScheduleFormatError",
    "Verdict",
    "load_schedule",
    "packing_to_schedule",
    "request_origin",
    "save_schedule",
    "throughput",
    "validate_schedule",
]

_MOVES = frozenset("sf")


def request_origin(req: PacketRequest) -> tuple[int, int]:
    """Untilted cell where the request's packet enters the grid."""
    return (req.a, req.t - req.a)


@dataclass(frozen=True, slots=True)
class GridPath:
    row: int
    col: int
    moves: str

    def __post_init__(self) -> None:
        if not _MOVES.issuperset(self.moves):
            raise ValueError(f"moves must be over 's'/'f', got {self.moves!r}")

    @property
    def end(self) -> tuple[int, int]:
        return (self.row + self.moves.count("f"),
                self.col + self.moves.count("s"))

    def edges(self) -> Iterator[tuple[str, int, int]]:
        """Grid edges of the path as (kind, tail_row, tail_col) triples."""
        row, col = self.row, self.col
        for mv in self.moves:
            yield (mv, row, col)
            if mv == "s":
                col += 1
            else:
                row += 1

    def cells(self) -> Iterator[tuple[int, int]]:
        """All cells the path visits, starting cell included."""
        yield (self.row, self.col)
        for mv, row, col in self.edges():
            yield (row + 1, col) if mv == "f" else (row, col + 1)

    def __len__(self) -> int:
        return len(self.moves)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    accepted: int
    violations: tuple[str, ...]
    arrivals: dict[int, int] = field(default_factory=dict)


def validate_schedule(instance: Instance, schedule: Mapping[int, str]) -> Verdict:
    """Check a schedule against the instance; never raises on bad schedules.

    Verifies coverage (every request id decided, no strays), per-path shape
    (moves alphabet, exactly distance-many forwards, delivery on the last
    action, deadline respected) and global capacities: at most B packets
    stored per node per step, at most c packets per link per step.
    """
    violations: list[str] = []
    ids = set(range(len(instance.requests)))
    for rid in sorted(ids - schedule.keys()):
        violations.append(f"request {rid}: missing from schedule")
    for rid in sorted(schedule.keys() - ids):
        violations.append(f"request {rid}: not part of the instance")

    buffer_load: dict[tuple[int, int], int] = {}
    link_load: dict[tuple[int, int], int] = {}
    arrivals: dict[int, int] = {}
    accepted = 0

    for req in instance.requests:
        moves = schedule.get(req.id)
        if moves is None or moves == "reject":
            continue
        accepted += 1
        if not moves or not _MOVES.issuperset(moves):
            violations.append(f"request {req.id}: bad moves string {moves!r}")
            continue
        if moves.count("f") != req.distance:
            violations.append(
                f"request {req.id}: {moves.count('f')} forwards for distance {req.distance}")
            continue
        if moves[-1] != "f":
            violations.append(
                f"request {req.id}: actions continue after delivery ({moves!r})")
            continue
        arrival = req.t + len(moves)
        arrivals[req.id] = arrival
        if req.deadline is not None and arrival > req.deadline:
            violations.append(
                f"request {req.id}: arrives at {arrival}, deadline {req.deadline}")
        v = req.a
        for i, mv in enumerate(moves):
            step = req.t + i
            if mv == "s":
                buffer_load[(v, step)] = buffer_load.get((v, step), 0) + 1
            else:
                link_load[(v, step)] = link_load.get((v, step), 0) + 1
                v += 1

    for (v, step), load in sorted(buffer_load.items()):
        if load > instance.B:
            violations.append(
                f"buffer overflow: node {v} holds {load} > B={instance.B} during step {step}")
    for (v, step), load in sorted(link_load.items()):
        if load > instance.c:
            violations.append(
                f"link overload: {load} > c={instance.c} packets on {v}->{v + 1} during step {step}")

    return Verdict(ok=not violations, accepted=accepted,
                   violations=tuple(violations), arrivals=arrivals)


def throughput(instance: Instance, schedule: Mapping[int, str]) -> int:
    """Number of delivered requests; raises if the schedule is invalid."""
    verdict = validate_schedule(instance, schedule)
    if not verdict.ok:
        head = "; ".join(verdict.violations[:3])
        raise ValueError(f"invalid schedule ({len(verdict.violations)} violations): {head}")
    return verdict.accepted


def packing_to_schedule(instance: Instance,
                        packing: Mapping[int, GridPath]) -> dict[int, str]:
    """Turn accepted grid paths into a full schedule, rejecting the rest."""
    schedule: dict[int, str] = {}
    for req in instance.requests:
        path = packing.get(req.id)
        if path is None:
            schedule[req.id] = "reject"
            continue
        if (path.row, path.col) != request_origin(req):
            raise ValueError(
                f"request {req.id}: path starts at {(path.row, path.col)}, "
                f"request origin is {request_origin(req)}")
        schedule[req.id] = path.moves
    return schedule


# ---------------------------------------------------------------------------
# Schedule files: one JSON object, ids as decimal keys in numeric order.

class ScheduleFormatError(ValueError):
    pass


def schedule_to_json(schedule: Mapping[int, str]) -> str:
    payload = {str(rid): schedule[rid] for rid in sorted(schedule)}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def schedule_from_json(text: str) -> dict[int, str]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScheduleFormatError(f"not valid JSON: {e}") from e
    if not isinstance(payload, dict):
        raise ScheduleFormatError("top level must be an object")
    schedule: dict[int, str] = {}
    for key, value in payload.items():
        try:
            rid = int(key)
        except ValueError:
            raise ScheduleFormatError(f"non-integer request id {key!r}") from None
        if not isinstance(value, str):
            raise ScheduleFormatError(f"request {key}: value must be a string")
        if value != "reject" and (not value or not _MOVES.issuperset(value)):
            raise ScheduleFormatError(
                f"request {key}: expected 'reject' or a moves string, got {value!r}")
        if rid in schedule:
            raise ScheduleFormatError(f"duplicate request id {rid}")
        schedule[rid] = value
    return schedule


def save_schedule(schedule: Mapping[int, str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(schedule_to_json(schedule))


def load_schedule(path) -> dict[int, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_json(fh.read())
