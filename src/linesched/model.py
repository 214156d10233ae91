"""Instances, constants, and request categorization.

Everything in this package runs on a directed line of ``n`` nodes.  Each node
may hold at most ``B`` packets between time steps and each link ``v -> v+1``
may carry at most ``c`` packets per step.  A request ``(a, b, t)`` asks to
move one packet from node ``a`` to node ``b > a``, entering the network at
time ``t >= 1``.  Moving across a link takes one step, and so does staying
put, so a packet accepted at ``t`` that performs ``L`` actions arrives at
``t + L``.  The goal is always to deliver as many requests as possible.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Category",
    "Instance",
    "InstanceFormatError",
    "PacketRequest",
    "SolverInvariantError",
    "Thresholds",
    "capacity_scale",
    "categorize",
    "chernoff_exponent",
    "gen_random_instance",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "request_rng",
    "round_up_to_multiple_of_6",
    "save_instance",
]


class SolverInvariantError(AssertionError):
    """A solver self-check failed.  That is a bug, never a fault of the input.

    Raised explicitly rather than by ``assert``, so the checks still run
    under ``python -O``.
    """


# ---------------------------------------------------------------------------
# Concentration constants.

def chernoff_exponent(delta: float) -> float:
    """Rate ``(1+delta)*ln(1+delta) - delta`` of the multiplicative Chernoff bound.

    For a sum X of independent [0,1] variables with mean mu,
    ``Pr[X >= (1+delta)*mu] <= exp(-mu * chernoff_exponent(delta))`` for delta >= 0.
    Defined for ``delta > -1``; convex, nonnegative, zero exactly at delta = 0.
    """
    if delta <= -1.0:
        raise ValueError(f"chernoff_exponent needs delta > -1, got {delta}")
    return (1.0 + delta) * math.log1p(delta) - delta


def capacity_scale() -> float:
    """Fraction of link/buffer capacity the fractional relaxation is run at.

    Equal to ``chernoff_exponent(1) / 6`` (about 0.0644).  Small enough that
    randomized rounding overloads any fixed edge by more than a factor of two
    only with probability exponentially small in the congestion budget.
    """
    return chernoff_exponent(1.0) / 6.0


def round_up_to_multiple_of_6(x: float, minimum: int = 6) -> int:
    """Smallest multiple of 6 that is >= x (and >= minimum).

    Tile side lengths must be divisible by 6 so that both the half-tile shift
    and the per-side admission quota k/3 stay integral.
    """
    return max(minimum, 6 * math.ceil(x / 6.0))


# ---------------------------------------------------------------------------
# Request categories.

class Category(Enum):
    VERY_SHORT = "very_short"
    SHORT = "short"
    MEDIUM = "medium"
    LONG = "long"


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Distance cutoffs separating the solver regimes, all functions of n.

    ``medium_max = 3 ln n``, ``short_max = 3 ln(3 ln n)`` and
    ``very_short_max = ln(short_max)``.  For n >= 5 these are strictly
    increasing in the expected order; for n in {2, 3, 4} short_max can exceed
    medium_max, in which case every request categorizes as short and the
    exact small-tile solver covers the whole instance.
    """

    short_max: float
    medium_max: float
    very_short_max: float

    @classmethod
    def from_n(cls, n: int) -> "Thresholds":
        if n < 2:
            raise ValueError(f"need at least 2 nodes, got n={n}")
        medium_max = 3.0 * math.log(n)
        short_max = 3.0 * math.log(medium_max)
        very_short_max = math.log(short_max)
        return cls(short_max=short_max, medium_max=medium_max,
                   very_short_max=very_short_max)


def categorize(distance: int, thresholds: Thresholds, B: int = 1, c: int = 1) -> Category:
    """Category of a request with the given source-destination distance.

    Checked in the order very-short, short, medium, long, so the function is
    total even when the cutoffs are degenerate (tiny n).  The very-short
    class only exists when both capacities exceed 1; at unit capacity those
    requests are handled as short.
    """
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
    if min(B, c) > 1 and distance <= thresholds.very_short_max:
        return Category.VERY_SHORT
    if distance <= thresholds.short_max:
        return Category.SHORT
    if distance <= thresholds.medium_max:
        return Category.MEDIUM
    return Category.LONG


# ---------------------------------------------------------------------------
# Requests and instances.

@dataclass(frozen=True, slots=True)
class PacketRequest:
    """One unit-demand request: carry a packet from node a to node b > a.

    ``t`` is the time the packet becomes available at ``a``.  ``deadline``,
    if set, is the latest admissible arrival time.  A deadline below
    ``t + (b - a)`` makes the request unservable; such requests are legal in
    an instance (solvers reject them) but trigger a warning on construction.
    """

    id: int
    a: int
    b: int
    t: int
    deadline: int | None = None

    @property
    def distance(self) -> int:
        return self.b - self.a

    @property
    def earliest_arrival(self) -> int:
        return self.t + self.distance

    def is_servable(self) -> bool:
        return self.deadline is None or self.deadline >= self.earliest_arrival


@dataclass(frozen=True)
class Instance:
    n: int
    B: int
    c: int
    requests: tuple[PacketRequest, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got n={self.n}")
        if self.B < 1 or self.c < 1:
            raise ValueError(f"capacities must be >= 1, got B={self.B} c={self.c}")
        unservable = 0
        for i, r in enumerate(self.requests):
            if r.id != i:
                raise ValueError(f"request ids must be 0..M-1 in order; position {i} has id {r.id}")
            if not (0 <= r.a < r.b < self.n):
                raise ValueError(f"request {i}: need 0 <= a < b < n, got a={r.a} b={r.b} n={self.n}")
            if r.t < 1:
                raise ValueError(f"request {i}: release time must be >= 1, got t={r.t}")
            if r.deadline is not None and not r.is_servable():
                unservable += 1
        if unservable:
            warnings.warn(
                f"{unservable} request(s) have deadlines before their earliest "
                "possible arrival and can never be served",
                stacklevel=2,
            )

    def __len__(self) -> int:
        return len(self.requests)

    def canonical(self) -> "Instance":
        """Copy with requests sorted by (t, a, b) and ids renumbered to match."""
        order = sorted(self.requests, key=lambda r: (r.t, r.a, r.b))
        reqs = tuple(
            PacketRequest(id=i, a=r.a, b=r.b, t=r.t, deadline=r.deadline)
            for i, r in enumerate(order)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return Instance(self.n, self.B, self.c, reqs)


# ---------------------------------------------------------------------------
# JSON round trip.  The canonical serialized form is compact JSON with fields
# in a pinned order; load(save(x)) is byte-identical for canonical instances.

class InstanceFormatError(ValueError):
    pass


def instance_to_json(instance: Instance) -> str:
    reqs = []
    for r in instance.requests:
        entry: dict[str, int] = {"a": r.a, "b": r.b, "t": r.t}
        if r.deadline is not None:
            entry["deadline"] = r.deadline
        reqs.append(entry)
    payload = {"n": instance.n, "B": instance.B, "c": instance.c, "requests": reqs}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _as_int(obj: object, what: str) -> int:
    # bool is an int subclass; JSON true/false must not sneak in as 1/0.
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise InstanceFormatError(f"{what} must be an integer, got {obj!r}")
    return obj


def instance_from_json(text: str) -> Instance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"not valid JSON: {e}") from e
    if not isinstance(payload, dict):
        raise InstanceFormatError("top level must be an object")
    missing = {"n", "B", "c", "requests"} - payload.keys()
    if missing:
        raise InstanceFormatError(f"missing fields: {sorted(missing)}")
    extra = payload.keys() - {"n", "B", "c", "requests"}
    if extra:
        raise InstanceFormatError(f"unknown fields: {sorted(extra)}")
    if not isinstance(payload["requests"], list):
        raise InstanceFormatError("requests must be an array")
    reqs = []
    for i, entry in enumerate(payload["requests"]):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"request {i} must be an object")
        extra = entry.keys() - {"a", "b", "t", "deadline"}
        if extra:
            raise InstanceFormatError(f"request {i}: unknown fields {sorted(extra)}")
        missing = {"a", "b", "t"} - entry.keys()
        if missing:
            raise InstanceFormatError(f"request {i}: missing fields {sorted(missing)}")
        deadline = None
        if "deadline" in entry:
            deadline = _as_int(entry["deadline"], f"request {i} deadline")
        reqs.append(PacketRequest(
            id=i,
            a=_as_int(entry["a"], f"request {i} field a"),
            b=_as_int(entry["b"], f"request {i} field b"),
            t=_as_int(entry["t"], f"request {i} field t"),
            deadline=deadline,
        ))
    try:
        return Instance(
            n=_as_int(payload["n"], "n"),
            B=_as_int(payload["B"], "B"),
            c=_as_int(payload["c"], "c"),
            requests=tuple(reqs),
        )
    except InstanceFormatError:
        raise
    except ValueError as e:
        raise InstanceFormatError(str(e)) from e


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


# ---------------------------------------------------------------------------
# Random instances and per-request randomness.

def request_rng(master_seed: int, request_id: int) -> np.random.Generator:
    """Independent generator for one request, derived from the master seed.

    Uses SeedSequence spawn keys, so the stream a request sees depends only
    on (master_seed, request_id) and not on how many other requests exist or
    in which order they are processed.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(request_id,)))


def _distance_law(distance: str, n: int) -> tuple[str, float]:
    """Parse and check a distance law: ``("uniform", 0)``, ``("fixed", D)``
    or ``("geometric", P)``."""
    if distance == "uniform":
        return "uniform", 0
    kind, _, arg = distance.partition(":")
    if kind == "fixed" and arg:
        d = int(arg)
        if not (1 <= d <= n - 1):
            raise ValueError(f"fixed distance must be in [1, n-1], got {d}")
        return kind, d
    if kind == "geometric" and arg:
        p = float(arg)
        if not (0.0 < p <= 1.0):
            raise ValueError(f"geometric parameter must be in (0, 1], got {p}")
        return kind, p
    raise ValueError(f"unknown distance form {distance!r}; "
                     "use 'uniform', 'fixed:D' or 'geometric:P'")


def check_generator_args(n: int, M: int, arrival_rate: float,
                         distance: str) -> tuple[str, float]:
    """Raise ValueError for arguments ``gen_random_instance`` rejects before
    it draws anything, and return the parsed distance law.  ``n``, ``B``
    and ``c`` are checked by the ``Instance`` it returns."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    if not arrival_rate > 0.0:
        raise ValueError("arrival_rate must be positive")
    return _distance_law(distance, n)


def gen_random_instance(n: int, B: int, c: int, M: int, *,
                        arrival_rate: float = 1.0,
                        distance: str = "uniform",
                        seed: int = 0,
                        deadline_slack: int | None = None) -> Instance:
    """Random canonical instance with M requests.

    Release times are uniform on [1, ceil(M / arrival_rate)], so
    ``arrival_rate`` is the expected number of new requests per time step.
    ``distance`` selects the source-destination gap law: ``uniform`` over
    [1, n-1], ``fixed:D``, or ``geometric:P`` capped at n-1.  When
    ``deadline_slack`` is given every request gets the deadline
    ``t + distance + deadline_slack``.
    """
    kind, arg = check_generator_args(n, M, arrival_rate, distance)
    rng = np.random.default_rng(seed)
    horizon = max(1, math.ceil(M / arrival_rate))
    ts = rng.integers(1, horizon + 1, size=M)
    if kind == "uniform":
        ds = rng.integers(1, n, size=M)
    elif kind == "fixed":
        ds = np.full(M, arg, dtype=np.int64)
    else:
        ds = np.minimum(rng.geometric(arg, size=M), n - 1)
    reqs = []
    for i in range(M):
        d = int(ds[i])
        a = int(rng.integers(0, n - d))
        t = int(ts[i])
        deadline = None if deadline_slack is None else t + d + deadline_slack
        reqs.append(PacketRequest(id=i, a=a, b=a + d, t=t, deadline=deadline))
    return Instance(n=n, B=B, c=c, requests=tuple(reqs)).canonical()
