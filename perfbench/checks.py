"""Output checks that share no code with the solver.

Requests are plain ``(a, b, t, deadline)`` tuples indexed by request id, and
schedules map id to ``"reject"`` or a string over ``s`` (store one step at
the current node) and ``f`` (forward over the link to the next node).  A
packet released at node ``a`` at step ``t`` spends step ``t + i`` on its
``i``-th move: in the buffer of its node for ``s``, on the outgoing link for
``f``.  It is delivered by the forward that reaches ``b``.

Nothing here imports ``linesched``: the replay re-derives every constraint
from the problem statement, and the greedy packer gives an independent lower
bound on the optimum that any valid upper bound must reach.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

Request = tuple[int, int, int, "int | None"]


def _occupy(buffers: Counter, links: Counter, a: int, t: int, moves) -> None:
    """Add one path's load: a store holds a buffer slot of its node for one
    step, a forward a slot of its outgoing link."""
    node = a
    for step, mv in enumerate(moves, start=t):
        if mv == "s":
            buffers[(node, step)] += 1
        else:
            links[(node, step)] += 1
            node += 1


def replay(n: int, B: int, c: int, requests: Sequence[Request],
           schedule: Mapping[int, str]) -> tuple[int, list[str]]:
    """Delivered count and every violation of ``schedule``.

    Checks that each request is decided exactly once, that a delivered path
    makes exactly ``b - a`` forwards and ends on one, that it arrives by its
    deadline, and that no (node, step) holds more than ``B`` stored packets
    and no (link, step) carries more than ``c``.
    """
    problems: list[str] = []
    extra = sorted(set(schedule) - set(range(len(requests))))
    problems += [f"request {rid}: not in the instance" for rid in extra]
    buffers: Counter[tuple[int, int]] = Counter()
    links: Counter[tuple[int, int]] = Counter()
    delivered = 0
    for rid, (a, b, t, deadline) in enumerate(requests):
        moves = schedule.get(rid)
        if moves is None:
            problems.append(f"request {rid}: undecided")
            continue
        if moves == "reject":
            continue
        if not moves or set(moves) - {"s", "f"}:
            problems.append(f"request {rid}: bad moves {moves!r}")
            continue
        if moves.count("f") != b - a:
            problems.append(f"request {rid}: {moves.count('f')} forwards, "
                            f"distance {b - a}")
            continue
        if moves[-1] != "f":
            problems.append(f"request {rid}: moves after delivery")
            continue
        if deadline is not None and t + len(moves) > deadline:
            problems.append(f"request {rid}: arrives {t + len(moves)}, "
                            f"deadline {deadline}")
        _occupy(buffers, links, a, t, moves)
        delivered += 1
    problems += [f"node {v} stores {k} > B={B} in step {s}"
                 for (v, s), k in sorted(buffers.items()) if k > B]
    problems += [f"link {v}->{v + 1} carries {k} > c={c} in step {s}"
                 for (v, s), k in sorted(links.items()) if k > c]
    if any(not 0 <= a < b < n for a, b, _, _ in requests):
        problems.append("request endpoints outside the line")
    return delivered, problems


def greedy_pack(B: int, c: int, requests: Sequence[Request]) -> dict[int, str]:
    """Schedule requests one by one in release order, never revisiting.

    A packet forwards whenever its link has room and otherwise stores if its
    buffer has room; it is rejected when neither has room or when it could
    no longer arrive within twice its distance or by its deadline.  Every
    path it keeps fits beside the ones kept before, so the result is valid
    and its size is a lower bound on the optimum.
    """
    buffers: Counter[tuple[int, int]] = Counter()
    links: Counter[tuple[int, int]] = Counter()
    schedule = {rid: "reject" for rid in range(len(requests))}
    for rid in sorted(range(len(requests)), key=lambda i: (requests[i][2], i)):
        a, b, t, deadline = requests[rid]
        limit = 2 * (b - a)
        if deadline is not None:
            limit = min(limit, deadline - t)
        if limit < b - a:
            continue
        node, step, moves = a, t, []
        while node < b:
            if links[(node, step)] < c:
                moves.append("f")
                node += 1
            elif len(moves) + 1 + (b - node) <= limit and buffers[(node, step)] < B:
                moves.append("s")
            else:
                break
            step += 1
        if node < b:
            continue
        _occupy(buffers, links, a, t, moves)
        schedule[rid] = "".join(moves)
    return schedule
