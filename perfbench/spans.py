"""Timing spans around the module attributes the solve path calls.

``Tracer`` swaps each watched attribute for a wrapper while it is active and
puts the original back afterwards, so the package under test is unchanged
and untraced solves run the original functions.  Every call becomes a span
with its parent (the innermost watched call still open), which tells the
lambda-scaled fractional solve (parent ``run_medium_long``) from the bound
solve (parent ``fractional_upper_bound``).  Counts are read from the values
the calls return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    result: Any = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Records spans for calls to ``targets``: (module, attribute) pairs."""

    targets: list[tuple[Any, str]]
    spans: list[Span] = field(default_factory=list)
    _open: list[Span] = field(default_factory=list)
    _saved: list[tuple[Any, str, Callable]] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None,
                        time.perf_counter())
            self._open.append(span)
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            return span.result
        return traced

    def __enter__(self) -> "Tracer":
        for module, attr in self.targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans
