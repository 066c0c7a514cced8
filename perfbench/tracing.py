"""Span tracing of factorlab from outside the program.

A Tracer builds wrappers for module attributes (for example
factorlab.lattice.lll_reduce) that record one span per call: id, parent id,
name, start, end, the operation it belongs to, and a small info dict.  Inside
`with tracer:` the wrappers replace the attributes; on exit the originals are
back.  Only attributes that the program looks up at call time are wrapped, so
every caller sees the wrapper.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    op: int
    t0: float
    t1: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


Describe = Callable[[tuple, dict, Any, BaseException | None], dict]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._wrapped: list[tuple[object, str, object, object]] = []

    def wrap(self, module: object, attr: str, name: str,
             describe: Describe | None = None) -> None:
        """Build a span-recording wrapper for module.attr, installed while the
        tracer is entered.  describe(args, kwargs, result, exc) runs after the
        span's end time is taken."""
        original = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1].sid if stack else -1, name,
                        self.op, 0.0)
            spans.append(span)
            stack.append(span)
            span.t0 = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.t1 = clock()
                stack.pop()
                span.info["raised"] = type(exc).__name__
                if describe is not None:
                    span.info.update(describe(args, kwargs, None, exc))
                raise
            span.t1 = clock()
            stack.pop()
            if describe is not None:
                span.info.update(describe(args, kwargs, result, None))
            return result

        self._wrapped.append((module, attr, original, traced))

    def __enter__(self) -> "Tracer":
        for module, attr, _original, traced in self._wrapped:
            setattr(module, attr, traced)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original, _traced in reversed(self._wrapped):
            setattr(module, attr, original)

    def close_spans(self) -> None:
        """Fill in child time so that self_seconds is duration minus the part
        covered by direct children (calls are nested and single-threaded)."""
        for span in self.spans:
            span.child_s = 0.0
        for span in self.spans:
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.seconds

    def write(self, path: str) -> None:
        origin = self.spans[0].t0 if self.spans else 0.0
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "op": s.op,
                    "name": s.name,
                    "start_us": round((s.t0 - origin) * 1e6, 3),
                    "dur_us": round(s.seconds * 1e6, 3),
                    "self_us": round(s.self_seconds * 1e6, 3),
                    "info": s.info,
                }) + "\n")
