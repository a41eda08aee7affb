"""In-memory span recorder for the benchmark's traced run.

Spans are opened only in the benchmark's own files, around calls into the
library's public functions; nothing inside ``src/`` is instrumented.  A
span is (id, name, start_ns, end_ns, parent id, op id).  The module a span
belongs to is the part of its name before the first dot, so
``losses.ap_loss`` is charged to ``losses``; spans without a dot (the
roots) are the benchmark's own glue.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def module(self) -> str | None:
        head, dot, _ = self.name.partition(".")
        return head if dot else None


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, op)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end_ns = time.perf_counter_ns()

    def durations_ns(self, name: str) -> list[int]:
        return [s.duration_ns for s in self.spans if s.name == name]

    def self_ns(self) -> dict[int, int]:
        """Each span's duration minus the time its direct children cover.

        Children of one parent never overlap (spans nest strictly), so the
        covered time is the sum of their durations.
        """
        child_ns = {s.id: 0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.duration_ns
        return {s.id: s.duration_ns - child_ns[s.id] for s in self.spans}

    def module_self_ns(self) -> dict[str, int]:
        """Self time summed per module; glue spans are charged to ``None``."""
        out: dict[str | None, int] = {}
        own = self.self_ns()
        for s in self.spans:
            out[s.module] = out.get(s.module, 0) + own[s.id]
        return out

    def wall_ns(self) -> int:
        return sum(s.duration_ns for s in self.spans if s.parent is None)

    def problems(self) -> list[str]:
        """Well-formedness violations; empty when the spans are consistent.

        Every span is closed and has non-negative duration, lies inside its
        parent, and does not overlap its earlier siblings.
        """
        found = []
        by_id = {s.id: s for s in self.spans}
        last_end: dict[int | None, int] = {}
        for s in self.spans:
            if s.end_ns < s.start_ns or s.end_ns == 0:
                found.append(f"span {s.id} ({s.name}) is not closed")
                continue
            if s.parent is not None:
                p = by_id.get(s.parent)
                if p is None or p.id >= s.id:
                    found.append(f"span {s.id} ({s.name}) has a bad parent {s.parent}")
                elif s.start_ns < p.start_ns or s.end_ns > p.end_ns:
                    found.append(f"span {s.id} ({s.name}) escapes its parent {p.name}")
            if s.start_ns < last_end.get(s.parent, s.start_ns):
                found.append(f"span {s.id} ({s.name}) overlaps an earlier sibling")
            last_end[s.parent] = s.end_ns
        return found

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "parent": s.parent,
                            "op": s.op,
                        }
                    )
                    + "\n"
                )
