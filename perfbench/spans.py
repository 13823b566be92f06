"""In-memory span recorder used by the traced benchmark run.

A span has a name, a start, an end and the id of the span that was open when
it started.  Spans are kept in a list and written once, at the end of a run.
Functions called many thousands of times per operation (a cloud insert, a
one-circle dump) are wrapped as *leaf* calls: they add their call count and
time to one aggregate record per (parent span, name) instead of a span each,
so tracing stays cheap and the trace file small.

Every record carries the label of the operation that was current when it was
made (``op1`` .. ``op4``), so metrics can be split per operation.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans, leaf aggregates and counts of one traced iteration, and the
    wrappers that record them."""

    def __init__(self):
        self.op = ""  # label of the operation being timed
        self.spans: list[dict] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._agg: dict[tuple[int | None, str, str], list] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "op": self.op,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[(self.op, name)] += value

    def _leaf(self, name: str, seconds: float) -> None:
        key = (self._stack[-1] if self._stack else None, name, self.op)
        rec = self._agg.get(key)
        if rec is None:
            self._agg[key] = [1, seconds]
        else:
            rec[0] += 1
            rec[1] += seconds

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, owners, attr: str, name: str, *, leaf: bool = False, on_result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper in every owner that
        binds the same function object (a module that imported the name by
        ``from x import f`` holds its own reference)."""
        original = getattr(owners[0], attr)

        if leaf:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._leaf(name, perf_counter() - t0)
                if on_result is not None:
                    on_result(self, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result)
                return result

        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- merging and reading ---------------------------------------------------------

    def merge(self, doc: dict) -> None:
        """Adopt the spans and counts a traced child process saved, under
        the currently open span and operation.  perf_counter reads the
        system-wide monotonic clock, so child times line up with ours."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in doc["spans"]:
            self.spans.append(dict(
                s, id=base + s["id"], op=self.op,
                parent=parent if s["parent"] is None else base + s["parent"]))
        for rec in doc["leaves"]:
            p = parent if rec["parent"] is None else base + rec["parent"]
            key = (p, rec["name"], self.op)
            acc = self._agg.setdefault(key, [0, 0.0])
            acc[0] += rec["calls"]
            acc[1] += rec["seconds"]
        for rec in doc["counts"]:
            self.counts[(self.op, rec["name"])] += rec["value"]

    def to_doc(self) -> dict:
        """The spans, leaf aggregates and counts as plain JSON data: what a
        traced child hands to its parent, and what the trace file holds."""
        return {
            "spans": self.spans,
            "leaves": [{"parent": p, "name": n, "op": op, "calls": c, "seconds": s}
                       for (p, n, op), (c, s) in self._agg.items()],
            "counts": [{"op": op, "name": n, "value": v} for (op, n), v in self.counts.items()],
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh)

    def totals(self, op: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds,
        over the whole trace or over one operation."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for (parent, _, _), (_, seconds) in self._agg.items():
            if parent is not None:
                child_time[parent] += seconds
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self": 0.0})
        for s in self.spans:
            if op is not None and s["op"] != op:
                continue
            dur = s["end"] - s["start"]
            rec = out[s["name"]]
            rec["calls"] += 1
            rec["seconds"] += dur
            rec["self"] += dur - child_time[s["id"]]
        for (_, name, rec_op), (calls, seconds) in self._agg.items():
            if op is not None and rec_op != op:
                continue
            rec = out[name]
            rec["calls"] += calls
            rec["seconds"] += seconds
            rec["self"] += seconds
        return out

    def counted(self, op: str | None = None) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (rec_op, name), value in self.counts.items():
            if op is None or rec_op == op:
                out[name] += value
        return out
