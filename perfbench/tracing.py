"""Spans and size counts recorded from the benchmark's side of each call.

A request (or one set-up pass) is a unit: every span and count carries
the unit's id.  Spans nest through a stack, so a call made inside another
traced call becomes its child.  Everything stays in memory until the run
ends and the caller writes it out.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns


class NullTracer:
    """Untraced mode: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin(self, unit):
        pass

    def end(self):
        pass


class Tracer(NullTracer):
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or None, unit]
        self.spans: list[list] = []
        # count: (unit, name, value)
        self.counts: list[tuple] = []
        self._stack: list[int] = []
        self._unit = None

    def begin(self, unit):
        """Open a unit; its root span is named after the kind of unit."""
        self._unit = unit
        self._open(str(unit).split("#")[0])

    def end(self):
        self._close()
        self._unit = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), None, parent, self._unit])

    def _close(self):
        self.spans[self._stack.pop()][2] = perf_counter_ns()

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def add_counts(self, unit, counts: dict):
        self.counts.extend((unit, name, value) for name, value in counts.items())

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p, "unit": u}
                for n, s, e, p, u in self.spans
            ],
            "counts": [{"unit": u, "name": n, "value": v} for u, n, v in self.counts],
        }


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the part of it its children cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, unit in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, unit) in enumerate(spans):
        covered = 0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def per_unit_ms(spans: list[list]) -> dict[str, list[float]]:
    """For each span name, its self time summed within each unit, in ms."""
    sums: dict[str, dict] = {}
    for (name, _, _, _, unit), ns in zip(spans, self_times(spans)):
        per = sums.setdefault(name, {})
        per[unit] = per.get(unit, 0) + ns
    return {name: [v / 1e6 for v in per.values()] for name, per in sums.items()}


def per_unit_counts(counts: list[tuple]) -> dict[str, list[float]]:
    sums: dict[str, dict] = {}
    for unit, name, value in counts:
        per = sums.setdefault(name, {})
        per[unit] = per.get(unit, 0) + value
    return {name: list(per.values()) for name, per in sums.items()}


def median_or_zero(values) -> float:
    """Median of the values; 0 for a layer the workload never calls."""
    return float(statistics.median(values)) if values else 0.0
