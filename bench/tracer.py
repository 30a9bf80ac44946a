"""Spans and counters around the benchmark's own calls into qjforms.

Every call the workloads make into a qjforms module goes through
``tracer.call(name, fn, *args)``.  The untraced :class:`NullTracer` calls
``fn`` directly; :class:`Tracer` keeps one span per call in memory
(name, start, end, parent span, item id) and adds counts read from the
call's inputs and outputs through the public API only (``len``,
``terms()``, ``items()``), so that counts repeat exactly for one seed.
Spans sit around the calls the benchmark makes; nothing inside qjforms is
instrumented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Untraced mode: every call goes straight through."""

    item: int | None = None

    def call(self, name, fn, *args):
        return fn(*args)


def _coeff_bits(form) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in form.terms()), default=0)


def _count_mul(counts, maxima, args, out):
    f, g = args
    counts["forms.mul.pairs"] += len(f) * len(g)
    counts["forms.mul.terms_out"] += len(out)
    maxima["forms.coeff_bits_max"] = max(maxima.get("forms.coeff_bits_max", 0), _coeff_bits(out))


def _count_derive(counts, maxima, args, out):
    counts["calculus.derive.terms_in"] += len(args[1])
    counts["calculus.derive.terms_out"] += len(out)


def _count_bracket(counts, maxima, args, out):
    counts["calculus.bracket.terms_out"] += len(out)


def _count_expand(counts, maxima, args, out):
    counts["series.expand.coeffs_out"] += len(out.items())


def _count_series_mul(counts, maxima, args, out):
    a, b = args
    counts["series.mul.pairs"] += len(a.items()) * len(b.items())


# Counts read at a layer boundary, by span name.
COUNTERS = {
    "forms.mul": _count_mul,
    "calculus.derive": _count_derive,
    "calculus.bracket": _count_bracket,
    "series.expand": _count_expand,
    "series.mul": _count_series_mul,
}


class Tracer(NullTracer):
    """Traced mode: spans and counts kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, item id]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            out = fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        self.counts[name + ".calls"] += 1
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self.counts, self.maxima, args, out)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, item."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
