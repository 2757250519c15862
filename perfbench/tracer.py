"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each qident layer from outside
the package: class attributes are replaced on the class, and module
functions are replaced in every qident module that holds a reference to
them (`from .qfunc import sum_exact` makes a second binding). Nothing
under src/ is edited, and `uninstall` restores every original.

Each call becomes a span (name, start, end, parent) kept in flat arrays;
counts are taken at the same boundaries. A span's self time is its
duration minus the durations of its direct children. Tracer bookkeeping
that runs after a child ends (the counters below) lands in the parent's
self time; the benchmark reports the whole cost as trace_overhead_frac.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from collections import Counter
from time import perf_counter

from qident import registry
from qident.series import LaurentSeries

#: (span name, module, attribute path) of every wrapped layer function;
#: the record builders (`records.build`) are wrapped per catalog record
LAYER_FUNCTIONS = (
    ("series.mul", "qident.series", "LaurentSeries.mul"),
    ("series.add", "qident.series", "LaurentSeries.__add__"),
    ("series.div_binomial", "qident.series", "LaurentSeries.div_binomial"),
    ("series.invert", "qident.series", "LaurentSeries.invert"),
    ("series.compare", "qident.series", "LaurentSeries.compare"),
    ("qfunc.PochTower.upto", "qident.qfunc", "PochTower.upto"),
    ("qfunc.vwp_factor", "qident.qfunc", "vwp_factor"),
    ("qfunc.poch_infinite", "qident.qfunc", "poch_infinite"),
    ("qfunc.sum_exact", "qident.qfunc", "sum_exact"),
    ("qfunc.sum_numeric", "qident.qfunc", "sum_numeric"),
    ("context.ExactCtx.mul", "qident.context", "ExactCtx.mul"),
    ("context.ExactCtx.summation", "qident.context", "ExactCtx.summation"),
    ("context.NumericCtx.mul", "qident.context", "NumericCtx.mul"),
    ("context.NumericCtx.poch", "qident.context", "NumericCtx.poch"),
    ("context.NumericCtx.poch_inf", "qident.context", "NumericCtx.poch_inf"),
    ("registry.verify_one", "qident.registry", "verify_one"),
    ("registry.sample_params", "qident.registry", "sample_params"),
)
RECORD_BUILD = "records.build"
SPAN_NAMES = tuple(n for n, _, _ in LAYER_FUNCTIONS) + (RECORD_BUILD,)


def resolve(module: str, path: str):
    """(owner, attribute, function) for a dotted attribute path; raises
    if the program no longer has it, so a rename cannot drop a layer."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        fn = owner.__dict__[attr]    # KeyError if the class lost it
    else:
        fn = getattr(owner, attr)
    if not callable(fn):
        raise TypeError(f"{module}.{path} is not callable")
    return owner, attr, fn


def coef_bits(s: LaurentSeries) -> int:
    """Largest coefficient height max(|numerator|, denominator) in bits."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in s.coeffs), default=0)


def coef_mults(a: LaurentSeries, b: LaurentSeries, out: LaurentSeries) -> int:
    """Coefficient multiplications the dense Cauchy loop of a.mul(b)
    performs: nonzero pairs (i, j) of the shorter and longer factor with
    i + j inside the result window."""
    x, y = a.coeffs, b.coeffs
    if len(x) > len(y):
        x, y = y, x
    if out.order is None:
        width = len(x) + len(y) - 1
    else:
        width = out.order - (a.min_deg + b.min_deg) + 1
    nonzero = [0]
    for c in y:
        nonzero.append(nonzero[-1] + (1 if c else 0))
    total = 0
    for i, c in enumerate(x):
        if c:
            k = min(len(y), width - i)
            if k > 0:
                total += nonzero[k]
    return total


class Tracer:
    """Records spans and counts while installed; see the module doc."""

    def __init__(self):
        self.names = array("B")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack = []
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        # resolve every target first, so a missing one patches nothing
        targets = [resolve(module, path)
                   for _, module, path in LAYER_FUNCTIONS]
        for code, ((name, _, _), (owner, attr, fn)) in enumerate(
                zip(LAYER_FUNCTIONS, targets)):
            wrapped = self._wrap(code, fn, self._after(name))
            if name.startswith("qfunc.sum_"):
                wrapped = self._counting_terms(wrapped, name)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
            else:
                for mod in [m for k, m in sys.modules.items()
                            if k == "qident" or k.startswith("qident.")]:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, key, wrapped)
        build_code = len(LAYER_FUNCTIONS)
        for rec in registry.catalog():
            self._patch(rec, "build", self._wrap(build_code, rec.build, None),
                        frozen=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig, frozen = self._patches.pop()
            if frozen:
                object.__setattr__(owner, attr, orig)
            else:
                setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, new, frozen=False) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        self._patches.append((owner, attr, orig, frozen))
        if frozen:
            object.__setattr__(owner, attr, new)
        else:
            setattr(owner, attr, new)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, code: int, fn, after):
        names, parents = self.names, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack

        def span(*args, **kw):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kw)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return span

    def _after(self, name: str):
        if name != "series.mul":
            return None
        counts = self.counts

        def count_mul(args, out):
            a, b = args[0], LaurentSeries.coerce(args[1])
            if len(a.coeffs) > 1 and len(b.coeffs) > 1:
                counts["series.mul.dense_calls"] += 1
                counts["series.mul.coef_mults"] += coef_mults(a, b, out)
            bits = coef_bits(out)
            if bits > counts["series.coef_bits.max"]:
                counts["series.coef_bits.max"] = bits

        return count_mul

    def _counting_terms(self, summer, name: str):
        """Count the terms a summation engine consumes."""
        counts, key = self.counts, f"{name}.terms"

        def counted(gen, *args, **kw):
            inner = gen.term

            def term(n):
                counts[key] += 1
                return inner(n)

            return summer(dataclasses.replace(gen, term=term), *args, **kw)

        return counted

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        self_s = list(dur)
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                self_s[p] -= dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in SPAN_NAMES}
        for i in range(n):
            agg = out[SPAN_NAMES[self.names[i]]]
            agg["calls"] += 1
            agg["total_s"] += dur[i]
            agg["self_s"] += self_s[i]
        return out
