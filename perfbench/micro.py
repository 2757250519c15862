"""Isolated layer timings on the checked-in operands.

Each micro-benchmark runs one layer call (or a fixed small batch of
them) on operands read from data/micro_operands.json, and reports the
median wall time of REPS[name] repetitions in milliseconds, rescaled to
reference speed. The operands are
data, not captured at run time, so a later change to which products the
catalog forms cannot change what is timed here.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from qident import bailey, pte
from qident.context import ExactCtx
from qident.qfunc import PochTower, TermGenerator, sum_exact
from qident.series import LaurentSeries, QMonomial

OPERANDS = Path(__file__).resolve().parent / "data" / "micro_operands.json"


def decode(d):
    if "mono" in d:
        c, e = d["mono"]
        return QMonomial(Fraction(c), e)
    if "frac" in d:
        return Fraction(d["frac"])
    pairs = [(d["min_deg"] + i, Fraction(c))
             for i, c in enumerate(d["coeffs"])]
    return LaurentSeries.from_pairs(pairs, d["order"])


def mono(pair) -> QMonomial:
    return QMonomial(Fraction(pair[0]), pair[1])


def load(path: Path = OPERANDS) -> dict:
    """Decode the operand file into the callables the micro loop times;
    each callable performs one repetition and returns its results."""
    raw = json.loads(path.read_text())
    tall = [(decode(a), decode(b), cap) for a, b, cap in raw["mul_w45_tall"]]
    wide = [(decode(a), decode(b)) for a, b in raw["mul_w125_small"]]
    divs = [(decode(s), Fraction(c), e) for s, c, e in raw["div_binomial_w45"]]
    invs = [decode(s) for s in raw["invert_w45"]]
    pt = raw["poch_tower"]
    sx = raw["sum_exact_fixed"]
    terms = [decode(t) for t in sx["terms"]]
    zero = LaurentSeries.zero(sx["order"])
    m6 = raw["exact_ctx_mul6"]
    m6_args = [decode(v) for v in m6["args"]]
    cs = raw["cor_sides_o30"]
    alpha = [Fraction(v) for v in cs["alpha"]]
    fam = raw["pte_family12"]

    def fixed_term(n):
        return terms[n] if n < len(terms) else zero

    def ctx_mul6():
        target, denom, headroom = m6["ctx"]
        return ExactCtx(target // denom, denom, headroom).mul(*m6_args)

    def pte12():
        a, b = pte.family12(Fraction(fam["m"]), Fraction(fam["K"]))
        return pte.check_pte(a, b, fam["k"])

    return {
        "micro.series.mul_w45_tall":
            lambda: [a.mul(b, cap=cap) for a, b, cap in tall],
        "micro.series.mul_w125_small":
            lambda: [a.mul(b) for a, b in wide],
        "micro.series.div_binomial_w45":
            lambda: [s.div_binomial(c, e) for s, c, e in divs],
        "micro.series.invert_w45":
            lambda: [s.invert() for s in invs],
        "micro.qfunc.PochTower_upto40":
            lambda: PochTower(mono(pt["a"]), mono(pt["base"]), pt["order"],
                              invert=pt["invert"]).upto(pt["n"]),
        "micro.qfunc.sum_exact_fixed":
            lambda: sum_exact(TermGenerator(fixed_term), sx["order"]),
        "micro.context.ExactCtx_mul6": ctx_mul6,
        "micro.bailey.cor_sides_o30":
            lambda: bailey.cor_sides(bailey.AlphaSequence.from_values(alpha),
                                     mono(cs["x"]), mono(cs["y"]),
                                     mono(cs["z"]), cs["order"]),
        "micro.pte.check_pte_family12": pte12,
    }


#: repetitions per micro-benchmark, about 0.1-0.8 s of work each
REPS = {
    "micro.series.mul_w45_tall": 11,
    "micro.series.mul_w125_small": 5,
    "micro.series.div_binomial_w45": 101,
    "micro.series.invert_w45": 21,
    "micro.qfunc.PochTower_upto40": 51,
    "micro.qfunc.sum_exact_fixed": 51,
    "micro.context.ExactCtx_mul6": 301,
    "micro.bailey.cor_sides_o30": 3,
    "micro.pte.check_pte_family12": 101,
}


def run(benches: dict, speed) -> dict:
    """Median milliseconds per repetition of every micro-benchmark, at
    reference speed (see calibrate.py)."""
    out = {}
    for name, fn in benches.items():
        fn()  # warm-up
        spans = []
        for _ in range(REPS[name]):
            speed.maybe_tick()
            t0 = perf_counter()
            fn()
            spans.append((t0, perf_counter()))
        speed.tick()
        out[name] = statistics.median(speed.rescale(spans)) * 1000.0
    return out
