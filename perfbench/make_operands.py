"""Regenerate perfbench/data/micro_operands.json (run once, then check in).

The micro-benchmarks time single layers on fixed operands. The operands
are captured here from real verifications and written out as data, so
that the micro timings do not depend on which products a later version
of the program happens to form:

  * width-45 products, divisions and inversions with tall coefficients,
    captured from cpte3 at order 40 (seed 1, all three samples; the
    products are taken from the taller half);
  * width-125 products with small integer coefficients, captured from the
    parameter-free record gs2 at order 120;
  * the terms one exact summation consumes in cpte3, replayed as a fixed
    term generator;
  * one six-factor ExactCtx.mul from the catalog at order 40.

Usage, from the repository root:

    python3 perfbench/make_operands.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qident import context, registry  # noqa: E402
from qident.series import LaurentSeries, QMonomial  # noqa: E402
from tracer import coef_bits as bits  # noqa: E402

OUT = Path(__file__).resolve().parent / "data" / "micro_operands.json"
PICK = 8


def enc(v):
    if isinstance(v, LaurentSeries):
        return {"min_deg": v.min_deg, "order": v.order,
                "coeffs": [str(c) for c in v.coeffs]}
    if isinstance(v, QMonomial):
        return {"mono": [str(v.coef), v.exp]}
    return {"frac": str(Fraction(v))}


def spread(items, k=PICK):
    """k items evenly spaced through the captured sequence."""
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


def capture(record_id: str, order: int, hooks, samples: int = 1):
    """Verify the record's first `samples` seed-1 assignments with the
    given (owner, attribute, recorder) hooks installed; each recorder sees
    the call's arguments."""
    saved = []
    for owner, attr, rec in hooks:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))

        def wrapper(*args, _orig=orig, _rec=rec, **kw):
            _rec(args, kw)
            return _orig(*args, **kw)
        setattr(owner, attr, wrapper)
    try:
        for a in registry.sample_params(record_id, 1, samples, "exact"):
            rep = registry.verify_one(record_id, a, order)
            assert rep.status == "equal", rep
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


def main() -> None:
    tall_mul, div, sums, mul6 = [], [], [], []

    def on_mul(args, kw):
        a, b = args[0], args[1]
        if isinstance(b, LaurentSeries) and min(len(a.coeffs),
                                                len(b.coeffs)) >= 40:
            tall_mul.append((a, b, kw.get("cap", args[2] if len(args) > 2
                                          else None)))

    def on_div(args, kw):
        s = args[0]
        if len(s.coeffs) >= 40 and len(args) == 3:
            div.append((s, args[1], args[2]))

    sums_order = []

    def on_sum(args, kw):
        gen, order = args[0], args[1]
        if sums:
            return
        inner = gen.term

        def recording(n):
            t = inner(n)
            sums.append(t)
            return t
        gen.term = recording
        sums_order.append(order)

    def on_ctx_mul(args, kw):
        vals = args[1:]
        if not mul6 and len(vals) == 6 and sum(
                isinstance(v, LaurentSeries) for v in vals) >= 4:
            ctx = args[0]
            mul6.append({"ctx": [ctx.target, ctx.denom,
                                 ctx.order - ctx.target],
                         "args": [enc(v) for v in vals]})

    capture("cpte3", 40, [
        (LaurentSeries, "mul", on_mul),
        (LaurentSeries, "div_binomial", on_div),
        (context, "sum_exact", on_sum),
    ], samples=3)
    tall_mul.sort(key=lambda p: max(bits(p[0]), bits(p[1])))
    div.sort(key=lambda d: bits(d[0]))
    for rid in ("cor-central", "phi54", "cpte3"):
        if not mul6:
            capture(rid, 40, [(context.ExactCtx, "mul", on_ctx_mul)])

    wide_mul = []

    def on_wide(args, kw):
        a, b = args[0], args[1]
        if isinstance(b, LaurentSeries) and min(len(a.coeffs),
                                                len(b.coeffs)) >= 110:
            wide_mul.append((a, b))

    capture("gs2", 120, [(LaurentSeries, "mul", on_wide)])

    muls = spread(tall_mul[len(tall_mul) // 2:])
    doc = {
        "_source": "captured by perfbench/make_operands.py; fixed data",
        "mul_w45_tall": [[enc(a), enc(b), cap] for a, b, cap in muls],
        "mul_w125_small": [[enc(a), enc(b)] for a, b in spread(wide_mul)],
        "div_binomial_w45": [[enc(s), str(c), e]
                             for s, c, e in spread(div)],
        "invert_w45": [enc(a) for a, _, _ in muls[-4:]],
        "poch_tower": {"a": ["-2/3", 1], "base": ["1", 1], "order": 44,
                       "invert": True, "n": 40},
        "sum_exact_fixed": {"order": sums_order[0],
                            "terms": [enc(t) for t in sums]},
        "exact_ctx_mul6": mul6[0],
        "cor_sides_o30": {"alpha": ["3/2", "-2", "5/4", "1", "-7/3", "2",
                                    "1/4", "-1", "6"],
                          "x": ["2", 1], "y": ["1/2", 1], "z": ["-1", 2],
                          "order": 30},
        "pte_family12": {"m": "1/2", "K": "3", "k": 11},
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT}: {len(tall_mul)} tall products seen, widths "
          f"{[len(a.coeffs) for a, _, _ in muls]}, max bits "
          f"{[max(bits(a), bits(b)) for a, b, _ in muls]}; "
          f"{len(wide_mul)} wide products; {len(sums)} summation terms")


if __name__ == "__main__":
    main()
