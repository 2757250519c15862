"""NumericCtx: its own decimal context, the memoized Pochhammer kernel
against plain Fraction products, and numeric verdicts that do not depend
on the caller's decimal settings, the call order or the thread."""

import decimal
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from qident import context
from qident.bailey import wp_transform
from qident.context import NumericCtx
from qident.qfunc import NUMERIC_PRECISION
from qident.registry import (catalog, document_json, sample_params,
                             strip_timing, suite_document, verify_one,
                             verify_suite, with_injected_fault)
from qident.series import DEFAULT_ORDER

#: the agreement the kernel promises, relative (see `scale`)
DELTA = F(1, 10 ** (NUMERIC_PRECISION - 5))

RAT = st.builds(F, st.integers(-20, 20), st.integers(1, 20))
BASE = st.builds(F, st.integers(-19, 19), st.integers(20, 20)) | \
    st.sampled_from([F(0), F(1, 2), F(-1, 3), F(2, 7), F(-5, 6)])
SMALL_BASE = st.sampled_from([F(0), F(1, 2), F(-1, 2), F(1, 3), F(-2, 5),
                              F(1, 9)])
N = st.integers(0, 40)


def fraction_poch(a, base, n):
    out = F(1)
    for j in range(n):
        out *= 1 - a * base ** j
    return out


def scale(a, base, n):
    """prod (1 + |a base^j|): the relative error a product of differences
    can promise. It is |(a; base)_n| up to a bounded factor unless some
    factor cancels (a = base^-j), where the product itself is 0."""
    out = F(1)
    for j in range(n):
        out *= 1 + abs(a * base ** j)
    return out


def gap(value, exact, a, base, n):
    return abs(F(value) - exact) / scale(a, base, n)


# ----------------------------------------------------------- the kernel


def poch_gaps(ctx, a, base, n):
    """The scaled errors of poch, and of inv_poch where it is defined."""
    exact = fraction_poch(a, base, n)
    gaps = [gap(ctx.poch(a, base, n), exact, a, base, n)]
    if exact:
        # 1/p has the relative error of p, to first order
        inv = F(ctx.inv_poch(a, base, n))
        gaps.append(abs(inv * exact - 1) * abs(exact) / scale(a, base, n))
    return gaps


@settings(max_examples=150, deadline=None)
@given(RAT, BASE, N)
def test_poch_matches_fraction_product(a, base, n):
    assert max(poch_gaps(NumericCtx(F(1, 7)), a, base, n)) <= DELTA


@settings(max_examples=60, deadline=None)
@given(RAT, SMALL_BASE)
def test_poch_inf_matches_fraction_product(a, base):
    # the Fraction product with each partial product rounded to 90 digits,
    # out to the factor below 1e-75
    one = 10 ** 90
    exact, f, j = F(1), a, 0
    while abs(f) >= F(1, 10 ** 75):
        exact = F(round((exact * (1 - f)) * one), one)
        f *= base
        j += 1
    got = NumericCtx(F(1, 7)).poch_inf(a, base)
    assert gap(got, exact, a, base, j) <= DELTA


@settings(max_examples=60, deadline=None)
@given(RAT, BASE, st.lists(N, min_size=1, max_size=6))
def test_poch_does_not_depend_on_call_order(a, base, calls):
    ctx = NumericCtx(F(1, 7))
    got = [ctx.poch(a, base, n) for n in calls]
    assert got == [NumericCtx(F(1, 7)).poch(a, base, n) for n in calls]
    ctx.poch(a, base, 30)
    assert ctx.poch(a, base, 5) == NumericCtx(F(1, 7)).poch(a, base, 5)


class _OffByOne(context._PochRun):
    """A mutant: the running power starts one step ahead, at a*base."""

    def __init__(self, a, base, dc):
        super().__init__(a, base, dc)
        self.run = dc.multiply(a, base)


def test_property_check_catches_off_by_one_running_power(monkeypatch):
    draws = [(F(1, 3), F(1, 2), 5), (F(-7, 4), F(-3, 20), 12),
             (F(2), F(1, 3), 1)]
    for a, base, n in draws:
        assert max(poch_gaps(NumericCtx(F(1, 7)), a, base, n)) <= DELTA
    monkeypatch.setattr(context, "_PochRun", _OffByOne)
    for a, base, n in draws:
        assert max(poch_gaps(NumericCtx(F(1, 7)), a, base, n)) > DELTA


# --------------------------------------------------- the decimal context

THM_ALPHA = [F(2), F(-1, 3), F(5, 2), F(-4), F(1, 5)]


def test_wp_transform_under_default_ambient_context():
    with decimal.localcontext(decimal.Context()) as ambient:
        assert ambient.prec == 28
        ctx = NumericCtx(F(1, 7))
        alpha = [ctx.num(v) for v in THM_ALPHA]
        lhs, rhs = wp_transform(
            ctx, F(1, 4), F(1, 3), F(1, 2), F(-2, 5),
            lambda n: alpha[n] if n < len(alpha) else ctx.num(0),
            support=len(alpha) - 1)
        assert ctx.sub(lhs, rhs).copy_abs() <= ctx.tol


def test_verdicts_ignore_ambient_precision():
    """Every record's numeric verdict, clean and with a fault, is the
    same report inside a 10-digit ambient context."""
    jobs = []
    for rec in catalog():
        a = sample_params(rec.id, 1, 1, "numeric")[0]
        jobs += [(rec, a), (with_injected_fault(rec, 3), a)]

    def reports():
        return [(r.status, r.mismatch_lhs, r.mismatch_rhs, r.reason)
                for r in (verify_one(rec, a, 40) for rec, a in jobs)]

    want = reports()
    with decimal.localcontext(prec=10):
        assert reports() == want
    assert "mismatch" in {status for status, *_ in want}


def test_numeric_suite_deterministic_across_runs_and_workers():
    def document(workers):
        reps = verify_suite(strategy="numeric", samples=5, seed=1,
                            workers=workers)
        return document_json(strip_timing(suite_document(
            reps, order=DEFAULT_ORDER, seed=1, filter_pattern="*",
            samples=5, strategy="numeric")))

    first = document(1)
    assert document(1) == first
    assert document(4) == first
