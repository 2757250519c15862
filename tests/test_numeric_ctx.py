"""NumericCtx: its own decimal context, the memoized Pochhammer kernel
and the term-ratio quotient against plain Fraction products, and numeric
verdicts that do not depend on the caller's decimal settings or the
call order."""

import decimal
import gc
import weakref
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from qident import context
from qident.bailey import Factor, Summand, wp_transform
from qident.context import ExactCtx, NumericCtx
from qident.errors import DegenerateDenominator, DegenerateVWP
from qident.qfunc import NUMERIC_PRECISION, Stepped
from qident.registry import (catalog, document_json, sample_params,
                             strip_timing, suite_document, verify_one,
                             verify_suite, with_injected_fault)
from qident.series import DEFAULT_ORDER, QMonomial
from references import head_product

#: the agreement the kernel promises, relative (see `scale`)
DELTA = F(1, 10 ** (NUMERIC_PRECISION - 5))

#: the quotient engine as built: the reference runs and the mutants below
#: call it, whatever `context._quotient_steps` is patched to
STEPS = context._quotient_steps
#: the head runs' engine, likewise
HEAD_STEPS = context._head_steps

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


#: the relative error `NumericCtx.poch_inf` promises (`context._EPS`)
EPS = F(1, 10 ** 60)
#: the most a 74-digit operation errs by, relative to its result
ULP = F(5, 10 ** 74)


def poch_inf_faults(a, base):
    """How far `NumericCtx.poch_inf(a, base)` lies from the Fraction
    product, out to the factor below 1e-75, beyond what it may: a
    relative EPS plus its rounding. Each partial product is rounded to
    90 digits, each a base^j is exact. The rounding: the product's factors
    1 - a base^j with |a base^j| > (1 - |base|)/2 are multiplied one at a
    time, the j-th from a base^j that j + 1 operations computed, so it
    errs by (j + 1) ULP |a base^j| before its subtraction and product add
    2 ULP |1 - a base^j|; Euler's series for the rest (`context._euler`)
    loses no digits, and 1000 ULP covers its operations. Where a factor
    vanishes, the product is 0 and the allowance is that rounding times
    prod (1 + |a base^j|) instead (`scale`)."""
    one = 10 ** 90

    def rounded(x):
        return F(round(x * one), one)

    theta = (1 - abs(base)) / 2
    exact, size, f, j = F(1), F(1), a, 0
    slip, spread = 1000 * ULP, 1000 * ULP   # relative, and of the scale
    while abs(f) >= F(1, 10 ** 75):
        if abs(f) > theta:
            slip += (j + 1) * ULP * abs(f / (1 - f)) + 2 * ULP if f != 1 \
                else 0
            spread += (j + 3) * ULP
        exact = rounded(exact * (1 - f))
        size = rounded(size * (1 + abs(f)))
        f, j = f * base, j + 1
    got = F(NumericCtx(F(1, 7)).poch_inf(a, base))
    if not exact:
        return max(0, abs(got) - spread * size)
    return max(0, abs(got - exact) / abs(exact) - EPS - slip)


#: |a| up to 400 on bases up to 19/20 in size, a = 0, base = 0, and a =
#: base^-k, whose factor j = k vanishes up to the rounding of a and base
WIDE_BASE = st.builds(F, st.integers(-19, 19), st.just(20)) | SMALL_BASE
POCH_INF = st.tuples(st.builds(F, st.integers(-400, 400), st.integers(1, 3)),
                     WIDE_BASE) | st.builds(
    lambda base, k: (base ** -k, base),
    st.sampled_from([F(1, 2), F(-1, 3), F(2, 7), F(-2, 5), F(19, 20),
                     F(-17, 20)]), st.integers(0, 8))


@settings(max_examples=60, deadline=None)
@given(POCH_INF)
@example((F(0), F(1, 2)))
@example((F(7, 3), F(0)))
@example((F(1, 3), F(0)))
@example((F(8), F(1, 2)))
@example((F(400), F(19, 20)))
@example((F(-400), F(-19, 20)))
def test_poch_inf_matches_fraction_product(draw):
    assert poch_inf_faults(*draw) == 0


def _euler_early(f, base, dc):
    """A mutant of Euler's series: it stops one term early, leaving out
    the last term above the cut."""
    total = t = Decimal(1)
    power, last = base, Decimal(0)
    while True:
        t = dc.divide(dc.multiply(t, f), dc.subtract(power, 1))
        if t.copy_abs() < context._EULER_CUT:
            return dc.subtract(total, last)
        total, last = dc.add(total, t), t
        f, power = dc.multiply(f, base), dc.multiply(power, base)


def test_poch_inf_check_catches_an_early_euler_stop(monkeypatch):
    # the mutant leaves out the last term of Euler's series above its cut:
    # a relative error above EPS for these draws, though below it once
    # scaled by prod (1 + |a base^j|) for the last three. At (400, 19/20)
    # the term it leaves out is a relative 6.5e-61, inside EPS, so no
    # check of the promise can see it there
    draws = [(F(2, 9), F(0)), (F(1, 5), F(1, 7)), (F(-1, 3), F(2, 5)),
             (F(1, 3), F(1, 2)), (F(-7, 4), F(-3, 4)), (F(350), F(19, 20))]
    assert all(poch_inf_faults(*d) == 0 for d in draws)
    monkeypatch.setattr(context, "_euler", _euler_early)
    assert all(poch_inf_faults(*d) > 0 for d in draws)


@settings(max_examples=60, deadline=None)
@given(RAT, BASE, st.lists(N, min_size=1, max_size=6))
def test_poch_does_not_depend_on_call_order(a, base, calls):
    ctx = NumericCtx(F(1, 7))
    got = [ctx.poch(a, base, n) for n in calls]
    assert got == [NumericCtx(F(1, 7)).poch(a, base, n) for n in calls]
    ctx.poch(a, base, 30)
    assert ctx.poch(a, base, 5) == NumericCtx(F(1, 7)).poch(a, base, 5)


@contextmanager
def counted_runs():
    """The arguments of every quotient run (`context._quotient_steps`)
    built inside the block."""
    made = []

    def counted(*args):
        made.append(args)
        return STEPS(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(context, "_quotient_steps", counted)
        yield made


def test_poch_and_inv_poch_are_memoized_quotient_lookups():
    a, base = F(1, 3), F(-1, 2)
    with counted_runs() as made:
        ctx = NumericCtx(F(1, 7))
        for n in (4, 2, 9, 4):
            assert ctx.poch(a, base, n) == \
                ctx.quotient([(F(1, 3), base)], ())(n)
            assert ctx.inv_poch(ctx.num(a), base, n) == \
                ctx.quotient((), [(ctx.num(a), F(-1, 2))])(n)
        assert len(made) == 2
        # (4; 1/2)_n vanishes from n = 3 on
        assert ctx.poch(F(4), F(1, 2), 5) == 0
        assert ctx.inv_poch(F(4), F(1, 2), 2) == ctx.num(F(1, 3))
        for n in (3, 5):
            with pytest.raises(DegenerateDenominator,
                               match="^vanishing Pochhammer denominator$"):
                ctx.inv_poch(F(4), F(1, 2), n)
        assert len(made) == 4


def _run_ahead(ups, downs, s, n0, dc):
    """A mutant of the runs' input: every (argument, base) pair starts one
    step ahead, at u*p, so every running power does."""
    def ahead(pairs):
        return [(dc.multiply(u, p), p) for u, p in pairs]

    return STEPS(ahead(ups), ahead(downs), s, n0, dc)


def test_property_check_catches_off_by_one_running_power(monkeypatch):
    # poch is a one-factor quotient run, so the mutant reaches it there
    draws = [(F(1, 3), F(1, 2), 5), (F(-7, 4), F(-3, 20), 12),
             (F(2), F(1, 3), 1)]
    for a, base, n in draws:
        assert max(poch_gaps(NumericCtx(F(1, 7)), a, base, n)) <= DELTA
    monkeypatch.setattr(context, "_quotient_steps", _run_ahead)
    for a, base, n in draws:
        assert max(poch_gaps(NumericCtx(F(1, 7)), a, base, n)) > DELTA


# ------------------------------------------------------- the quotient

PAIR = st.tuples(RAT, BASE)
S = st.none() | st.just(F(0)) | RAT

#: orders in which the summands ask for a quotient: a plain sum, cor_lhs's
#: idx = 2n, a repeated lookup, and a walk back down
ACCESS = {
    "ascending": lambda top: list(range(top + 1)),
    "strided": lambda top: list(range(0, 2 * top + 1, 2)),
    "repeated": lambda top: [top, top, 0, top, 0],
    "descending": lambda top: list(range(top, -1, -1)),
}


def quotient_gap(value, ups, downs, s, n):
    """|value - Q(n)| over the scale a quotient can promise: |s|^n times
    the scales of its products, over the denominator squared (the error
    of 1/D is the error of D over D^2); where s^n = 0, |value| itself.
    None where the Fraction denominator vanishes."""
    up, down, sc = F(1), F(1), F(1)
    for a, base in ups:
        up *= fraction_poch(a, base, n)
        sc *= scale(a, base, n)
    for d, base in downs:
        down *= fraction_poch(d, base, n)
        sc *= scale(d, base, n)
    if not down:
        return None
    sn = F(1) if s is None else s ** n
    return abs(F(value) - sn * up / down) / (abs(sn) * sc / down ** 2 or 1)


def terminating(x):
    """x is a decimal fraction (its denominator divides a power of 10).
    For the draws here (numerators and denominators at most 20, n at
    most 20) a run then holds every power of it exactly, in far fewer
    than 74 digits."""
    d = x.denominator
    for f in (2, 5):
        while d % f == 0:
            d //= f
    return d == 1


def quotient_faults(ups, downs, s, lookups):
    """The lookups n at which NumericCtx.quotient disagrees with the
    Fraction quotient: off by more than DELTA of its scale where the
    exact lower product is nonzero, or raising there; or not raising at a
    pole that the run must meet exactly, a vanishing lower factor whose
    argument and base are decimal fractions. Elsewhere at a pole the
    rounded running power may miss the zero, and there is no value to
    compare."""
    quot = NumericCtx(F(1, 7)).quotient(ups, downs, s)
    faults = []
    for n in lookups:
        vanishing = [(d, p) for d, p in downs if not fraction_poch(d, p, n)]
        try:
            g = quotient_gap(quot(n), ups, downs, s, n)
        except DegenerateDenominator:
            if not vanishing:
                faults.append((n, "pole"))
            continue
        if any(terminating(d) and terminating(p) for d, p in vanishing):
            faults.append((n, "missed pole"))
        elif g is not None and g > DELTA:
            faults.append((n, "value", float(g)))
    return faults


@settings(max_examples=150, deadline=None)
@given(st.lists(PAIR, max_size=3), st.lists(PAIR, max_size=3), S,
       st.sampled_from(sorted(ACCESS)), st.integers(0, 20))
def test_quotient_matches_fraction_quotient(ups, downs, s, order, top):
    assert quotient_faults(ups, downs, s, ACCESS[order](top)) == []


def outcome(quot, n):
    """quot(n), or the message of the DegenerateDenominator it raises."""
    try:
        return quot(n)
    except DegenerateDenominator as ex:
        return str(ex)


@settings(max_examples=60, deadline=None)
@given(st.lists(PAIR, min_size=1, max_size=3), st.lists(PAIR, max_size=3),
       S, st.lists(st.integers(0, 20), min_size=1, max_size=4))
def test_equal_quotients_share_one_run(ups, downs, s, calls):
    with counted_runs() as made:
        ctx = NumericCtx(F(1, 7))
        quot = ctx.quotient(ups, downs, s)
        got = [outcome(quot, n) for n in calls]
        # equal arguments again, as fresh objects
        same = ctx.quotient([(F(u), F(p)) for u, p in ups],
                            tuple((F(d), F(p)) for d, p in downs),
                            None if s is None else F(s))
        assert [outcome(same, n) for n in reversed(calls)] == got[::-1]
        assert len(made) == 1
        # other factors, or another s, have a run of their own
        ctx.quotient([*ups, (F(1, 2), F(1, 3))], downs, s)
        ctx.quotient(ups, downs, F(5) if s is None else None)
        assert len(made) == 3
        # s^n alone steps no run
        assert quotient_gap(ctx.quotient((), (), s)(7), [], [], s, 7) <= DELTA
        assert len(made) == 3


def test_context_is_freed_without_the_cycle_collector():
    """The memoized runs (the quotients', the heads' and `vwp`'s) hold no
    reference to their context, so a build's NumericCtx dies with its last
    reference, not at the next collection. A run that met a pole keeps no
    traceback either: one would hold the frame that caught it, and so the
    context."""
    def used():
        ctx = NumericCtx(F(1, 7))
        qq = ctx.qpow(1)
        ctx.quotient([(F(1, 3), qq)], [(qq, qq)], F(1, 2))(5)
        ctx.poch(F(1, 3), qq, 4)
        ctx.inv_poch(qq, qq, 4)
        with pytest.raises(DegenerateDenominator):
            ctx.inv_poch(F(4), F(1, 2), 3)
        ctx.summation(Summand(ctx, F(1, 2), ups=[(F(1, 3), qq)],
                              downs=[(qq, qq)], heads=[(F(2), qq, True)]))
        ctx.vwp(F(1, 3), 4)
        with pytest.raises(DegenerateDenominator):
            ctx.heads([(F(4), F(1, 2), True)])(2)
        return weakref.ref(ctx)

    gc.disable()
    try:
        assert used()() is None
    finally:
        gc.enable()


#: 1 - 4 (1/2)^2 = 0: the lower (4; 1/2)_n vanishes from n = 3 on, the
#: upper (2; 1/2)_n from n = 2 on; halves are exact decimals, so the run
#: meets both zeros exactly
POLE = ([(F(2), F(1, 2))], [(F(1, 3), F(-1, 2)), (F(4), F(1, 2))], F(-3))


def test_quotient_pole_raises_where_the_fraction_denominator_vanishes():
    lookups = (5, 1, 3, 0, 2, 4, 3)
    assert quotient_faults(*POLE, lookups) == []
    quot = NumericCtx(F(1, 7)).quotient(*POLE)
    assert [quot(n) for n in lookups if n < 3] == [F(-3, 2), 1, 0]


def _late_pole(*args):
    """A mutant: a run raises at its pole one step late, repeating the
    value before it there."""
    last = None
    try:
        for last in STEPS(*args):
            yield last
    except DegenerateDenominator:
        yield last
        raise


def test_pole_check_catches_a_late_pole(monkeypatch):
    monkeypatch.setattr(context, "_quotient_steps", _late_pole)
    assert quotient_faults(*POLE, range(5)) == [(3, "missed pole")]


def test_property_check_catches_off_by_one_quotient_run(monkeypatch):
    draws = [([(F(1, 3), F(1, 2))], [(F(-7, 4), F(-3, 20))], F(-2, 5), 5),
             ([], [(F(2), F(1, 3)), (F(1, 5), F(1, 2))], None, 12),
             ([(F(5, 2), F(-1, 4)), (F(1, 9), F(1, 3))], [], F(3), 1)]

    def gaps():
        return [quotient_gap(NumericCtx(F(1, 7)).quotient(ups, downs, s)(n),
                             ups, downs, s, n)
                for ups, downs, s, n in draws]

    assert max(gaps()) <= DELTA
    monkeypatch.setattr(context, "_quotient_steps", _run_ahead)
    assert min(gaps()) > DELTA


# ---------------------------------------------------------- the heads
#
# A summand's heads (1 - w r^n)^(+-1) are one run of running powers w r^n
# (`NumericCtx.heads`), and so is the very-well-poised factor's head
# (`NumericCtx.vwp`). Checked against the Fraction product, each power
# taken in full, for lookups in any order.

#: a head on r = +-2^i 5^j, with w = r^-m: it vanishes at n = m, and
#: every power of r is a decimal fraction, so the run meets that zero
#: exactly
VANISHING = st.builds(
    lambda r, m, inverse: (r ** -m, r, inverse),
    st.sampled_from([F(1, 2), F(-1, 2), F(2), F(-5, 2), F(2, 5), F(1, 4),
                     F(-5)]), st.integers(0, 6), st.booleans())
#: w = 0, negative r, |r| > 1 (RAT reaches 20) and inverse heads
HEAD = st.tuples(RAT, RAT, st.booleans()) | VANISHING
LOOKUPS = st.lists(st.integers(0, 24), min_size=1, max_size=6)


def head_faults(at, heads, lookups):
    """The lookups n at which `at`, a NumericCtx head run, disagrees with
    the Fraction product: off by more than DELTA of what the rounding can
    promise, or raising where the product is defined; or not raising where
    an inverse head vanishes whose w and r are decimal fractions (the run
    meets that zero exactly). Elsewhere where an inverse head vanishes the
    rounded power may miss the zero, and there is no value to compare.

    The promise: each running power x = w r^n is within 2n + 2 roundings
    of its value, so its head 1 - x within (2n + 2)(1 + |x|); that moves
    the product by as much times the other heads, over the head's size
    once more for an inverse head. The product's own roundings are
    relative."""
    faults = []
    for n in lookups:
        hs = [(1 - F(w) * F(r) ** n, inverse) for w, r, inverse in heads]
        vanishing = [(w, r) for (w, r, _), (h, inverse) in zip(heads, hs)
                     if inverse and not h]
        try:
            got = at(n)
        except DegenerateDenominator:
            if not vanishing:
                faults.append((n, "pole"))
            continue
        if any(terminating(w) and terminating(r) for w, r in vanishing):
            faults.append((n, "missed pole"))
        if vanishing:
            continue
        want = head_product(heads, n)
        spread = len(heads) * abs(want)
        for i, (h, inverse) in enumerate(hs):
            rest = head_product(heads[:i] + heads[i + 1:], n)
            spread += (2 * n + 2) * (1 + abs(1 - h)) * abs(rest) / (
                h * h if inverse else 1)
        if abs(F(got) - want) > DELTA * spread:
            faults.append((n, "value", float(abs(F(got) - want))))
    return faults


@settings(max_examples=150, deadline=None)
@given(st.lists(HEAD, min_size=1, max_size=4), LOOKUPS)
@example([(F(4), F(1, 2), True), (F(1, 3), F(-5, 2), False)],
         [5, 2, 0, 2, 1])
def test_heads_match_fraction_product(heads, lookups):
    ctx = NumericCtx(F(1, 7))
    assert head_faults(ctx.heads(heads), heads, lookups) == []


def test_summands_share_one_head_run(monkeypatch):
    """Two summands with equal heads read one run; an inverse head that
    vanishes at n = 2 raises there in both, and nowhere else."""
    made = []

    def counted(*args):
        made.append(args)
        return HEAD_STEPS(*args)

    monkeypatch.setattr(context, "_head_steps", counted)
    ctx = NumericCtx(F(1, 2))
    qq = ctx.qpow(1)                        # 1/2: q^-2 q^2 = 1 exactly
    heads = [(ctx.qpow(-2), qq, True), (F(1, 3), F(-5, 2))]
    plain = Summand(ctx, heads=heads)
    scaled = Summand(ctx, F(1, 5), ups=[(F(1, 3), qq)], heads=heads)
    exact = [(F(4), F(1, 2), True), (F(1, 3), F(-5, 2), False)]
    for n in (4, 0, 3, 1):
        for term, want in ((plain, head_product(exact, n)), (
                scaled, head_product(exact, n) * F(1, 5) ** n
                * fraction_poch(F(1, 3), F(1, 2), n))):
            assert abs(F(term(n)) - want) <= DELTA * abs(want)
    for term in (plain, scaled):
        with pytest.raises(DegenerateDenominator):
            term(2)
    assert len(made) == 1


@pytest.mark.parametrize("q", [F(1, 3), F(1, 7), F(2, 9), F(-1, 3),
                               F(3, 7)])
def test_inverse_head_on_a_pole_raises_at_its_n_only(q):
    """(q^-1, q) vanishes at n = 1, where the rounded q^-1 q misses 1:
    that lookup raises, and n = 0 and 2 keep every digit."""
    ctx = NumericCtx(q)
    at = ctx.heads([(ctx.qpow(-1), ctx.q, True)])
    with pytest.raises(DegenerateDenominator):
        at(1)
    dc, w, r = ctx.dc, ctx.qpow(-1), ctx.q
    plain = [dc.divide(1, dc.subtract(1, w)),
             dc.divide(1, dc.subtract(1, dc.multiply(dc.multiply(w, r), r)))]
    assert list(map(str, map(at, (0, 2)))) == list(map(str, plain))


#: fixed draws, each with an inverse head whose value is not +-1
HEAD_DRAWS = [
    ([(F(1, 3), F(-5, 2), True), (F(2), F(1, 2), False)], [3, 0, 5]),
    ([(F(-7, 4), F(-3, 20), True), (F(0), F(7), False)], [12, 1]),
    ([(F(5, 2), F(19, 20), True)], [0, 20, 7])]


def _first_head_unflipped(heads, dc):
    """A mutant of the head runs: the first head is applied with its
    inverse flag flipped."""
    (w, r, inverse), *rest = heads
    return HEAD_STEPS([(w, r, not inverse), *rest], dc)


def test_head_check_catches_an_unflipped_head(monkeypatch):
    def faults():
        return [head_faults(NumericCtx(F(1, 7)).heads(heads), heads, ns)
                for heads, ns in HEAD_DRAWS]

    assert faults() == [[]] * len(HEAD_DRAWS)
    monkeypatch.setattr(context, "_head_steps", _first_head_unflipped)
    assert all(faults())


@settings(max_examples=100, deadline=None)
@given(RAT, st.none() | RAT, LOOKUPS)
@example(F(1), None, [0])
def test_vwp_matches_fraction_ratio(k, base, lookups):
    """(1 - k b^(2n)) / (1 - k), b = q when None, is the run of the head
    (k, b^2) times 1/(1 - k); k = 1 raises DegenerateVWP."""
    ctx = NumericCtx(F(1, 7))
    if k == 1:
        with pytest.raises(DegenerateVWP):
            ctx.vwp(k, 0, base)
        return
    b = F(1, 7) if base is None else base
    for n in lookups:
        x = k * b ** (2 * n)
        want = (1 - x) / (1 - k)
        spread = (4 * n + 4) * (1 + abs(x)) / abs(1 - k) + abs(want)
        assert abs(F(ctx.vwp(k, n, base)) - want) <= DELTA * spread


# ---------------------------------------- every length k n + l at once

ENTRY = st.tuples(RAT, BASE | st.sampled_from([F(1, 7), F(1, 49)]),
                  st.integers(1, 3), st.integers(-2, 3))
#: (q^-m; q) at q = 1/7 to vanish
VANISHING = st.builds(lambda m, k, l: (F(7) ** m, F(1, 7), k, l),
                      st.integers(0, 3), st.integers(1, 3),
                      st.integers(-2, 3))
ENTRIES = st.lists(ENTRY | VANISHING, max_size=3)


def one_length_runs(ctx, ups, downs, s, n):
    """s^n times each factor's one-factor run at its length k n + l, over
    the lower ones, exactly, and the scale of `quotient_gap` for it; None
    where the exact lower product vanishes (rounding may or may not find
    that pole)."""
    down = F(1)
    for d, p, k, l in downs:
        down *= fraction_poch(d, p, k * n + l)
    if not down:
        return None
    sn = F(1) if s is None else F(s) ** n
    value, sc = sn, abs(sn) / down ** 2
    for entries, upper in ((ups, True), (downs, False)):
        for u, p, k, l in entries:
            m = k * n + l
            run = Stepped(0, STEPS([(ctx.num(u), ctx.num(p))], (), None, 0,
                                   ctx.dc))
            v = F(run.at(m))
            value = value * v if upper else value / v
            sc *= scale(u, p, m)
    return value, sc or 1


def mixed_faults(ups, downs, s, lookups):
    """The lookups n at which NumericCtx.quotient over (u, p, k, l)
    entries differs from the product of one-length runs by more than
    10^-70 of the scale a quotient can promise, or raises where they do
    not (ValueError below its first length, and nowhere else)."""
    ctx = NumericCtx(F(1, 7))
    quot = ctx.quotient(ups, downs, s)
    faults = []
    for n in lookups:
        if any(k * n + l < 0 for _, _, k, l in (*ups, *downs)):
            try:
                quot(n)
                faults.append((n, "no ValueError"))
            except ValueError:
                pass
            continue
        ref = one_length_runs(ctx, ups, downs, s, n)
        if ref is None:
            continue
        gap = abs(F(quot(n)) - ref[0])
        if gap > F(1, 10 ** 70) * ref[1]:
            faults.append((n, "value", float(gap / ref[1])))
    return faults


@settings(max_examples=150, deadline=None)
@given(ENTRIES, ENTRIES, S, st.sampled_from(sorted(ACCESS)),
       st.integers(0, 8))
def test_mixed_lengths_match_one_length_runs(ups, downs, s, access, top):
    assert mixed_faults(ups, downs, s, ACCESS[access](top)) == []


def _short_step(ups, downs, s, n0, dc):
    """A mutant of the runs' input: the last upper factor, (u, p, k, l),
    pulls k - 1 factors a step, as (u, p, k - 1, l) from the same n0."""
    *rest, (u, p, k, l) = ups
    return STEPS([*rest, (u, p, k - 1, l)], downs, s, n0, dc)


def test_mixed_lengths_check_catches_a_short_step(monkeypatch):
    draws = [([(F(1, 3), F(1, 2), 2, -1)], [(F(-7, 4), F(-3, 20), 1, 0)],
              F(-2, 5), range(5)),
             ([(F(5, 2), F(-1, 4), 1, 0), (F(2), F(1, 3), 3, 2)], [], None,
              [2, 1]),
             ([(F(1, 9), F(1, 2), 1, 1)], [(F(2), F(1, 3), 2, 1)], F(3),
              [4])]
    assert all(mixed_faults(*d) == [] for d in draws)
    monkeypatch.setattr(context, "_quotient_steps", _short_step)
    assert all(mixed_faults(*d) != [] for d in draws)


def test_poch_quotient_exact_numeric_coherence():
    # s^n (q^2, -2q; q)_n / (q/3, q^3/2; q)_n with s = -2q/3: the exact
    # series at q0 = 1/7 against the numeric quotient at q0; the
    # truncation error at order 80 is below 1e-60
    N, q0 = 80, F(1, 7)
    ups = [QMonomial.of(1, 2), QMonomial.of(-2, 1)]
    downs = [QMonomial.of(F(1, 3), 1), QMonomial.of(F(1, 2), 3)]
    s = QMonomial.of(F(-2, 3), 1)

    def at(m):
        return m.coef * q0 ** m.exp

    ectx = ExactCtx(N)
    q = QMonomial.of(1, 1)
    exact = ectx.quotient([(u, q) for u in ups], [(d, q) for d in downs], s)
    numeric = NumericCtx(q0).quotient([(at(u), q0) for u in ups],
                                      [(at(d), q0) for d in downs], at(s))
    for n in (0, 1, 4, 9):
        want = ectx.finalize(exact(n)).eval_at(q0)
        assert abs(F(numeric(n)) - want) <= F(1, 10 ** 60)


# --------------------------------------------------- the decimal context

THM_ALPHA = [F(2), F(-1, 3), F(5, 2), F(-4), F(1, 5)]


@pytest.mark.parametrize("ctx", [NumericCtx(F(1, 7)), ExactCtx(10)],
                         ids=["numeric", "exact"])
@pytest.mark.parametrize("zero", [0, F(0)])
def test_pow_int_of_zero(ctx, zero):
    # decimal's own power rejects 0 ** 0; both contexts give v ** 0 = 1
    assert ctx.pow_int(zero, 0) == 1
    assert ctx.pow_int(zero, 3) == 0


def test_wp_transform_under_default_ambient_context():
    with decimal.localcontext(decimal.Context()) as ambient:
        assert ambient.prec == 28
        ctx = NumericCtx(F(1, 7))
        alpha = [ctx.num(v) for v in THM_ALPHA]
        lhs, rhs = wp_transform(
            ctx, F(1, 4), F(1, 3), F(1, 2), F(-2, 5),
            Factor(lambda n: alpha[n], support=len(alpha) - 1))
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


def test_numeric_verdicts_clean_equal_fault_twin_mismatch():
    """The first three seed-1 numeric draws of every record at order 40:
    the clean job reads equal and its (1 + q^3) twin mismatch. A draw of
    a known sampler defect (both cpte5 sides vanishing, a vanishing phi65
    denominator) fails here by name; none is skipped."""
    wrong = []
    for rec in catalog():
        twin = with_injected_fault(rec, 3)
        for a in sample_params(rec.id, 1, 3, "numeric"):
            got = (verify_one(rec, a, 40).status,
                   verify_one(twin, a, 40).status)
            if got != ("equal", "mismatch"):
                wrong.append((rec.id, a.formatted(), got))
    assert not wrong


def test_numeric_suite_deterministic_across_runs():
    def document():
        reps = verify_suite(strategy="numeric", samples=5, seed=1)
        return document_json(strip_timing(suite_document(
            reps, order=DEFAULT_ORDER, seed=1, filter_pattern="*",
            samples=5, strategy="numeric")))

    assert document() == document()
