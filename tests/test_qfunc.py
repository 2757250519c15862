"""Pochhammer, very-well-poised factor, the phi series, summation engines."""

import random
from decimal import Decimal
from fractions import Fraction as F
from itertools import chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from qident import qfunc
from qident.bailey import Summand, constant, phi_term
from qident.context import ExactCtx, NumericCtx
from qident.errors import (
    BoundViolation,
    DegenerateDenominator,
    DegenerateVWP,
    NonTruncatable,
    OrderInsufficient,
    TailNotDecreasing,
    UndeclaredFloor,
    ValuationStall,
)
from qident.qfunc import (
    BOUND_UP,
    Envelope,
    NumericTermGenerator,
    PochTower,
    Ratio,
    Stepped,
    TermGenerator,
    ValuationLaw,
    length_start,
    poch_infinite,
    poch_law,
    sum_exact,
    sum_numeric,
    vwp_factor,
)
from qident.series import LaurentSeries as LS, QMonomial
from references import poch_product
from two_strategies import assert_identity, exact, lift, numeric

Q = QMonomial.of(1, 1)          # the variable itself
q2 = QMonomial.of(1, 2)


def mono(c, e=0):
    return QMonomial.of(F(c), e)


def brute_poch(pairs, order):
    """Independent oracle: multiply out (1 - c q^{e + j*be}) factors with
    plain dict convolution, no series machinery."""
    acc = {0: F(1)}
    for c, e in pairs:
        nxt = {}
        for k, v in acc.items():
            nxt[k] = nxt.get(k, F(0)) + v
            if k + e <= order:
                nxt[k + e] = nxt.get(k + e, F(0)) - v * c
        acc = {k: v for k, v in nxt.items() if k <= order and v}
    return acc


def as_dict(s, order):
    return {e: c for e, c in s.terms() if e <= order}


# ------------------------------------------------- finite Pochhammers
#
# (a; base)_n as the runtime reads it: one lookup of a one-factor tower.
# A negative-exponent argument on a constant base holds a binomial the
# tower refuses (NonTruncatable) from n = 1 on.

def poch_finite(a, base, n, order=None):
    return PochTower(a, base, order).upto(n)


def refused(a, base, n) -> bool:
    """Whether the tower refuses (a; base)_n, and does so."""
    a = a if isinstance(a, QMonomial) else mono(a)
    if not (n and a.exp < 0 and base.exp == 0 and not a.is_zero):
        return False
    with pytest.raises(NonTruncatable):
        poch_finite(a, base, n)
    return True


def test_poch_finite_empty():
    assert poch_finite(Q, Q, 0) == LS.one()


def test_poch_finite_expansion():
    # (1-q)(1-q^2) = 1 - q - q^2 + q^3, frozen from direct expansion
    assert poch_finite(Q, Q, 2) == LS.from_pairs({0: 1, 1: -1, 2: -1, 3: 1})


def test_poch_finite_single_constant():
    assert poch_finite(F(3, 5), Q, 1) == LS.from_pairs({0: F(2, 5)})


def test_poch_finite_matches_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        c = rng.choice([F(1), F(-1), F(2), F(1, 2), F(-2, 3)])
        e = rng.randint(-2, 3)
        be = rng.randint(0, 3)
        n = rng.randint(0, 6)
        want = brute_poch([(c, e + j * be) for j in range(n)], 10 ** 6)
        want = {k: v for k, v in want.items() if v}
        assert as_dict(poch_product(mono(c, e), QMonomial.of(1, be), n),
                       10 ** 6) == want
        if refused(mono(c, e), QMonomial.of(1, be), n):
            continue
        got = poch_finite(mono(c, e), QMonomial.of(1, be), n)
        assert as_dict(got, 10 ** 6) == want


# ----------------------------------------------------------- poch_infinite

def test_poch_infinite_euler_prefix():
    # (q;q)_inf to order 5; brute force over the finitely many live factors
    got = poch_infinite(Q, Q, 5)
    want = brute_poch([(F(1), j) for j in range(1, 6)], 5)
    assert as_dict(got, 5) == want
    assert got == LS.from_pairs({0: 1, 1: -1, 2: -1, 5: 1}, order=5)


def test_poch_infinite_zero_argument():
    assert poch_infinite(mono(0), Q, 12) == LS.one(12)


def test_poch_infinite_forced_first_factor():
    got = poch_infinite(mono(-1), Q, 8)
    assert got.coeff(0) == 2


def test_poch_infinite_rejects_bad_base():
    with pytest.raises(NonTruncatable):
        poch_infinite(Q, QMonomial.of(1, 0), 10)
    with pytest.raises(NonTruncatable):
        poch_infinite(mono(1, -1), Q, 10)


def test_pentagonal_coefficients():
    s = poch_infinite(Q, Q, 40)
    assert all(c in (F(-1), F(0), F(1)) for c in s.coeffs)
    # Euler: exponents j(3j +- 1)/2 carry (-1)^j
    nonzero = {e: c for e, c in s.terms()}
    assert nonzero == {
        0: F(1), 1: F(-1), 2: F(-1), 5: F(1), 7: F(1), 12: F(-1),
        15: F(-1), 22: F(1), 26: F(1), 35: F(-1), 40: F(-1)}


def test_pochhammer_splitting_laws():
    rng = random.Random(11)
    for _ in range(50):
        c = rng.choice([F(1), F(2), F(-1), F(1, 2), F(3, 4)])
        e = rng.randint(0, 2)
        a = mono(c, e)
        n, m = rng.randint(0, 10), rng.randint(0, 10)
        lhs = poch_finite(a, Q, n + m)
        shifted = QMonomial(a.coef, a.exp + n)
        rhs = poch_finite(a, Q, n) * poch_finite(shifted, Q, m)
        assert lhs == rhs
        # infinite splitting to a finite order
        if e >= 1:
            N = 25
            k = rng.randint(0, 8)
            full = poch_infinite(a, Q, N)
            shifted = QMonomial(a.coef, a.exp + k)
            split = poch_finite(a, Q, k, order=N) * poch_infinite(shifted, Q, N)
            assert full.compare(split.truncate(N), N) is None


# ------------------------------------------------------------- vwp_factor

def test_vwp_n0():
    assert vwp_factor(q2, 0, 10).compare(LS.one(10), 10) is None


def test_vwp_q2():
    # (1-q^4)/(1-q^2) = 1 + q^2
    got = vwp_factor(q2, 1, 12)
    assert got.compare(LS.from_pairs({0: 1, 2: 1}, 12), 12) is None


def test_vwp_degenerate():
    with pytest.raises(DegenerateVWP):
        vwp_factor(mono(1), 3, 10)


def test_vwp_dual_path_oracle():
    # for k = (c q^e)^2 the factor equals the explicit four-Pochhammer
    # ratio with sqrt(k) = c q^e
    N = 30
    rng = random.Random(3)
    for _ in range(12):
        c = rng.choice([F(1), F(2), F(1, 2), F(-3, 5)])
        e = rng.randint(1, 3)
        k = mono(c * c, 2 * e)
        for n in range(0, 11, 2):
            via_identity = vwp_factor(k, n, N)
            num = poch_product(mono(c, e + 1), Q, n, N) * \
                poch_product(mono(-c, e + 1), Q, n, N)
            den = poch_product(mono(c, e), Q, n, N) * \
                poch_product(mono(-c, e), Q, n, N)
            explicit = num.mul(den.invert(), cap=N)
            assert via_identity.compare(explicit.truncate(
                min(N, int(explicit.eff_order()))), min(N, int(explicit.eff_order()))) is None


def test_vwp_zero_k():
    assert vwp_factor(mono(0), 5, 10).compare(LS.one(10), 10) is None


# ---------------------------------------------------------------- sum_exact

def test_sum_exact_false_theta():
    # sum (-1)^n q^{n(n+1)/2} to order 10; direct term-by-term oracle
    def term(n):
        return LS.monomial(F((-1) ** n), n * (n + 1) // 2, order=10)
    got = sum_exact(TermGenerator(term), 10)
    assert got == LS.from_pairs({0: 1, 1: -1, 3: 1, 6: -1, 10: 1}, order=10)


def test_sum_exact_zero_generator():
    got = sum_exact(TermGenerator(lambda n: LS.zero(10)), 10)
    assert got.is_zero and got.order == 10


def test_sum_exact_geometric():
    x = mono(1, 2)
    got = sum_exact(TermGenerator(lambda n: (x ** n).to_series(7)), 7)
    assert got == LS.from_pairs({0: 1, 2: 1, 4: 1, 6: 1}, order=7)


def test_sum_exact_declared_growth():
    # the terms n >= start, each read with its bound at its own n
    def term(n):
        calls.append(n)
        return LS.monomial(1, 2 * n, order=12)

    for start in (0, 2):
        calls = []
        got = sum_exact(TermGenerator(term, valuation_growth=lambda n: 2 * n),
                        12, start)
        assert got == LS.from_pairs({2 * k: 1 for k in range(start, 7)},
                                    order=12)
        assert calls == list(range(start, 7)), start


def test_sum_exact_stall():
    with pytest.raises(ValuationStall):
        sum_exact(TermGenerator(lambda n: LS.one(10)), 10)


def test_sum_exact_order_stable():
    def term(n):
        return LS.monomial(F(1, n + 1), 3 * n, order=30)
    hi = sum_exact(TermGenerator(term), 30)
    lo = sum_exact(TermGenerator(lambda n: term(n).truncate(14)), 14)
    assert hi.truncate(14) == lo


#: pairwise-coprime term denominators: each one widens the running
#: common denominator of `sum_exact`'s window
SUM_DENS = (1, 2, 3, 5, 7, 11, 2 ** 61 - 1)


@st.composite
def exact_sum_terms(draw, goal=12):
    """Terms for `sum_exact` at `goal`: windows of either sign over
    coprime denominators, starting anywhere from q^-6 to past the goal
    (so a later term may start lower), known to the goal, past it, or
    exactly (order None), zero ones included."""
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        lo = draw(st.integers(-6, goal + 2))
        den = draw(st.sampled_from(SUM_DENS))
        cs = [F(c, den) for c in draw(
            st.lists(st.integers(-50, 50), max_size=goal + 4))]
        order = draw(st.sampled_from((goal, goal + 3, None)))
        terms.append(LS._make(lo, cs, order))
    return terms


def folded(terms, goal):
    acc = LS.zero(goal)
    for t in terms:
        acc = acc + t
    return acc


@given(exact_sum_terms())
@settings(max_examples=150, deadline=None)
def test_sum_exact_matches_the_left_fold(terms):
    # one integer window against the left fold of LaurentSeries.__add__
    lows = [t.eff_min_deg() for t in terms]
    floor = min(lows, default=0)
    gen = TermGenerator(lambda n: terms[n], valuation_growth=lambda n:
                        floor if n < len(terms) else 13)
    assert sum_exact(gen, 12) == folded(terms, 12)


def test_sum_exact_window_cases():
    # each case of the window on its own: coprime denominators, a later
    # term starting lower, zero terms, a term known past the goal and an
    # exact one past it, and a sum that cancels to zero
    terms = [LS.monomial(F(1, 3), 2, order=6),
             LS.zero(6),
             LS.from_pairs({-2: F(1, 7), 3: F(-1, 2)}, order=6),
             LS.zero(None),
             LS.from_pairs({0: 5, 9: 1}, order=11),
             LS.from_pairs({-1: F(2, 5), 8: 4}),
             LS.monomial(F(-1, 3), 2, order=6)]
    gen = TermGenerator(lambda n: terms[n],
                        valuation_growth=lambda n: -2 if n < 7 else 7)
    got = sum_exact(gen, 6)
    assert got == folded(terms, 6)
    assert got == LS.from_pairs({-2: F(1, 7), -1: F(2, 5), 0: 5,
                                 3: F(-1, 2)}, order=6)
    cancel = [LS.monomial(F(1, 3), 1, order=6), LS.monomial(F(-1, 3), 1)]
    gen = TermGenerator(lambda n: cancel[n],
                        valuation_growth=lambda n: 1 if n < 2 else 7)
    assert sum_exact(gen, 6) == LS.zero(6)


def test_sum_exact_errors_unchanged():
    # a term known short of the goal raises with its shortfall, and a term
    # below its declared bound raises BoundViolation
    terms = [LS.one(10), LS.monomial(1, 2, order=7)]
    with pytest.raises(OrderInsufficient,
                       match="term 1 only known to order 7, need 10") as ex:
        sum_exact(TermGenerator(lambda n: terms[n],
                                valuation_growth=lambda n: 0), 10)
    assert ex.value.short == 3
    with pytest.raises(BoundViolation,
                       match="term 1 has valuation 1, below its declared "
                             "bound 2"):
        sum_exact(TermGenerator(lambda n: LS.monomial(1, n, order=10),
                                valuation_growth=lambda n: 2 * n), 10)


@pytest.mark.xfail(reason="the stopping rule guesses: 8 terms above the "
                          "goal end the sum before the late dip at n = 13..17")
def test_sum_exact_late_dip():
    # q^((n-15)^2 + 35): terms 0..12 lie above order 40, 13..17 below it
    def term(n):
        return LS.monomial(1, n * n - 30 * n + 260, order=40)
    expected = LS.zero(40)
    for n in range(61):         # past n = 30 the exponents only grow
        expected = expected + term(n)
    assert expected == LS.from_pairs({35: 1, 36: 2, 39: 2}, order=40)
    assert sum_exact(TermGenerator(term), 40) == expected


def late_dip_expected():
    # q^((n-15)^2 + 35) summed by brute force: past n = 30 the exponents
    # only grow
    expected = LS.zero(40)
    for n in range(61):
        expected = expected + LS.monomial(1, n * n - 30 * n + 260, order=40)
    assert expected == LS.from_pairs({35: 1, 36: 2, 39: 2}, order=40)
    return expected


def test_sum_exact_late_dip_declared():
    # the same sum with its exact law declared stops on the bound alone:
    # no run of high terms ends it early
    calls = []

    def term(n):
        calls.append(n)
        return LS.monomial(1, n * n - 30 * n + 260, order=40)

    growth = ValuationLaw(1, -30, 260).growth()
    assert [growth(n) for n in (0, 15, 16, 17, 18)] == [35, 35, 36, 39, 44]
    got = sum_exact(TermGenerator(term, valuation_growth=growth), 40)
    assert got == late_dip_expected()
    assert max(calls) == 17             # the last term at or below 40


def test_summation_late_dip_declared():
    ctx = ExactCtx(40)
    got = ctx.summation(Summand(ctx, power=(1, -30, 260)))
    assert ctx.finalize(got) == late_dip_expected()


@pytest.mark.parametrize("ctx", [ExactCtx(10), NumericCtx(F(1, 7))])
def test_summation_rejects_a_bare_callable(ctx):
    with pytest.raises(TypeError, match="declared summand"):
        ctx.summation(lambda n: ctx.qpow(n + 1))


def test_summation_without_growth_stalls_before_any_term():
    ctx = ExactCtx(10)
    calls = []

    def never(n):
        calls.append(n)
        return ctx.one()

    # a factor without a floor is a declaration defect, a summand that
    # never passes the goal a stall: both raise before any term
    from qident.bailey import Factor
    with pytest.raises(UndeclaredFloor):
        ctx.summation(Summand(ctx, factors=[Factor(never)]))
    with pytest.raises(ValuationStall):
        ctx.summation(Summand(ctx, ctx.qpow(1), (-1, 40)))
    assert calls == []


# ------------------------------------------------------ the valuation law

def law_at(law, m):
    """E(m) = a m^2 + b m + c + sum of min(0, k m + l) over the kinks."""
    a, b, c, kinks, _ = law
    return a * m * m + b * m + c + sum(min(0, k * m + l) for k, l in kinks)


def brute_least(law, n, span=200):
    """min over m in [n, n + span) of E(m), the support respected; the
    drawn laws grow past m = 60 at the latest."""
    vals = [law_at(law, m) for m in range(n, n + span)
            if law.support is None or m <= law.support]
    return min(vals) if vals else float("inf")


HALF = st.integers(-8, 8).map(lambda k: F(k, 2))
KINK = st.tuples(st.integers(-3, 3), st.integers(-20, 20))


@given(st.integers(-2, 6).map(lambda k: F(k, 2)), st.integers(-30, 30),
       HALF, st.lists(KINK, max_size=3),
       st.none() | st.integers(0, 30), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_law_least_matches_brute_force(a, b, c, kinks, support, n):
    # a < 0, or a falling line, is summable only up to a support
    law = ValuationLaw(a, b, c, tuple(kinks), support)
    slope = b + sum(k for k, _ in kinks if k < 0)
    if support is None and (a < 0 or a == 0 and slope <= 0):
        # no growth: refused before any term
        with pytest.raises(ValuationStall):
            law.growth()
        return
    # the scaled minimum of `_least`, and the bound `growth` reads off it
    least, d = law._least()
    m = least(n)
    want = brute_least(law, n)
    assert (float("inf") if m is None else F(m, d)) == want
    g = law.growth()
    assert g(n) == (want if want == float("inf") else -(-want // 1))
    assert g(n) <= g(n + 1)


@given(st.integers(-3, -1), st.integers(-5, 5), st.lists(KINK, max_size=2),
       st.integers(0, 10))
@settings(max_examples=50, deadline=None)
def test_law_with_falling_quadratic_stalls(a, b, kinks, n):
    law = ValuationLaw(a, b, 0, tuple(kinks))
    with pytest.raises(ValuationStall):
        law.growth()


@given(st.sampled_from([F(1), F(-1), F(2), F(1, 2)]), st.integers(-5, 3),
       st.sampled_from([F(1), F(-1), F(3)]), st.integers(0, 2),
       st.integers(1, 2), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_poch_law_bounds_the_product(c, e, cb, be, k, l):
    # (c q^e; cb q^be)_(k n + l) against the plain product: no
    # coefficient below the law at n, and zero past its support
    a, base = mono(c, e), mono(cb, be)
    law = poch_law(a, base, k, l)
    for n in range(6):
        p = poch_product(a, base, k * n + l)
        if law.support is not None and n > law.support:
            assert p.is_zero
        elif not p.is_zero:
            assert p.eff_min_deg() >= law_at(law, n)


# -------------------------------------------------------------- sum_numeric

ZERO_TAIL = Envelope(lambda n: (Decimal(0), Decimal(0)))


def test_sum_numeric_zero():
    calls = []
    gen = NumericTermGenerator(lambda n: calls.append(n) or Decimal(0),
                               ZERO_TAIL)
    assert sum_numeric(gen) == 0
    assert calls == [0]                 # (0, 0) certifies a zero tail


def test_sum_numeric_geometric():
    # sum 2^-n over n >= start, each term read with its envelope and its
    # limit ratio at its own n: on the envelope (2^-n, 1/2), or on the
    # envelope (1, 1/2), which never certifies the tail, and the limit
    # ratio 1/2, which the sum builds at term start + _RATIO_FROM and
    # stops on there, adding the geometric tail; the term budget also
    # counts from the start
    half = Decimal(1) / 2

    def term(n):
        calls.append(n)
        return Decimal(2) ** -n

    tail = Envelope(lambda n: (Decimal(2) ** -n, half), half)
    limit = Envelope(lambda n: (Decimal(1), half), half,
                     ratio=lambda: Ratio(half))
    for start in (0, 3, 12, qfunc._NUMERIC_TERM_BUDGET):
        for env in (tail, limit):
            calls = []
            got = sum_numeric(NumericTermGenerator(term, env), start=start)
            assert abs(got - 2 * half ** start) <= Decimal("1e-32"), start
        assert calls == list(range(start, start + qfunc._RATIO_FROM + 1))


def test_sum_numeric_not_decreasing():
    one = Decimal(1)
    with pytest.raises(TailNotDecreasing):
        sum_numeric(NumericTermGenerator(lambda n: one,
                                         Envelope(lambda n: (one, one), one)))


def test_sum_numeric_needs_an_envelope():
    with pytest.raises(TypeError):
        NumericTermGenerator(lambda n: Decimal(0))


def test_sum_numeric_late_term():
    # the only nonzero term is at n = 30: the zeros before it certify
    # nothing, since the factor declares (1, 1), and its support ends the
    # sum right after it
    ctx = NumericCtx(F(1, 7))
    late = constant(ctx.num(1))._replace(
        at=lambda n: ctx.num(1 if n == 30 else 0), support=30)
    assert ctx.summation(Summand(ctx, factors=[late])) == 1


@pytest.mark.parametrize("s", [None, F(1), F(-1), F(3, 2), F(-7, 3)])
def test_summation_never_falling_envelope(s):
    # sum 1 and sum x^n with |x| >= 1: TailNotDecreasing before the second
    # term, not after the term budget
    ctx = NumericCtx(F(1, 7))
    term = Summand(ctx, s)
    calls = []

    class Counted(Summand):
        def __call__(self, n):
            calls.append(n)
            return term(n)

    with pytest.raises(TailNotDecreasing):
        ctx.summation(Counted(*term))
    assert len(calls) <= 1


# ------------------------------------------------------------------ phi_term

def phi(upper, lower, z):
    """ctx -> the r-phi-s series of `phi_term` in base q, summed."""
    def build(ctx):
        return ctx.summation(phi_term(ctx, [lift(ctx, u) for u in upper],
                                      [lift(ctx, l) for l in lower],
                                      ctx.qpow(1), lift(ctx, z)))

    return build


def products(ctx, ups, downs):
    """prod (u; q)_inf / prod (d; q)_inf in ctx."""
    qq = ctx.qpow(1)
    return ctx.mul(*(ctx.poch_inf(lift(ctx, u), qq) for u in ups),
                   *(ctx.inv(ctx.poch_inf(lift(ctx, d), qq)) for d in downs))


def test_phi_z0():
    series = phi([mono(1, 2)], [mono(1, 3)], mono(0))
    assert_identity(lambda ctx: (series(ctx), ctx.one()), 20)


def test_phi_q_gauss_sum():
    # 2phi1(a, b; c; q, c/ab) with a=q^2, b=q^3, c=q^7 against the product
    # side, through infinite Pochhammers
    N = 30
    a, b, c = mono(1, 2), mono(1, 3), mono(1, 7)
    z = c / (a * b)
    lhs, _ = assert_identity(lambda ctx: (
        phi([a, b], [c], z)(ctx), products(ctx, [c / a, c / b], [c, z])), N)
    rhs = (poch_infinite(c / a, Q, N) * poch_infinite(c / b, Q, N)).mul(
        (poch_infinite(c, Q, N) * poch_infinite(z, Q, N)).invert(), cap=N)
    assert lhs.compare(rhs.truncate(N), N) is None


def test_phi_q_binomial_theorem():
    # sum (a;q)_n z^n/(q;q)_n = (az;q)inf/(z;q)inf at a=q^3, z=q^2
    N = 30
    a, z = mono(1, 3), mono(1, 2)
    # 1phi0, excess factor power 0
    lhs, _ = assert_identity(lambda ctx: (
        phi([a], [], z)(ctx), products(ctx, [a * z], [z])), N)
    rhs = poch_infinite(a * z, Q, N).mul(poch_infinite(z, Q, N).invert(),
                                         cap=N)
    assert lhs.compare(rhs.truncate(N), N) is None


def test_exact_numeric_coherence():
    # both strategies admissible: numeric value of the exact series at a
    # rational q matches the numeric sum within 1e-25
    N = 60
    a, z = mono(1, 3), mono(1, 2)
    (series,) = exact(N, lambda ctx: [phi([a], [], z)(ctx)])
    qv = F(1, 7)
    exact_val = series.eval_at(qv)

    def term(n):
        prod = F(1)
        for j in range(n):
            prod *= (1 - qv ** (3 + j))
            prod /= (1 - qv ** (1 + j))
        val = prod * qv ** (2 * n)
        return Decimal(val.numerator) / Decimal(val.denominator)

    def envelope(n):
        # |t(n)| and, from n on, the largest ratio bound
        # q^2 (1 + q^(3+n)) / (1 - q^(1+n))
        g = qv ** 2 * (1 + qv ** (3 + n)) / (1 - qv ** (1 + n))
        return BOUND_UP.plus(term(n).copy_abs()), \
            BOUND_UP.divide(g.numerator, g.denominator)

    numeric = sum_numeric(NumericTermGenerator(term, Envelope(envelope)))
    assert abs(numeric - Decimal(exact_val.numerator) /
               Decimal(exact_val.denominator)) < Decimal("1e-25")


def test_phi_terminating_upper_parameter():
    # (q^-3; q)_n vanishes from n = 4 on: 1phi0 is a four-term sum, here
    # expanded with Fractions: z^n (q^-3; q)_n as an exact Laurent
    # polynomial, then times 1/(q; q)_n as geometric series cut at N; and
    # the same four terms at q = 1/7
    N = 20
    qv = F(1, 7)

    def times(u, v):
        out = {}
        for e, c in u.items():
            for f, d in v.items():
                out[e + f] = out.get(e + f, 0) + c * d
        return out

    for zc, ze in ((F(1), 2), (F(-2, 3), 4)):
        total = {}
        at_q = F(0)
        for n in range(4):
            term = {ze * n: zc ** n}
            value = (zc * qv ** ze) ** n
            for j in range(n):
                term = times(term, {0: F(1), j - 3: F(-1)})
                value *= (1 - qv ** (j - 3)) / (1 - qv ** (j + 1))
            for j in range(1, n + 1):
                term = times(term, {j * k: F(1) for k in range(N + 4)})
            for e, c in term.items():
                if e <= N:
                    total[e] = total.get(e, 0) + c
            at_q += value
        series = phi([mono(1, -3)], [], mono(zc, ze))
        (got,) = exact(N, lambda ctx: [series(ctx)])
        assert got.order == N
        assert got.compare(LS.from_pairs(total, N), N) is None
        ctx, (num,) = numeric(lambda ctx: [series(ctx)], qv)
        assert ctx.sub(num, ctx.num(at_q)).copy_abs() <= ctx.tol
    # q-binomial theorem: the sum at z = q^2 is (q^-1; q)_3 = 0
    assert_identity(lambda ctx: (phi([mono(1, -3)], [], mono(1, 2))(ctx),
                                 ctx.num(0)), N)


def test_phi_lower_parameter_pole():
    # the lower parameter q^-2 makes (q^-2; q)_n vanish from n = 3 on
    build = phi([mono(1, 1)], [mono(1, -2)], mono(1, 1))
    with pytest.raises(DegenerateDenominator):
        exact(20, lambda ctx: [build(ctx)])


def test_phi_lower_parameter_pole_numeric():
    # q^-2 q^2 rounds to 1 - 1e-74, not 1, at q = 1/7: the run sees the
    # lower product within its cut of zero, not a rounding error to
    # divide by
    build = phi([mono(1, 1)], [mono(1, -2)], mono(1, 1))
    with pytest.raises(DegenerateDenominator):
        numeric(lambda ctx: [build(ctx)])


def test_phi_euler_0phi0():
    # 0phi0 has excess s + 1 - r = 1: sum (-1)^n q^{n(n-1)/2} z^n / (q; q)_n
    # is Euler's (z; q)_inf
    N = 30
    for z in (mono(1, 1), mono(F(-2, 3), 2), mono(5, 3)):
        got, _ = assert_identity(lambda ctx: (phi([], [], z)(ctx),
                                              products(ctx, [z], [])), N)
        assert got.compare(poch_infinite(z, Q, N), N) is None


@pytest.mark.parametrize("upper, lower, z", [
    ([mono(1, 2), mono(-3, 1)], [mono(F(1, 2), 4)], mono(1, 2)),  # 2phi1
    ([mono(F(2, 3), 1)], [mono(-1, 2)], mono(3, 1)),             # 1phi1
])
def test_phi_term_numeric_matches_exact(upper, lower, z):
    # the same phi_term summed under NumericCtx at q = 1/7 agrees with the
    # exact series evaluated there, for excess 0 and excess 1
    qv = F(1, 7)
    (series,) = exact(60, lambda ctx: [phi(upper, lower, z)(ctx)])
    exact_val = series.eval_at(qv)
    _, (got,) = numeric(lambda ctx: [phi(upper, lower, z)(ctx)], qv)
    assert abs(got - Decimal(exact_val.numerator) /
               Decimal(exact_val.denominator)) < Decimal("1e-25")


def test_tower_matches_poch_finite():
    t = PochTower(mono(2, 1), Q, 25)
    ti = PochTower(mono(2, 1), Q, 25, invert=True)
    for n in (0, 1, 4, 7):
        direct = poch_product(mono(2, 1), Q, n)   # exact polynomial
        assert t.upto(n).compare(direct, 25) is None
        prod = t.upto(n).mul(ti.upto(n), cap=25)
        assert prod.compare(LS.one(25), 25) is None


# ------------------------------------------- one integer pass per step
#
# The references below fold one factor at a time, the way the tower and
# poch_infinite were computed before their factors went
# through one `LaurentSeries.mul_binomials` pass: a Fraction coefficient
# -a.coef * base.coef^j and one mul_binomial/div_binomial per factor.

def fold_tower(factors, order, n):
    """Q(n) of `PochTower.of(factors, order)` by the per-factor fold, with
    the tower's order rule for a zero Q and its errors."""
    live = [f for f in factors if not f[0].is_zero]
    if n and any(not inv and a.exp < 0 and b.exp == 0
                 for a, b, inv in live):
        raise NonTruncatable("constant base with negative-exponent argument")
    cur, vanished = LS.one(order), set()
    for j in range(n):
        for i, (a, b, inv) in enumerate(live):
            c, e = -a.coef * b.coef ** j, a.exp + j * b.exp
            if e == 0 and c == -1:
                if inv:
                    raise DegenerateDenominator("vanishing lower factor")
                vanished.add(i)
            cur = cur.div_binomial(c, e) if inv else cur.mul_binomial(c, e)
    if len(vanished) > 1:
        return LS.zero(cur.order + (len(vanished) - 1) * (order + 1))
    return cur


def fold_poch(a, base, count, order=None):
    out = LS.one(order)
    for j in range(count):
        out = out.mul_binomial(-a.coef * base.coef ** j, a.exp + j * base.exp)
    return out


def same_series(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.order == want.order and got.min_deg == want.min_deg
    assert got.den > 0 and (got.is_zero or got.nums[0])


SMALL = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3),
                         F(5, 7)])
ARG = st.builds(QMonomial.of, SMALL, st.integers(-3, 3))
BASE = st.builds(QMonomial.of, st.sampled_from([F(0), F(1), F(-1), F(2),
                                                F(1, 2), F(-1, 3)]),
                 st.integers(0, 2))
FOLD = settings(max_examples=60, deadline=None)


@given(st.lists(st.tuples(ARG, BASE, st.booleans()), max_size=4),
       st.integers(0, 14), st.integers(0, 8), st.integers(0, 8))
@FOLD
def test_tower_matches_per_factor_fold(factors, order, n, m):
    # mixed inverted and plain factors, Laurent dips, constant bases and
    # upper factors that vanish (a = base^-j); looked up at n, then m
    tower = PochTower.of(factors, order)
    for k in (n, m):
        try:
            want = fold_tower(factors, order, k)
        except (DegenerateDenominator, NonTruncatable) as ex:
            with pytest.raises(type(ex)):
                tower.upto(k)
            continue
        same_series(tower.upto(k), want)


def test_tower_vanishing_upper_factors():
    # (q^-2; q) vanishes at j = 2 and (q^-1; q) at j = 1: Q is zero from
    # n = 3 on and carries the order of the product of two zero towers
    factors = [(mono(1, -2), Q, False), (mono(1, -1), Q, False),
               (mono(F(-1, 2), 1), q2, True)]
    tower = PochTower.of(factors, 9)
    for n in (5, 1, 2, 3):
        same_series(tower.upto(n), fold_tower(factors, 9, n))
    assert tower.upto(3).is_zero and tower.upto(3).order > 9


# ------------------------------------- one tower for every length k n + l
#
# A quotient whose Pochhammers have lengths k n + l is one tower stepped
# by its term ratio. Checked against the product of one one-factor tower
# per factor, each looked up at its own length (value, order and error),
# and against the plain products (value through the window).

LENGTH = st.tuples(st.integers(1, 3), st.integers(-2, 3))
#: q, q^2, c q^e with a constant among them, and (q^-m; q) to vanish
LONG_FACTOR = st.tuples(ARG, st.sampled_from([Q, q2]) | BASE, st.booleans(),
                        LENGTH) | st.tuples(
    st.integers(0, 4).map(lambda m: mono(1, -m)), st.just(Q),
    st.booleans(), LENGTH)
LONG_FACTORS = st.lists(LONG_FACTOR.map(lambda f: (*f[:3], *f[3])),
                        max_size=3)


def outcome(f):
    """f()'s value, or the type of the error it raises."""
    try:
        return f()
    except (DegenerateDenominator, NonTruncatable, ValueError) as ex:
        return type(ex)


def fused_faults(factors, order, lookups, tower=PochTower.of):
    """The lookups n at which `tower(factors, order)` disagrees with the
    product of one-factor towers at lengths k n + l, or, times its lower
    plain products (`poch_product`), with its upper ones."""
    fused = tower(factors, order)
    faults = []
    for n in lookups:
        parts = [outcome(lambda: PochTower(a, b, order, inv).upto(k * n + l))
                 for a, b, inv, k, l in factors]
        errors = {p for p in parts if isinstance(p, type)}
        got = outcome(lambda: fused.upto(n))
        if errors:
            # ValueError below n0; else one of the one-factor errors
            if got not in ({ValueError} if ValueError in errors else errors):
                faults.append((n, "error", got, errors))
            continue
        if isinstance(got, type):
            faults.append((n, "unexpected error", got))
            continue
        want = LS.one(order)
        for p in parts:
            want = want * p
        if got != want or got.order != want.order:
            faults.append((n, "towers", got, want))
        upper = lower = LS.one()
        for a, b, inv, k, l in factors:
            p = poch_product(a, b, k * n + l)
            upper, lower = (upper, lower * p) if inv else (upper * p, lower)
        cut = got.order + lower.min_deg
        if (got * lower).compare(upper, cut) is not None:
            faults.append((n, "poch_product", got))
    return faults


@given(LONG_FACTORS, st.integers(0, 12), st.integers(0, 6),
       st.integers(0, 6))
@FOLD
def test_tower_of_mixed_lengths_matches_references(factors, order, n, m):
    assert fused_faults(factors, order, [n, m, n + 1]) == []


def short_step(factors, order):
    """A mutant: the last factor, of k >= 1, pulls k - 1 binomials a step.
    Its `_binomials` stream gives the identity binomial (0, 1, 1, False)
    in place of the last of each step's k."""
    a, base, invert, k, l = factors[-1]
    m0 = k * length_start([f[3:] for f in factors]) + l
    binomials = qfunc._binomials

    def short(*args):
        stream = binomials(*args)
        if args != (a, base, invert):
            return stream
        return chain(islice(stream, m0),
                     ((0, 1, 1, False) if i % k == k - 1 else x
                      for i, x in enumerate(stream)))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(qfunc, "_binomials", short)
        return PochTower.of(factors, order)


def test_mixed_lengths_check_catches_a_short_step():
    draws = [([(mono(F(1, 2), 1), Q, False, 2, -1), (Q, Q, True, 1, 0)],
              8, range(4)),
             ([(mono(-1, 2), q2, False, 1, -1), (Q, Q, True, 2, 0)], 10,
              [3, 1]),
             ([(mono(2, 1), Q, True, 3, 2)], 6, [1, 2])]
    assert all(fused_faults(*d) == [] for d in draws)
    assert all(fused_faults(*d, tower=short_step) != [] for d in draws)


def test_stepped_replays_its_error_with_its_attributes():
    def steps():
        yield "a"
        yield "b"
        raise OrderInsufficient("short by 3", 3)

    run = Stepped(2, steps())
    with pytest.raises(ValueError, match=r"\(n = 1 is below 2\)"):
        run.at(1)
    for n in (6, 4, 5, 4):
        with pytest.raises(OrderInsufficient, match="^short by 3$") as info:
            run.at(n)
        assert info.value.short == 3
    assert [run.at(n) for n in (3, 2)] == ["b", "a"]


def test_tower_below_its_first_length():
    # (q^2; q)_(n - 2) / (q; q)_(2n + 1) starts at n0 = 2, holding
    # (q^2; q)_0 / (q; q)_5 there; n = 0 and 1 raise, as a Pochhammer of
    # negative length does
    tower = PochTower.of([(q2, Q, False, 1, -2), (Q, Q, True, 2, 1)], 12)
    assert tower.n0 == 2
    for n in (3, 0, 1, 2):
        if n < 2:
            with pytest.raises(ValueError):
                tower.upto(n)
        else:
            want = poch_product(q2, Q, n - 2, 12).mul(
                poch_product(Q, Q, 2 * n + 1).invert(12), cap=12)
            assert tower.upto(n) == want
    assert fused_faults([(mono(F(1, 2), 1), Q, False, 0, 2),
                         (Q, Q, True, 2, -3)], 9, range(5)) == []
    with pytest.raises(ValueError):
        PochTower.of([(Q, Q, False, 0, -1)], 9)


@given(st.builds(QMonomial.of, SMALL, st.integers(0, 4)),
       st.builds(QMonomial.of, st.sampled_from([F(1), F(-1), F(2),
                                                F(1, 2), F(-2, 3)]),
                 st.integers(1, 3)),
       st.integers(-1, 30))
@FOLD
def test_poch_infinite_matches_per_factor_fold(a, base, order):
    got = poch_infinite(a, base, order)
    count = 0
    while a.exp + count * base.exp <= order:
        count += 1
    same_series(got, fold_poch(a, base, count, order))
    want = brute_poch([(a.coef * base.coef ** j, a.exp + j * base.exp)
                       for j in range(count)], order)
    assert as_dict(got, order) == {k: v for k, v in want.items()
                                   if v and k <= order}


@given(ARG, BASE, st.integers(0, 7),
       st.one_of(st.none(), st.integers(-2, 12)))
@FOLD
def test_poch_finite_matches_per_factor_fold(a, base, n, order):
    if not refused(a, base, n):
        same_series(poch_finite(a, base, n, order),
                    fold_poch(a, base, n, order))
