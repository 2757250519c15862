"""Pochhammer, very-well-poised factor, the phi series, summation engines."""

import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from qident.bailey import phi_rs, phi_term
from qident.context import NumericCtx
from qident.errors import (
    DegenerateVWP,
    NonTruncatable,
    TailNotDecreasing,
    ValuationStall,
)
from qident.qfunc import (
    NumericTermGenerator,
    PochTower,
    TermGenerator,
    poch_finite,
    poch_infinite,
    sum_exact,
    sum_numeric,
    vwp_factor,
)
from qident.series import LaurentSeries as LS, QMonomial

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


# ------------------------------------------------------------- poch_finite

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
        got = poch_finite(mono(c, e), QMonomial.of(1, be), n)
        want = brute_poch([(c, e + j * be) for j in range(n)], 10 ** 6)
        assert as_dict(got, 10 ** 6) == {k: v for k, v in want.items() if v}


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
            num = poch_finite(mono(c, e + 1), Q, n, order=N) * \
                poch_finite(mono(-c, e + 1), Q, n, order=N)
            den = poch_finite(mono(c, e), Q, n, order=N) * \
                poch_finite(mono(-c, e), Q, n, order=N)
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
    calls = []

    def term(n):
        calls.append(n)
        return LS.monomial(1, 2 * n, order=12)

    got = sum_exact(TermGenerator(term, valuation_growth=lambda n: 2 * n), 12)
    assert got == LS.from_pairs({2 * k: 1 for k in range(7)}, order=12)
    assert max(calls) <= 6


def test_sum_exact_stall():
    with pytest.raises(ValuationStall):
        sum_exact(TermGenerator(lambda n: LS.one(10)), 10)


def test_sum_exact_order_stable():
    def term(n):
        return LS.monomial(F(1, n + 1), 3 * n, order=30)
    hi = sum_exact(TermGenerator(term), 30)
    lo = sum_exact(TermGenerator(lambda n: term(n).truncate(14)), 14)
    assert hi.truncate(14) == lo


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


# -------------------------------------------------------------- sum_numeric

def test_sum_numeric_zero():
    got = sum_numeric(NumericTermGenerator(lambda n: Decimal(0)))
    assert got == 0


def test_sum_numeric_geometric():
    got = sum_numeric(NumericTermGenerator(lambda n: Decimal(2) ** -n))
    assert abs(got - 2) < Decimal("1e-30")


def test_sum_numeric_not_decreasing():
    with pytest.raises(TailNotDecreasing):
        sum_numeric(NumericTermGenerator(lambda n: Decimal(1)))


@pytest.mark.xfail(reason="the stopping rule guesses: 20 terms below "
                          "tol/100 end the sum before the term at n = 30")
def test_sum_numeric_late_term():
    def term(n):
        return Decimal(1 if n == 30 else 0)
    expected = sum(term(n) for n in range(100))
    assert expected == 1
    assert sum_numeric(NumericTermGenerator(term)) == expected


# -------------------------------------------------------------------- phi_rs

def test_phi_z0():
    got = phi_rs([mono(1, 2)], [mono(1, 3)], Q, mono(0), 20)
    assert got.compare(LS.one(20), 20) is None


def test_phi_q_gauss_sum():
    # 2phi1(a, b; c; q, c/ab) with a=q^2, b=q^3, c=q^7 against the product
    # side evaluated independently through infinite Pochhammers
    N = 30
    a, b, c = mono(1, 2), mono(1, 3), mono(1, 7)
    z = c / (a * b)
    lhs = phi_rs([a, b], [c], Q, z, N)
    rhs = (poch_infinite(c / a, Q, N) * poch_infinite(c / b, Q, N)).mul(
        (poch_infinite(c, Q, N) * poch_infinite(z, Q, N)).invert(), cap=N)
    assert lhs.compare(rhs.truncate(N), N) is None


def test_phi_q_binomial_theorem():
    # sum (a;q)_n z^n/(q;q)_n = (az;q)inf/(z;q)inf at a=q^3, z=q^2
    N = 30
    a, z = mono(1, 3), mono(1, 2)
    lhs = phi_rs([a], [], Q, z, N)   # 1phi0, excess factor power 0
    rhs = poch_infinite(a * z, Q, N).mul(poch_infinite(z, Q, N).invert(),
                                         cap=N)
    assert lhs.compare(rhs.truncate(N), N) is None


def test_exact_numeric_coherence():
    # both strategies admissible: numeric value of the exact series at a
    # rational q matches the numeric sum within 1e-25
    N = 60
    a, z = mono(1, 3), mono(1, 2)
    series = phi_rs([a], [], Q, z, N)
    qv = F(1, 7)
    exact_val = series.eval_at(qv)

    def term(n):
        prod = F(1)
        for j in range(n):
            prod *= (1 - qv ** (3 + j))
            prod /= (1 - qv ** (1 + j))
        val = prod * qv ** (2 * n)
        return Decimal(val.numerator) / Decimal(val.denominator)

    numeric = sum_numeric(NumericTermGenerator(term))
    assert abs(numeric - Decimal(exact_val.numerator) /
               Decimal(exact_val.denominator)) < Decimal("1e-25")


def test_phi_terminating_upper_parameter():
    # (q^-3; q)_n vanishes from n = 4 on: 1phi0 is a four-term sum, here
    # expanded with Fractions: z^n (q^-3; q)_n as an exact Laurent
    # polynomial, then times 1/(q; q)_n as geometric series cut at N
    N = 20

    def times(u, v):
        out = {}
        for e, c in u.items():
            for f, d in v.items():
                out[e + f] = out.get(e + f, 0) + c * d
        return out

    for zc, ze in ((F(1), 2), (F(-2, 3), 4)):
        total = {}
        for n in range(4):
            term = {ze * n: zc ** n}
            for j in range(n):
                term = times(term, {0: F(1), j - 3: F(-1)})
            for j in range(1, n + 1):
                term = times(term, {j * k: F(1) for k in range(N + 4)})
            for e, c in term.items():
                if e <= N:
                    total[e] = total.get(e, 0) + c
        got = phi_rs([mono(1, -3)], [], Q, mono(zc, ze), N)
        assert got.order == N
        assert got.compare(LS.from_pairs(total, N), N) is None
    # q-binomial theorem: the sum at z = q^2 is (q^-1; q)_3 = 0
    assert phi_rs([mono(1, -3)], [], Q, mono(1, 2), N).is_zero


def test_phi_lower_parameter_pole():
    from qident.errors import LowerParameterPole
    with pytest.raises(LowerParameterPole):
        phi_rs([mono(1, 1)], [mono(1, -2)], Q, mono(1, 1), 20)


def test_phi_euler_0phi0():
    # 0phi0 has excess s + 1 - r = 1: sum (-1)^n q^{n(n-1)/2} z^n / (q; q)_n
    # is Euler's (z; q)_inf
    N = 30
    for z in (mono(1, 1), mono(F(-2, 3), 2), mono(5, 3)):
        got = phi_rs([], [], Q, z, N)
        assert got.compare(poch_infinite(z, Q, N), N) is None


@pytest.mark.parametrize("upper, lower, z", [
    ([mono(1, 2), mono(-3, 1)], [mono(F(1, 2), 4)], mono(1, 2)),  # 2phi1
    ([mono(F(2, 3), 1)], [mono(-1, 2)], mono(3, 1)),             # 1phi1
])
def test_phi_term_numeric_matches_phi_rs(upper, lower, z):
    # the same phi_term summed under NumericCtx at q = 1/7 agrees with the
    # exact series evaluated there, for excess 0 and excess 1
    qv = F(1, 7)
    exact_val = phi_rs(upper, lower, Q, z, 60).eval_at(qv)
    ctx = NumericCtx(qv)

    def at(m):
        return ctx.mul(m.coef, ctx.qpow(m.exp))

    got = ctx.summation(phi_term(ctx, [at(u) for u in upper],
                                 [at(l) for l in lower], ctx.q, at(z)))
    assert abs(got - Decimal(exact_val.numerator) /
               Decimal(exact_val.denominator)) < Decimal("1e-25")


def test_tower_matches_poch_finite():
    t = PochTower(mono(2, 1), Q, 25)
    ti = PochTower(mono(2, 1), Q, 25, invert=True)
    for n in (0, 1, 4, 7):
        direct = poch_finite(mono(2, 1), Q, n)   # exact polynomial
        assert t.upto(n).compare(direct, 25) is None
        prod = t.upto(n).mul(ti.upto(n), cap=25)
        assert prod.compare(LS.one(25), 25) is None
