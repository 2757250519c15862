"""Pair relation, chain step, infinite transform, partial-sum engine,
telescoping builders, finite multi-base identity."""

import random
from fractions import Fraction as F

import pytest

from qident.bailey import (
    AlphaSequence,
    ChainParams,
    WPPair,
    cor_sides,
    partial_sums,
    subbarao_verma_sides,
    telescope_alpha,
    thm_transform_sides,
    unit_alpha,
    wp_beta,
    wp_chain_step,
)
from qident.errors import (BoundViolation, DegenerateDenominator,
                           UndeclaredFloor)
from qident.qfunc import poch_finite
from qident.series import LaurentSeries as LS, QMonomial

Q = QMonomial.of(1, 1)


def mono(c, e=0):
    return QMonomial.of(F(c), e)


def eq(a, b, up_to):
    assert a.compare(b, up_to) is None, f"differ: {a.compare(b, up_to)}"


# ------------------------------------------------------------------ wp_beta

def test_wp_beta_unit_pair_closed_form():
    # single surviving term: beta_n = (k/a)_n (k)_n / ((q)_n (aq)_n)
    N = 30
    a, k = mono(1, 1), mono(1, 3)
    pair = WPPair(unit_alpha(), a, k)
    for n in range(6):
        got = wp_beta(pair, n, N)
        want = poch_finite(k / a, Q, n) * poch_finite(k, Q, n)
        den = poch_finite(Q, Q, n) * poch_finite(a * Q, Q, n)
        want = want.mul(den.invert(N), cap=N)
        eq(got, want.truncate(min(N, int(want.eff_order()))), N - 2)


def test_wp_beta_reduction_k_eq_aq():
    # k = aq collapses the weight to 1: beta_n is the plain partial sum
    N = 25
    rng = random.Random(17)
    for _ in range(10):
        vals = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        alpha = AlphaSequence.from_values(vals)
        a = mono(rng.choice([1, 2, F(1, 2)]), rng.randint(0, 2))
        pair = WPPair(alpha, a, a * Q)
        for n in range(9):
            got = wp_beta(pair, n, N)
            want = partial_sums(alpha, n, N)
            assert got.compare(want, N) is None


def test_wp_beta_brute_force_oracle():
    # independent re-evaluation of the defining sum, no towers
    N = 24
    rng = random.Random(4)
    vals = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
    alpha = AlphaSequence.from_values(vals)
    a, k = mono(1, 1), mono(1, 3)
    pair = WPPair(alpha, a, k)
    n = 4
    got = wp_beta(pair, n, N)
    acc = LS.zero(N)
    for j in range(n + 1):
        num = poch_finite(k / a, Q, n - j) * poch_finite(k, Q, n + j)
        den = poch_finite(Q, Q, n - j) * poch_finite(a * Q, Q, n + j)
        acc = acc + num.mul(den.invert(N), cap=N).scale(vals[j]).truncate(N)
    eq(got, acc, N - 2)


# --------------------------------------------------------------- chain step

# admissible: none of aq/rho_i, k*rho_i/a, qc hit q^{-m}, and c != 1
CHAIN_SPECS = [
    dict(a=(1, 3), k=(1, 5), r1=(1, 1), r2=(1, 2)),
    dict(a=(1, 4), k=(1, 6), r1=(1, 2), r2=(1, 2)),
    dict(a=(2, 3), k=(1, 5), r1=(1, 1), r2=(1, 2)),
    dict(a=(1, 3), k=(F(1, 2), 4), r1=(1, 1), r2=(1, 2)),
    dict(a=(1, 4), k=(3, 5), r1=(2, 1), r2=(1, 3)),
]


@pytest.mark.parametrize("spec", CHAIN_SPECS)
def test_chain_closure(spec):
    # outputs of one chain step satisfy the defining relation for n <= 6
    N = 34
    pair = WPPair(unit_alpha(), mono(*spec["a"]), mono(*spec["k"]))
    params = ChainParams(mono(*spec["r1"]), mono(*spec["r2"]), mono(*spec["k"]))
    new_pair, beta_prime = wp_chain_step(pair, params, N)
    for n in range(7):
        direct = wp_beta(new_pair, n, N)
        closed = beta_prime(n, N)
        assert direct.compare(closed, N - 4) is None


def test_chain_keeps_base_when_c_equals_k():
    # rho1 rho2 = aq makes c = k; closure still holds
    N = 30
    a, k = mono(1, 2), mono(1, 5)
    params = ChainParams(mono(1, 1), mono(1, 2), k)   # rho1*rho2 = q^3 = a*q
    pair = WPPair(unit_alpha(), a, k)
    assert params.c_for(a) == k
    new_pair, beta_prime = wp_chain_step(pair, params, N)
    for n in range(7):
        assert wp_beta(new_pair, n, N).compare(beta_prime(n, N), N - 4) is None


def test_chain_n0_identity():
    N = 20
    pair = WPPair(unit_alpha(), mono(1, 3), mono(1, 5))
    params = ChainParams(mono(1, 1), mono(1, 2), mono(1, 5))
    new_pair, beta_prime = wp_chain_step(pair, params, N)
    a0 = LS.coerce(new_pair.alpha.value(0, N), N)
    eq(a0, LS.one(N), N - 1)
    eq(beta_prime(0, N), LS.one(N), N - 1)


# ---------------------------------------------------------------- transform

def test_transform_unit_pair():
    N = 30
    pair = WPPair(unit_alpha(), mono(1, 3), mono(1, 5))
    lhs, rhs = thm_transform_sides(pair, mono(1, 1), mono(1, 2), N)
    eq(lhs, rhs, N)


def test_transform_general_alpha():
    # arbitrary finitely supported alpha still satisfies the transform
    N = 28
    rng = random.Random(6)
    vals = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
    pair = WPPair(AlphaSequence.from_values(vals), mono(1, 3), mono(1, 5))
    lhs, rhs = thm_transform_sides(pair, mono(1, 1), mono(1, 2), N)
    eq(lhs, rhs, N)


def test_transform_k0_classical():
    # k = 0 reduces to the classical transform for a pair relative to a
    N = 30
    pair = WPPair(unit_alpha(), mono(1, 3), mono(0))
    lhs, rhs = thm_transform_sides(pair, mono(1, 1), mono(1, 2), N)
    eq(lhs, rhs, N)


def test_transform_degenerate_prefactor():
    # rho1 = aq makes an infinite-product argument equal to 1
    pair = WPPair(unit_alpha(), mono(1, 1), mono(1, 3))
    with pytest.raises(DegenerateDenominator):
        thm_transform_sides(pair, mono(1, 2), mono(1, 2), 20)


# ------------------------------------------------------------ central engine

def test_cor_sides_ones():
    N = 30
    alpha = AlphaSequence(lambda ctx, n: F(1), floor=0)
    lhs, rhs = cor_sides(alpha, mono(1, 1), mono(1, 2), mono(1, 3), N)
    eq(lhs, rhs, N)


def test_cor_sides_alternating():
    N = 30
    alpha = AlphaSequence(lambda ctx, n: F(-1) ** n, floor=0)
    lhs, rhs = cor_sides(alpha, mono(1, 1), mono(1, 2), mono(1, 3), N)
    eq(lhs, rhs, N)


def test_cor_sides_random_finite_alpha():
    N = 30
    rng = random.Random(12)
    for _ in range(6):
        vals = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(9)]
        alpha = AlphaSequence.from_values(vals)
        lhs, rhs = cor_sides(alpha, mono(1, 1), mono(2, 1), mono(1, 2), N)
        eq(lhs, rhs, N)


def test_cor_sides_alpha_linear():
    # the engine is linear in alpha on both sides
    N = 24
    rng = random.Random(3)
    v1 = [F(rng.randint(-4, 4)) for _ in range(7)]
    v2 = [F(rng.randint(-4, 4)) for _ in range(7)]
    both = [a + b for a, b in zip(v1, v2)]
    x, y, z = mono(1, 1), mono(1, 2), mono(3, 1)
    l1, r1 = cor_sides(AlphaSequence.from_values(v1), x, y, z, N)
    l2, r2 = cor_sides(AlphaSequence.from_values(v2), x, y, z, N)
    l12, r12 = cor_sides(AlphaSequence.from_values(both), x, y, z, N)
    eq(l12, l1 + l2, N)
    eq(r12, r1 + r2, N)


def test_cor_sides_laurent_alpha():
    # alpha_0 = q^-3: beta_n = q^-3 and the lhs terms start at q^(n - 3).
    # from_values takes the floor -3 from the value, so the sums reach
    # the terms up to n = 33 that a floor of 0 would drop; both sides are
    # q^-3 times those of the unit sequence
    N = 30
    x, y, z = Q, mono(1, 2), mono(1, 3)
    alpha = AlphaSequence.from_values([mono(1, -3)])
    assert alpha.floor == -3
    lhs, rhs = cor_sides(alpha, x, y, z, N)
    lhs1, rhs1 = cor_sides(unit_alpha(), x, y, z, N + 3)
    eq(lhs, lhs1.scale(1, -3), N)
    eq(rhs, rhs1.scale(1, -3), N)
    eq(lhs, rhs, N)


def test_cor_sides_floor_is_checked():
    # a floor that the values break fails loudly instead of cutting the
    # sum short; no floor at all is refused before any term
    x, y, z = Q, mono(1, 2), mono(1, 3)
    wrong = AlphaSequence(lambda ctx, n: mono(1, -3), support=0, floor=0)
    with pytest.raises(BoundViolation):
        cor_sides(wrong, x, y, z, 30)
    with pytest.raises(UndeclaredFloor, match="floor"):
        cor_sides(AlphaSequence(lambda ctx, n: F(1)), x, y, z, 30)


# ---------------------------------------------------------------- telescoping

def test_telescope_constant():
    alpha = telescope_alpha(lambda ctx, n: F(1))
    assert alpha.value(0, 10) == LS.one(10)
    for n in range(1, 6):
        assert alpha.value(n, 10) == LS.zero(10)


def test_telescope_roundtrip_random():
    rng = random.Random(8)
    vals = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(13)]
    alpha = telescope_alpha(lambda ctx, n: vals[n])
    for n in range(13):
        got = partial_sums(alpha, n, 10)
        assert got.compare(LS.monomial(vals[n], 0, 10), 10) is None


def test_telescope_pochhammer_ratio_closed_form():
    # t_n = (aq, bq)_n / (abq, q)_n telescopes to (a, b)_n q^n / (abq, q)_n
    N = 26
    a, b = mono(1, 1), mono(1, 2)

    def t(ctx, n):
        num = poch_finite(a * Q, Q, n) * poch_finite(b * Q, Q, n)
        den = poch_finite(a * b * Q, Q, n) * poch_finite(Q, Q, n)
        return num.mul(den.invert(ctx.order), cap=ctx.order)

    alpha = telescope_alpha(t)
    for n in range(1, 9):
        got = LS.coerce(alpha.value(n, N), N)
        num = poch_finite(a, Q, n) * poch_finite(b, Q, n)
        den = poch_finite(a * b * Q, Q, n) * poch_finite(Q, Q, n)
        want = num.mul(den.invert(N), cap=N).scale(1, n)
        assert got.compare(want.truncate(min(N, int(want.eff_order()))),
                           N - n) is None


def test_telescope_u_powers():
    # t_n = (1 - u^{n+1})/(1 - u) has alpha_n = u^n
    N = 20
    u = mono(1, 2)

    def t(ctx, n):
        out = LS.zero(ctx.order)
        for j in range(n + 1):
            out = out + (u ** j).to_series(ctx.order)
        return out

    alpha = telescope_alpha(t)
    for n in range(7):
        got = LS.coerce(alpha.value(n, N), N)
        assert got.compare((u ** n).to_series(N), N) is None


# ----------------------------------------------------- finite telescoping sum

def test_sv_n0():
    lhs, rhs = subbarao_verma_sides(
        0, F(1, 2), F(1, 3), F(2), mono(1, 1), mono(1, 2), mono(1, 3),
        mono(1, 4), 20)
    eq(lhs, LS.one(20), 20)
    eq(rhs, LS.one(20), 20)


@pytest.mark.parametrize("n,exps", [
    (3, (1, 2, 3, 4)),
    (6, (2, 1, 1, 2)),
    (4, (1, 1, 1, 1)),
    (5, (3, 2, 1, 2)),
    (6, (1, 3, 2, 2)),
])
def test_sv_sides_equal(n, exps):
    ep, eP, eQ, eR = exps
    lhs, rhs = subbarao_verma_sides(
        n, F(1, 2), F(1, 3), F(2), mono(1, ep), mono(1, eP), mono(1, eQ),
        mono(1, eR), 24)
    eq(lhs, rhs, 24)


def test_sv_degenerate():
    with pytest.raises(DegenerateDenominator):
        subbarao_verma_sides(2, F(1), F(1, 3), F(2), mono(1, 1), mono(1, 2),
                             mono(1, 3), mono(1, 4), 20)
