"""Pair relation, chain step, infinite transform, partial-sum engine,
telescoping sequences, finite multi-base identity: the shared `Ctx`
builders, each identity under both strategies (`two_strategies`); and
the fold of a nested `Summand` into its parent."""

import random
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qident.bailey import (
    AlphaSequence,
    Factor,
    Summand,
    running_sums,
    unit_alpha,
    wp_beta_sum,
    wp_chain_alpha,
    wp_chain_beta,
)
from qident.context import ExactCtx, NumericCtx
from qident.errors import (BoundViolation, DegenerateDenominator,
                           UndeclaredBound, UndeclaredFloor)
from qident.series import LaurentSeries as LS, QMonomial
from references import poch_product
from two_strategies import (Q_NUMERIC, assert_identity, exact, lift,
                            lifted, multi_base, numeric, numeric_gap,
                            partial_sum_transform, transform)

Q = QMonomial.of(1, 1)


def mono(c, e=0):
    return QMonomial.of(F(c), e)


def eq(a, b, up_to):
    assert a.compare(b, up_to) is None, f"differ: {a.compare(b, up_to)}"


def at_q(v, q=Q_NUMERIC):
    """The monomial or rational v at the rational q, as a Fraction."""
    return v.coef * q ** v.exp if isinstance(v, QMonomial) else F(v)


def poch_at(x, n, q=Q_NUMERIC):
    """(x; q)_n at the rational q, as a Fraction."""
    out = F(1)
    for j in range(n):
        out *= 1 - at_q(x, q) * q ** j
    return out


# ------------------------------------------------------------- wp_beta_sum

def beta_values(alpha, a, k, ns):
    """ctx -> beta_n (`wp_beta_sum`) of the pair (alpha, a, k) for n in
    ns."""
    def build(ctx):
        am, km = lifted(ctx, a, k)
        return [wp_beta_sum(ctx, am, km, alpha.factor(ctx), n) for n in ns]

    return build


def test_wp_beta_unit_pair_closed_form():
    # single surviving term: beta_n = (k/a)_n (k)_n / ((q)_n (aq)_n)
    N = 30
    a, k = mono(1, 1), mono(1, 3)
    build = beta_values(unit_alpha(), a, k, range(6))
    ctx, values = numeric(build)
    for n, got in enumerate(exact(N, build)):
        want = poch_product(k / a, Q, n) * poch_product(k, Q, n)
        den = poch_product(Q, Q, n) * poch_product(a * Q, Q, n)
        want = want.mul(den.invert(N), cap=N)
        eq(got, want.truncate(min(N, int(want.eff_order()))), N - 2)
        want = poch_at(k / a, n) * poch_at(k, n) / (
            poch_at(Q, n) * poch_at(a * Q, n))
        assert ctx.sub(values[n], ctx.num(want)).copy_abs() <= ctx.tol


def test_wp_beta_reduction_k_eq_aq():
    # k = aq collapses the weight to 1: beta_n is the plain partial sum
    N = 25
    rng = random.Random(17)
    for _ in range(10):
        vals = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        alpha = AlphaSequence.from_values(vals)
        a = mono(rng.choice([1, 2, F(1, 2)]), rng.randint(0, 2))
        for n in range(9):
            assert_identity(lambda ctx: (
                beta_values(alpha, a, a * Q, [n])(ctx)[0],
                running_sums(ctx, alpha.factor(ctx))(n)), N)


def test_wp_beta_brute_force_oracle():
    # independent re-evaluation of the defining sum, no towers
    N = 24
    rng = random.Random(4)
    vals = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
    alpha = AlphaSequence.from_values(vals)
    a, k = mono(1, 1), mono(1, 3)
    n = 4
    build = beta_values(alpha, a, k, [n])
    (got,) = exact(N, build)
    acc = LS.zero(N)
    val = F(0)
    for j in range(n + 1):
        num = poch_product(k / a, Q, n - j) * poch_product(k, Q, n + j)
        den = poch_product(Q, Q, n - j) * poch_product(a * Q, Q, n + j)
        acc = acc + num.mul(den.invert(N), cap=N).scale(vals[j]).truncate(N)
        val += vals[j] * poch_at(k / a, n - j) * poch_at(k, n + j) / (
            poch_at(Q, n - j) * poch_at(a * Q, n + j))
    eq(got, acc, N - 2)
    ctx, (num_got,) = numeric(build)
    assert ctx.sub(num_got, ctx.num(val)).copy_abs() <= ctx.tol


# --------------------------------------------------------------- chain step

def chain_sides(alpha, a, k, r1, r2, n):
    """ctx -> (beta_n of the chained pair (alpha', a, k) from the defining
    relation, the closed form beta'_n) of one chain step from (alpha, a,
    c), c = k r1 r2 / (a q)."""
    def build(ctx):
        am, km, s1, s2 = lifted(ctx, a, k, r1, r2)
        f = alpha.factor(ctx)
        prime = Factor(lambda j: wp_chain_alpha(ctx, am, s1, s2, f, j),
                       support=f.support)
        return wp_beta_sum(ctx, am, km, prime, n), \
            wp_chain_beta(ctx, am, km, s1, s2, f, n)

    return build


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
    a, k, r1, r2 = (mono(*spec[x]) for x in ("a", "k", "r1", "r2"))
    for n in range(7):
        assert_identity(chain_sides(unit_alpha(), a, k, r1, r2, n), N)


def test_chain_keeps_base_when_c_equals_k():
    # rho1 rho2 = aq makes c = k; closure still holds
    N = 30
    a, k, r1, r2 = mono(1, 2), mono(1, 5), mono(1, 1), mono(1, 2)
    assert k * r1 * r2 / (a * Q) == k
    for n in range(7):
        assert_identity(chain_sides(unit_alpha(), a, k, r1, r2, n), N)


def test_chain_n0_identity():
    # alpha'_0 = alpha_0 = 1 and beta'_0 = 1
    N = 20
    a, k, r1, r2 = mono(1, 3), mono(1, 5), mono(1, 1), mono(1, 2)

    def build(ctx):
        am, km, s1, s2 = lifted(ctx, a, k, r1, r2)
        f = unit_alpha().factor(ctx)
        return wp_chain_alpha(ctx, am, s1, s2, f, 0), \
            wp_chain_beta(ctx, am, km, s1, s2, f, 0)

    for v in exact(N, build):
        eq(v, LS.one(N), N)
    ctx, values = numeric(build)
    assert all(ctx.sub(v, 1).copy_abs() <= ctx.tol for v in values)


# ---------------------------------------------------------------- transform

def test_transform_unit_pair():
    assert_identity(transform(unit_alpha(), mono(1, 3), mono(1, 5),
                              mono(1, 1), mono(1, 2)), 30)


def test_transform_general_alpha():
    # arbitrary finitely supported alpha still satisfies the transform
    rng = random.Random(6)
    vals = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
    assert_identity(transform(AlphaSequence.from_values(vals), mono(1, 3),
                              mono(1, 5), mono(1, 1), mono(1, 2)), 28)


def test_transform_k0_classical():
    # k = 0 reduces to the classical transform for a pair relative to a
    assert_identity(transform(unit_alpha(), mono(1, 3), mono(0),
                              mono(1, 1), mono(1, 2)), 30)


def test_transform_degenerate_prefactor():
    # rho1 = kq makes (kq/rho1)_inf, a denominator of the prefactor, vanish:
    # (1; q)_inf is exactly 0 in either context, and its inverse raises
    build = transform(unit_alpha(), mono(1, 3), mono(1, 1), mono(1, 2),
                      mono(2))
    with pytest.raises(DegenerateDenominator):
        exact(20, build)
    with pytest.raises(DegenerateDenominator):
        numeric(build)


# ------------------------------------------------------------ central engine

def assert_unsupported_alpha(alpha, x, y, z, order):
    """The partial-sum transform for an alpha without a support: the
    exact sums stop on its floor. A numeric sum needs a bound or a
    support, and these beta_n have no bound that falls, so the numeric
    arm takes alpha cut after n = 40 (the identity holds for every
    alpha)."""
    lhs, rhs = exact(order, partial_sum_transform(alpha, x, y, z))
    eq(lhs, rhs, order)
    gap, ctx = numeric_gap(partial_sum_transform(
        alpha._replace(support=40), x, y, z))
    assert gap <= ctx.tol


def test_cor_sides_ones():
    alpha = AlphaSequence(lambda ctx, n: ctx.one(), floor=0)
    assert_unsupported_alpha(alpha, mono(1, 1), mono(1, 2), mono(1, 3), 30)


def test_cor_sides_alternating():
    alpha = AlphaSequence(lambda ctx, n: ctx.num(F(-1) ** n), floor=0)
    assert_unsupported_alpha(alpha, mono(1, 1), mono(1, 2), mono(1, 3), 30)


def test_cor_sides_random_finite_alpha():
    rng = random.Random(12)
    for _ in range(6):
        vals = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(9)]
        alpha = AlphaSequence.from_values(vals)
        assert_identity(partial_sum_transform(alpha, mono(1, 1), mono(2, 1),
                                              mono(1, 2)), 30)


def test_cor_sides_alpha_linear():
    # the engine is linear in alpha on both sides
    N = 24
    rng = random.Random(3)
    v1 = [F(rng.randint(-4, 4)) for _ in range(7)]
    v2 = [F(rng.randint(-4, 4)) for _ in range(7)]
    both = [a + b for a, b in zip(v1, v2)]
    x, y, z = mono(1, 1), mono(1, 2), mono(3, 1)
    builds = [partial_sum_transform(AlphaSequence.from_values(v), x, y, z)
              for v in (v1, v2, both)]
    (l1, r1), (l2, r2), (l12, r12) = (exact(N, b) for b in builds)
    eq(l12, l1 + l2, N)
    eq(r12, r1 + r2, N)
    (ctx, (l1, r1)), (_, (l2, r2)), (_, (l12, r12)) = map(numeric, builds)
    assert ctx.sub(l12, ctx.add(l1, l2)).copy_abs() <= ctx.tol
    assert ctx.sub(r12, ctx.add(r1, r2)).copy_abs() <= ctx.tol


def test_cor_sides_laurent_alpha():
    # alpha_0 = q^-3: beta_n = q^-3 and the lhs terms start at q^(n - 3).
    # from_values takes the floor -3 from the value, so the exact sums
    # reach the terms up to n = 33 that a floor of 0 would drop; both
    # sides are q^-3 times those of the unit sequence
    N = 30
    x, y, z = Q, mono(1, 2), mono(1, 3)
    alpha = AlphaSequence.from_values([mono(1, -3)])
    assert alpha.floor == -3
    alpha = alpha._replace(at=lambda ctx, n: lift(ctx, mono(1, -3)))
    lhs, rhs = assert_identity(partial_sum_transform(alpha, x, y, z), N)
    lhs1, rhs1 = exact(N + 3, partial_sum_transform(unit_alpha(), x, y, z))
    eq(lhs, lhs1.scale(1, -3), N)
    eq(rhs, rhs1.scale(1, -3), N)


def test_cor_sides_floor_is_checked():
    # a floor that the values break fails loudly instead of cutting the
    # exact sum short; no floor at all is refused before any term, and
    # with no bound either the numeric sum is refused too
    x, y, z = Q, mono(1, 2), mono(1, 3)
    wrong = AlphaSequence(lambda ctx, n: lift(ctx, mono(1, -3)), support=0,
                          floor=0)
    with pytest.raises(BoundViolation):
        exact(30, partial_sum_transform(wrong, x, y, z))
    undeclared = partial_sum_transform(
        AlphaSequence(lambda ctx, n: ctx.one()), x, y, z)
    with pytest.raises(UndeclaredFloor, match="floor"):
        exact(30, undeclared)
    with pytest.raises(UndeclaredBound):
        numeric(undeclared)


# ---------------------------------------------------------------- telescoping

def telescoped(t):
    """alpha_0 = t_0 and alpha_n = t_n - t_{n-1}, with t(ctx, n) the value
    t_n in ctx: partial sums recover t."""
    return AlphaSequence(lambda ctx, n: ctx.sub(t(ctx, n), t(ctx, n - 1))
                         if n else t(ctx, 0))


def test_telescope_constant():
    alpha = telescoped(lambda ctx, n: ctx.one())
    assert alpha.value(0, 10) == LS.one(10)
    for n in range(1, 6):
        assert alpha.value(n, 10) == LS.zero(10)


def test_telescope_roundtrip_random():
    rng = random.Random(8)
    vals = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(13)]
    alpha = telescoped(lambda ctx, n: ctx.num(vals[n]))
    for n in range(13):
        assert_identity(lambda ctx: (
            running_sums(ctx, alpha.factor(ctx))(n), ctx.num(vals[n])), 10)


def test_telescope_pochhammer_ratio_closed_form():
    # t_n = (aq, bq)_n / (abq, q)_n telescopes to (a, b)_n q^n / (abq, q)_n
    N = 26
    a, b = mono(1, 1), mono(1, 2)

    def quotient(ctx, ups, s=None):
        am, bm, qq = lifted(ctx, a, b, Q)
        return ctx.quotient([(u, qq) for u in ups(am, bm, qq)],
                            [(ctx.mul(am, bm, qq), qq), (qq, qq)], s)

    alpha = telescoped(lambda ctx, n: quotient(
        ctx, lambda am, bm, qq: [ctx.mul(am, qq), ctx.mul(bm, qq)])(n))
    for n in range(1, 9):
        got, closed = assert_identity(lambda ctx: (
            alpha.at(ctx, n),
            quotient(ctx, lambda am, bm, qq: [am, bm], lift(ctx, Q))(n)), N)
        num = poch_product(a, Q, n) * poch_product(b, Q, n)
        den = poch_product(a * b * Q, Q, n) * poch_product(Q, Q, n)
        want = num.mul(den.invert(N), cap=N).scale(1, n)
        assert got.compare(want.truncate(min(N, int(want.eff_order()))),
                           N - n) is None


def test_telescope_u_powers():
    # t_n = (1 - u^{n+1})/(1 - u) has alpha_n = u^n
    u = mono(1, 2)

    def t(ctx, n):
        return reduce(ctx.add, [ctx.pow_int(lift(ctx, u), j)
                                for j in range(n + 1)])

    alpha = telescoped(t)
    for n in range(7):
        assert_identity(lambda ctx: (alpha.at(ctx, n),
                                     ctx.pow_int(lift(ctx, u), n)), 20)


# ----------------------------------------------------- finite telescoping sum

def test_sv_n0():
    lhs, rhs = assert_identity(multi_base(
        0, F(1, 2), F(1, 3), F(2), mono(1, 1), mono(1, 2), mono(1, 3),
        mono(1, 4)), 20)
    eq(lhs, LS.one(20), 20)


@pytest.mark.parametrize("n,exps", [
    (3, (1, 2, 3, 4)),
    (6, (2, 1, 1, 2)),
    (4, (1, 1, 1, 1)),
    (5, (3, 2, 1, 2)),
    (6, (1, 3, 2, 2)),
])
def test_sv_sides_equal(n, exps):
    ep, eP, eQ, eR = exps
    assert_identity(multi_base(
        n, F(1, 2), F(1, 3), F(2), mono(1, ep), mono(1, eP), mono(1, eQ),
        mono(1, eR)), 24)


def test_sv_degenerate():
    # a = 1: the linear factor 1 - a at n = 0 vanishes; both contexts
    # see the sum of two rationals cancel, and its inverse raises
    build = multi_base(2, F(1), F(1, 3), F(2), mono(1, 1), mono(1, 2),
                       mono(1, 3), mono(1, 4))
    with pytest.raises(DegenerateDenominator):
        exact(20, build)
    with pytest.raises(DegenerateDenominator):
        numeric(build)


# ------------------------------------------------------ nested summands
#
# A Summand among the factors of another is folded into it when the
# parent is built: one declaration whose terms are the products of the
# two terms and whose law is the sum of the two laws.

def nonunit(exps):
    return st.builds(QMonomial, st.sampled_from(
        [F(-1), F(1, 2), F(2, 3), F(-3), F(3)]), exps)


# arguments and heads that vanish at no n, exactly or at Q_NUMERIC: no
# coefficient is 1 or a power of 7, and a head's r has the coefficient
# +-1 while its w has not
DECLARATION = st.fixed_dictionaries({
    "s": st.none() | nonunit(st.integers(0, 2)),
    "ups": st.lists(st.tuples(nonunit(st.integers(0, 2)), st.integers(1, 2),
                              st.integers(0, 1)), max_size=2),
    "downs": st.lists(st.tuples(nonunit(st.integers(0, 2)),
                                st.integers(1, 2), st.integers(0, 1)),
                      max_size=2),
    "heads": st.lists(st.tuples(
        nonunit(st.integers(0, 2)).filter(lambda w: abs(w.coef) != 1),
        st.builds(QMonomial, st.sampled_from([F(1), F(-1)]),
                  st.integers(0, 2)), st.booleans()), max_size=2),
    "factors": st.lists(st.integers(1, 3), max_size=1),
    "support": st.none() | st.integers(2, 6)})
POWER = st.tuples(st.integers(0, 1), st.integers(-1, 2), st.integers(-1, 1))
BASE_P = st.sampled_from([None, mono(1, 2), mono(-1, 1)])


def declared(ctx, d, power=(), p=None, nested=()):
    """The Summand of the declaration `d` in `ctx`, with the q-power
    p^(A n^2 + B n + C) and the summands `nested` among its factors."""
    q = ctx.qpow(1)
    return Summand(
        ctx, None if d["s"] is None else lift(ctx, d["s"]), power,
        None if p is None else lift(ctx, p),
        [(lift(ctx, u), q, k, l) for u, k, l in d["ups"]],
        [(lift(ctx, u), q, k, l) for u, k, l in d["downs"]],
        [(lift(ctx, w), lift(ctx, r), inverse)
         for w, r, inverse in d["heads"]],
        [*(Factor(lambda n, c=c: ctx.num(n + c), 0) for c in d["factors"]),
         *nested], d["support"])


def fold_faults(outer, inner, power, p, inner_power):
    """Where the fold of the declaration `inner` (with the q-power when
    `inner_power`, else `outer` has it) into `outer` departs from the
    two parts: its terms n = 0..3 against the products of theirs,
    exactly and at Q_NUMERIC, and its law against the sum of theirs."""
    powers = ((), power) if inner_power else (power, ())

    def parts(ctx):
        return (declared(ctx, outer, powers[0], p),
                declared(ctx, inner, powers[1], p))

    def folded(ctx):
        a, b = parts(ctx)
        return declared(ctx, outer, powers[0], p, [b]), a, b

    def terms(ctx):
        f, a, b = folded(ctx)
        return [v for n in range(4) for v in (f(n), ctx.mul(a(n), b(n)))]

    faults = []
    got = exact(12, terms)
    faults += [("exact", n) for n in range(4)
               if got[2 * n] != got[2 * n + 1]]
    ctx, got = numeric(terms)
    faults += [("numeric", n) for n in range(4)
               if ctx.sub(got[2 * n], got[2 * n + 1]).copy_abs()
               > ctx.tol * max(1, got[2 * n + 1].copy_abs())]

    def normal(law):
        return law.a, law.b, law.c, sorted(law.kinks), law.support

    f, a, b = folded(ExactCtx(12))
    if normal(f.law()) != normal(a.law() + b.law()):
        faults.append(("law",))
    return faults


@settings(max_examples=60, deadline=None)
@given(DECLARATION, DECLARATION, POWER, BASE_P, st.booleans())
def test_fold_is_the_product_of_its_parts(outer, inner, power, p,
                                          inner_power):
    assert fold_faults(outer, inner, power, p, inner_power) == []


#: every field of both parts is set, and the inner s is not 1
FOLD_DRAW = (
    {"s": mono(2, 1), "ups": [(mono(F(1, 2), 1), 1, 0)],
     "downs": [(mono(-3, 1), 2, 1)],
     "heads": [(mono(3, 1), mono(-1, 1), False)],
     "factors": [1], "support": 3},
    {"s": mono(F(2, 3), 1), "ups": [(mono(-1, 2), 2, 0)],
     "downs": [(mono(F(1, 2), 0), 1, 1)],
     "heads": [(mono(F(-3), 0), mono(1, 1), True)], "factors": [2],
     "support": 5},
    (1, -1, 0), mono(-1, 1), True)


@pytest.mark.parametrize("mutant", [
    lambda fold, a, b: fold(a, b._replace(ups=b.ups[1:])),
    lambda fold, a, b: fold(a, b._replace(downs=b.downs[1:])),
    lambda fold, a, b: fold(a, b._replace(heads=b.heads[1:])),
    lambda fold, a, b: fold(a, b._replace(s=None)),
    lambda fold, a, b: fold(a, b)._replace(support=max(
        a.support, b.support)),
], ids=["drops-up", "drops-down", "drops-head", "drops-s",
        "larger-support"])
def test_fold_check_catches_mutants(monkeypatch, mutant):
    assert fold_faults(*FOLD_DRAW) == []
    fold = Summand._fold
    monkeypatch.setattr(Summand, "_fold",
                        lambda a, b: mutant(fold, a, b))
    assert fold_faults(*FOLD_DRAW) != []


def test_fold_refuses_two_powers():
    ctx = ExactCtx(10)
    with pytest.raises(ValueError, match="two q-powers"):
        Summand(ctx, power=(1,), factors=[Summand(ctx, power=(0, 1))])


def test_a_summand_left_by_replace_is_never_a_factor():
    # `_replace` skips the fold, so a Summand it leaves among the factors
    # raises wherever a term, a sum or an envelope would read it
    for ctx in (ExactCtx(10), NumericCtx(Q_NUMERIC)):
        q = ctx.qpow(1)
        term = Summand(ctx, q)._replace(factors=[Summand(ctx, q)])
        with pytest.raises(TypeError, match="_replace left"):
            term(1)
        with pytest.raises(TypeError, match="_replace left"):
            ctx.summation(term)
    with pytest.raises(TypeError, match="_replace left"):
        term.envelope()
