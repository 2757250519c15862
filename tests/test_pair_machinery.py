"""The chain step and the power-sum bridge over Ctx: pinned exact values
of the shared code, the same code under the numeric strategy, and the
context rules they rely on (summation `times`, the scalar 1)."""

from fractions import Fraction as F

import pytest

from qident import bailey
from qident.bailey import (
    AlphaSequence,
    Factor,
    Summand,
    cor_lhs,
    running_sums,
    unit_alpha,
    wp_beta_sum,
    wp_chain_alpha,
    wp_chain_beta,
    wp_transform,
)
from qident.context import ExactCtx, NumericCtx, exact_run
from qident.errors import DegenerateVWP
from qident.pte import bridge_sequences, family6, pte_alpha_beta
from qident.qfunc import PochTower, vwp_factor
from qident.series import LaurentSeries as LS, QMonomial
from references import poch_product
from two_strategies import assert_identity, lift

Q = QMonomial.of(1, 1)


def mono(c, e=0):
    return QMonomial.of(F(c), e)


# (min_deg, order, coefficients), computed by the raw-series chain step
# and bridge that the Ctx versions replaced
PINNED = {
    "chain_alpha4": (4, 20, (
        '-5/64', '5/32', '5/64', '0', '-15/128', '-75/128', '25/64',
        '-25/64', '215/256', '5/256', '-125/256', '145/256', '-295/512',
        '525/512', '-585/512', '35/64', '95/1024')),
    "chain_beta4": (0, 20, (
        '1', '-7/3', '-23/12', '-157/48', '-5/64', '2261/96', '487/192',
        '1035/32', '-787/128', '-663/128', '-8309/192', '-2509/48',
        '-126383/768', '-17643/256', '-54479/768', '-62575/768',
        '141967/1536', '319087/1536', '208299/512', '113413/256',
        '362603/1024')),
    "chain2_alpha2": (6, 20, (
        '3/4', '-9/4', '-3/4', '27/4', '-15/8', '-27/4', '-3/2', '9',
        '111/16', '-27/2', '-117/16', '171/16', '321/32', '-81/16',
        '-495/32')),
    "bridge_alpha3": (18, 20, ('554400', '0', '0')),
    "bridge_beta3": (0, 20, (
        '1', '0', '0', '0', '0', '0', '554400', '28274400', '1055577600',
        '33646536000', '982932904800', '27150973264800', '722229963285600',
        '18708229507968000', '475406222430585600',
        '11911706186811631200', '295341931529920598400',
        '7265315088610835256000', '177664503728620954584000',
        '4325036734322729780493600', '104928376750708407392311200')),
}


def assert_pinned(series, name):
    min_deg, order, coeffs = PINNED[name]
    want = LS.from_pairs([(min_deg + i, F(c)) for i, c in enumerate(coeffs)],
                         order)
    assert series.order == want.order
    assert series == want


CHAIN_ALPHA = [F(1), F(-2, 3), F(3), F(1, 2), F(-5, 4), F(2)]


def chained(alpha, a, r1, r2):
    """alpha' of one chain step from alpha (`wp_chain_alpha`), read in the
    context that asks for it."""
    return alpha._replace(at=lambda ctx, n: wp_chain_alpha(
        ctx, lift(ctx, a), lift(ctx, r1), lift(ctx, r2), alpha.factor(ctx),
        n), floor=None)


def test_chain_step_pinned():
    # the last chain specialization of test_bailey, with a general alpha:
    # alpha'_4 and the closed form beta'_4, which the defining relation
    # gives too
    N = 20
    alpha = AlphaSequence.from_values(CHAIN_ALPHA)
    a, k, r1, r2 = mono(1, 4), mono(3, 5), mono(2, 1), mono(1, 3)
    prime = chained(alpha, a, r1, r2)

    def build(ctx):
        am, km, s1, s2 = (lift(ctx, v) for v in (a, k, r1, r2))
        return wp_beta_sum(ctx, am, km, prime.factor(ctx), 4), \
            wp_chain_beta(ctx, am, km, s1, s2, alpha.factor(ctx), 4)

    direct, closed = assert_identity(build, N)
    assert_pinned(closed, "chain_beta4")
    assert_pinned(direct, "chain_beta4")
    assert_pinned(prime.value(4, N), "chain_alpha4")


def test_chained_alpha_value_is_one_exact_run(monkeypatch):
    # a chained alpha reads the alpha it was built from in its own
    # context: a value two steps deep is one exact run, not one per step
    calls = []
    run = bailey.exact_run

    def counted(*args, **kw):
        calls.append(args)
        return run(*args, **kw)

    monkeypatch.setattr(bailey, "exact_run", counted)
    N = 20
    p1 = chained(AlphaSequence.from_values(CHAIN_ALPHA[:3]), mono(1, 4),
                 mono(2, 1), mono(1, 3))
    p2 = chained(p1, mono(1, 4), mono(1, 1), mono(1, 2))
    assert_pinned(p2.value(2, N), "chain2_alpha2")
    assert len(calls) == 1


def test_bridge_pinned():
    alpha, beta = pte_alpha_beta(*family6(1, 2))
    assert alpha.value(0, 20) == LS.one(20)
    assert_pinned(LS.coerce(alpha.value(3, 20)).truncate(20),
                  "bridge_alpha3")
    assert_pinned(beta.value(3, 20), "bridge_beta3")


@pytest.mark.parametrize("alpha", [
    unit_alpha(), AlphaSequence.from_values(CHAIN_ALPHA[:4])])
def test_chain_closure_k0(alpha):
    # k = 0 is Bailey's lemma: the step's weight is (aq/(r1 r2))^n
    a, k, r1, r2 = mono(1, 3), mono(0), mono(1, 1), mono(2, 2)
    prime = chained(alpha, a, r1, r2)
    for n in range(6):
        assert_identity(lambda ctx: (
            wp_beta_sum(ctx, lift(ctx, a), lift(ctx, k), prime.factor(ctx),
                        n),
            wp_chain_beta(ctx, *(lift(ctx, v) for v in (a, k, r1, r2)),
                          alpha.factor(ctx), n)), 24)


# ------------------------------------------------------------- numeric


def numeric_ctx():
    return NumericCtx(F(1, 7))


def sequence(ctx, vals):
    return AlphaSequence.from_values(vals).factor(ctx)


def test_chain_closure_numeric():
    ctx = numeric_ctx()
    a, r1, r2 = F(1, 5), F(1, 2), F(-2, 5)
    alpha = sequence(ctx, CHAIN_ALPHA)
    alpha_prime = Factor(lambda n: wp_chain_alpha(ctx, a, r1, r2, alpha, n),
                         support=alpha.support)

    for k in (F(1, 3), F(0)):
        for n in range(6):
            direct = wp_beta_sum(ctx, a, k, alpha_prime, n)
            closed = wp_chain_beta(ctx, a, k, r1, r2, alpha, n)
            assert abs(direct - closed) <= ctx.tol
    # the relation at another k must not close
    bent = wp_beta_sum(ctx, a, F(1, 4), alpha_prime, 3)
    assert abs(bent - wp_chain_beta(ctx, a, F(1, 3), r1, r2, alpha,
                                    3)) > ctx.tol


@pytest.mark.parametrize("a,b", [
    ([F(1, 2), F(1, 3)], [F(-1, 6)]),
    family6(1, 2),
])
def test_bridge_numeric(a, b):
    ctx = numeric_ctx()
    alpha, beta = bridge_sequences(ctx, a, b)
    partial = running_sums(ctx, alpha)
    assert alpha(0) == 1
    for n in range(7):
        assert abs(partial(n) - beta(n)) <= ctx.tol
    assert abs(partial(3) - beta(4)) > ctx.tol


def test_summation_times_exact_against_numeric():
    # q^-3 * sum_{n>=1} q^(n^2+n) / (q; q)_n: the exact sum runs 3 deeper,
    # so the product is known through the target
    N = 40
    times = -3

    def run(ctx):
        qq = ctx.qpow(1)
        return ctx.summation(Summand(ctx, power=(1, 1), downs=[(qq, qq)]),
                             start=1, times=ctx.qpow(times))

    exact = ExactCtx(N, headroom=3)
    series = exact.finalize(run(exact)).truncate(N)
    assert series.min_deg == -1 and series.order == N
    numeric = numeric_ctx()
    at_q = sum(c * F(1, 7) ** (series.min_deg + i)
               for i, c in enumerate(series.coeffs))
    # the truncation tail at q = 1/7 is about 1e-32
    assert abs(numeric.num(at_q) - run(numeric)) <= numeric.tol


def test_exact_scalar_one():
    # a trivial factor is the scalar 1 (vwp) or the unit monomial (a
    # quotient, so poch and inv_poch), never a series
    ctx = ExactCtx(10)
    for v in (ctx.vwp(mono(3, 2), 0), ctx.vwp(F(0), 4)):
        assert type(v) is F and v == 1
    for v in (ctx.poch(mono(2, 1), Q, 0), ctx.inv_poch(mono(2, 1), Q, 0),
              ctx.poch(mono(0), Q, 5), ctx.inv_poch(F(0), Q, 5)):
        assert v == QMonomial.of(1)
    assert isinstance(ctx.poch(mono(2, 1), Q, 1), LS)


@pytest.mark.parametrize("ctx", [ExactCtx(10), numeric_ctx()])
def test_vwp_k1_degenerate_at_n0(ctx):
    with pytest.raises(DegenerateVWP):
        ctx.vwp(ctx.num(1), 0)


@pytest.mark.parametrize("run, x, y, z", [
    (lambda build: exact_run(20, build), mono(1, 1), mono(1, -1), mono(1)),
    (lambda build: build(numeric_ctx()), F(1, 2), F(2), F(1))])
def test_cor_lhs_k1_degenerate(run, x, y, z):
    # xyz = 1: the very-well-poised weight raises DegenerateVWP before its
    # bound forms the constant 1/(1 - k)
    with pytest.raises(DegenerateVWP):
        run(lambda ctx: cor_lhs(ctx, x, y, z, Summand(ctx)))


@pytest.mark.parametrize("ctx", [ExactCtx(20, headroom=6), numeric_ctx()])
def test_wp_transform_asks_alpha_within_support(ctx):
    support = 3
    vals = [F(2), F(-1, 3), F(5, 2), F(-4)]
    asked = []

    def alpha_at(n):
        asked.append(n)
        return ctx.num(vals[n]) if n < len(vals) else ctx.num(0)

    a, k, r1, r2 = (mono(F(1, 2), 3), mono(3, 5), mono(2, 1), mono(-1, 2)) \
        if isinstance(ctx, ExactCtx) else (F(1, 4), F(1, 3), F(1, 2),
                                           F(-2, 5))
    wp_transform(ctx, a, k, r1, r2, Factor(alpha_at, 0, support))
    assert asked and max(asked) <= support


def test_non_monomial_arguments_rejected():
    series = LS.from_pairs({0: 1, 1: 1})
    with pytest.raises(TypeError):
        PochTower(series, Q, 10)
    with pytest.raises(TypeError):
        vwp_factor(series, 2, 10)


# ------------------------------------- the Pochhammer quotient in one base

QUOTIENT_CASES = [
    ([], [], []),
    ([mono(2, 1), mono(-1, 2)], [], []),
    ([], [mono(3, 1), mono(F(1, 2), 2)], []),
    ([], [], [mono(5, 3), F(-2, 3)]),
    ([mono(2, 1), mono(-1, 2)], [mono(3, 1), mono(F(1, 2), 2)],
     [mono(5, 3), F(-2, 3)]),
]


@pytest.mark.parametrize("ups,downs,more", QUOTIENT_CASES)
@pytest.mark.parametrize("base", [Q, mono(1, 2)])
def test_poch_quotient_exact_factor_by_factor(ups, downs, more, base):
    N = 25
    ctx = ExactCtx(N)
    quot = ctx.quotient([(u, base) for u in ups], [(d, base) for d in downs])
    for n in range(5):
        want = LS.one(N)
        for u in ups:
            want = want * poch_product(u, base, n, N)
        for d in downs:
            want = want * poch_product(d, base, n, N).invert(N)
        for m in more:
            want = want * LS.coerce(m, N)
        got = ctx.finalize(quot(n, *more))
        assert got.compare(want, N) is None


@pytest.mark.parametrize("ups,downs,more", QUOTIENT_CASES)
@pytest.mark.parametrize("base", [Q, mono(1, 2)])
def test_poch_quotient_numeric_factor_by_factor(ups, downs, more, base):
    q = F(1, 7)
    ctx = NumericCtx(q)

    def at(v):
        return v.coef * q ** v.exp if isinstance(v, QMonomial) else v

    def poch(a, n):
        out = F(1)
        for j in range(n):
            out *= 1 - at(a) * at(base) ** j
        return out

    quot = ctx.quotient([(at(u), at(base)) for u in ups],
                        [(at(d), at(base)) for d in downs])
    for n in range(5):
        want = F(1)
        for u in ups:
            want *= poch(u, n)
        for d in downs:
            want /= poch(d, n)
        for m in more:
            want *= at(m)
        assert abs(quot(n, *[at(m) for m in more]) - ctx.num(want)) \
            <= ctx.tol
