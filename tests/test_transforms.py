"""The well-poised transforms: pinned exact values of the shared Ctx
builders, and the same builders under the numeric strategy."""

import random
from fractions import Fraction as F

import pytest

from qident.bailey import (
    AlphaSequence,
    cor_sides,
    cor_transform,
    running_sums,
    wp_beta_sum,
    wp_transform,
)
from qident.series import LaurentSeries as LS, QMonomial
from two_strategies import (assert_identity, exact, lift, lifted,
                            multi_base, numeric_gap, partial_sum_transform,
                            transform)


def mono(c, e=0):
    return QMonomial.of(F(c), e)


# (min_deg, order, coefficients): both sides of each transform, and
# beta_n of the pair relation, as computed by the raw-series
# implementations that the Ctx builders replaced. Equal sides alone
# would not catch a rewrite that returns the same wrong series twice.
PINNED = {
    "cor_sides": (0, 30, (
        '3/2', '-1', '7/2', '23/2', '-46/3', '263/4', '503/6', '55/4',
        '5441/3', '10183/4', '17557/3', '56301/4', '23228', '589097/12',
        '585605/6', '2264917/12', '2321413/6', '9234509/12', '9230261/6',
        '12358923/4', '18495359/3', '148029637/12', '148071517/6',
        '197326423/4', '296082262/3', '789519291/4', '1184230136/3',
        '2368618567/3', '3158050571/2', '3158058301', '18948461995/3')),
    "thm_k": (0, 20, (
        '2', '-5/12', '19/32', '341/128', '-23729/7680', '85841/30720',
        '-857881/122880', '-3187463/491520', '11333287/1966080',
        '-47620621/2621440', '113664141/10485760', '-429480871/125829120',
        '-4614617971/167772160', '27510969203/671088640',
        '-321588658777/8053063680', '-56839000763/6442450944',
        '616527974633/8589934592', '-14574606488717/171798691840',
        '70053897999501/687194767360', '457477238833753/8246337208320',
        '-965526453357893/6597069766656')),
    "thm_k0": (0, 20, (
        '2', '-5/12', '19/32', '-43/128', '4111/7680', '39281/30720',
        '50759/122880', '716761/491520', '488795/393216', '2272659/2621440',
        '22005997/10485760', '206094137/125829120', '396046573/167772160',
        '1385379603/671088640', '22707999431/8053063680',
        '107791289657/32212254720', '149389062381/42949672960',
        '755488411411/171798691840', '2962270204141/687194767360',
        '43541910875449/8246337208320', '199461488857799/32985348833280')),
    "sv": (0, 24, (
        '1', '0', '1/4', '0', '-1/12', '0', '7/12', '0', '-11/16', '0',
        '41/288', '0', '-47/48', '0', '-787/1152', '0', '-10823/3456', '0',
        '-6007/4608', '0', '-52073/13824', '0', '-558511/165888', '0',
        '-41869/6144')),
    "wp_beta": (0, 24, (
        '23/12', '13/6', '113/24', '169/24', '121/8', '589/32', '259/8',
        '1343/32', '4127/64', '8281/128', '4459/48', '3461/64', '34673/768',
        '-91891/768', '-470443/1536', '-1356289/1536', '-799057/512',
        '-3332207/1024', '-4149901/768', '-14985331/1536', '-47789113/3072',
        '-54210351/2048', '-62738683/1536', '-136621377/2048',
        '-51757057/512')),
}


def pinned(name):
    min_deg, order, coeffs = PINNED[name]
    return LS.from_pairs([(min_deg + i, F(c)) for i, c in enumerate(coeffs)],
                         order)


def assert_pinned(series, name):
    want = pinned(name)
    assert series.order == want.order
    assert series == want


THM_ALPHA = [F(2), F(-1, 3), F(5, 2), F(-4), F(1, 5)]


def test_cor_sides_pinned():
    # `cor_sides` is `cor_transform` with beta the running sums of alpha,
    # summed exactly; the builder gives the same sides under both
    # strategies
    alpha = AlphaSequence.from_values(
        [F(v) for v in ("3/2", "-2", "5/4", "1", "-7/3", "2", "1/4", "-1",
                        "6")])
    x, y, z = mono(2, 1), mono(F(1, 2), 1), mono(-1, 2)
    lhs, rhs = assert_identity(partial_sum_transform(alpha, x, y, z), 30)
    assert_pinned(lhs, "cor_sides")
    assert_pinned(rhs, "cor_sides")
    assert cor_sides(alpha, x, y, z, 30) == (lhs, rhs)


@pytest.mark.parametrize("k,name", [(mono(3, 5), "thm_k"),
                                    (mono(0), "thm_k0")])
def test_thm_transform_sides_pinned(k, name):
    alpha = AlphaSequence.from_values(THM_ALPHA)
    lhs, rhs = assert_identity(transform(alpha, mono(F(1, 2), 3), k,
                                         mono(2, 1), mono(-1, 2)), 20)
    assert_pinned(lhs, name)
    assert_pinned(rhs, name)


@pytest.mark.parametrize("k", [mono(F(1, 3), 3), mono(0)])
def test_thm_transform_sides_general_alpha(k):
    # alpha_n = (1/2)^n q^(n^2) declares no support, so the right side is
    # an infinite sum; term n of either side is O(q^(n^2)), so through
    # q^19 the sides are those of alpha cut after n = 5, which takes the
    # finite-support path that the pins above cover. beta_n of an alpha
    # without a support declares no bound, so the numeric arm takes the
    # cut alpha only
    general = AlphaSequence(
        lambda ctx, n: ctx.mul(ctx.num(F(1, 2) ** n), ctx.qpow(n * n)),
        floor=0)
    cut = AlphaSequence.from_values([mono(F(1, 2) ** n, n * n)
                                     for n in range(6)])
    cut = cut._replace(at=lambda ctx, n: lift(ctx, mono(F(1, 2) ** n, n * n)))
    r1, r2 = mono(F(-1, 2), 1), mono(3, 1)
    lhs, rhs = exact(20, transform(general, mono(2, 2), k, r1, r2))
    assert lhs.order == rhs.order == 20
    assert lhs == rhs
    assert (lhs, rhs) == assert_identity(transform(cut, mono(2, 2),
                                                   k, r1, r2), 20)


def test_subbarao_verma_sides_pinned():
    lhs, rhs = assert_identity(multi_base(
        5, F(1, 2), F(1, 3), F(2), mono(1, 3), mono(1, 2), mono(1, 1),
        mono(1, 2)), 24)
    assert_pinned(lhs, "sv")
    assert_pinned(rhs, "sv")


def test_wp_beta_pinned():
    alpha = AlphaSequence.from_values([F(1, 2), F(-3), F(2, 3), F(4),
                                       F(-1, 4), F(5)])
    (beta,) = exact(24, lambda ctx: [wp_beta_sum(
        ctx, *lifted(ctx, mono(2, 1), mono(F(-1, 2), 3)),
        alpha.factor(ctx), 4)])
    assert_pinned(beta, "wp_beta")


# ------------------------------------------------- shared code, numeric


def sequence(ctx, vals):
    return AlphaSequence.from_values(vals).factor(ctx)


@pytest.mark.parametrize("q,k", [(F(1, 7), F(1, 3)), (F(-1, 6), F(-2, 9))])
def test_wp_transform_numeric_general_alpha(q, k):
    a, r1, r2 = F(1, 4), F(1, 2), F(-2, 5)

    def build(ctx, vals=THM_ALPHA):
        return wp_transform(ctx, a, k, r1, r2, sequence(ctx, vals))

    gap, ctx = numeric_gap(build, q)
    assert gap <= ctx.tol
    # an alpha changed on one side only must show up
    bent, _ = numeric_gap(lambda ctx: (
        build(ctx)[0], build(ctx, THM_ALPHA[:-1] + [F(0)])[1]), q)
    assert bent > ctx.tol


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cor_transform_numeric_random_alpha(seed):
    rng = random.Random(seed)
    vals = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(8)]
    x, y, z = F(1, 3), F(2, 5), F(-1, 2)

    def build(ctx):
        alpha = sequence(ctx, vals)
        return cor_transform(ctx, x, y, z, running_sums(ctx, alpha), alpha)

    gap, ctx = numeric_gap(build, F(1, 9))
    assert gap <= ctx.tol
