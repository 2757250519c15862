"""Run one build of the shared `Ctx` code under both strategies: exactly,
in `exact_run`, and numerically, in a `NumericCtx` at a rational q.

A build is a function ctx -> values. Its parameters are written once, as
monomials c q^e or rationals, and `lift` turns them into values of the
context it runs in. The builds of the transforms that several test
modules check are at the end."""

from fractions import Fraction as F
from functools import reduce

# the one exact read-out, shared with `AlphaSequence.value`
from qident.bailey import (_exact as exact, cor_transform, running_sums,
                           sv_linear, sv_quotient, wp_transform)
from qident.context import NumericCtx
from qident.series import QMonomial

#: the q of the numeric arm, inside the |q| <= 1/5 of the catalog's
#: numeric draws
Q_NUMERIC = F(1, 7)


def lift(ctx, v):
    """The monomial or rational v as a value of `ctx`."""
    if isinstance(v, QMonomial):
        return ctx.mul(ctx.num(v.coef), ctx.qpow(v.exp))
    return ctx.num(v)


def lifted(ctx, *vals):
    return [lift(ctx, v) for v in vals]


def numeric(build, q=Q_NUMERIC):
    """The NumericCtx at q, and build(ctx)'s values there."""
    ctx = NumericCtx(q)
    return ctx, tuple(ctx.finalize(v) for v in build(ctx))


def numeric_gap(build, q=Q_NUMERIC):
    """|lhs - rhs| of build(ctx) at q, and the NumericCtx."""
    ctx, (lhs, rhs) = numeric(build, q)
    return ctx.sub(lhs, rhs).copy_abs(), ctx


def assert_identity(build, order):
    """build(ctx) is (lhs, rhs) of one identity: the sides agree exactly
    through `order` and within the numeric tolerance at Q_NUMERIC.
    Returns the exact sides."""
    lhs, rhs = exact(order, build)
    assert lhs.compare(rhs, order) is None, lhs.compare(rhs, order)
    gap, ctx = numeric_gap(build)
    assert gap <= ctx.tol, gap
    return lhs, rhs


def transform(alpha, a, k, r1, r2):
    """ctx -> both sides of `wp_transform` for the pair of the
    `AlphaSequence` alpha, a and k."""
    return lambda ctx: wp_transform(ctx, *lifted(ctx, a, k, r1, r2),
                                    alpha.factor(ctx))


def partial_sum_transform(alpha, x, y, z):
    """ctx -> both sides of `cor_transform` with beta_n the partial sums
    of the `AlphaSequence` alpha."""
    def build(ctx):
        f = alpha.factor(ctx)
        return cor_transform(ctx, *lifted(ctx, x, y, z),
                             running_sums(ctx, f), f)

    return build


def multi_base(n, a, b, c, p, P, Qb, R):
    """ctx -> both sides of the finite multi-base telescoping identity: the
    sum over j <= n of the `sv_quotient` term times R^(2j) and the
    linear factors (`sv_linear`), and its closed form, the shifted
    quotient at n."""
    def build(ctx):
        bases = lifted(ctx, p, P, Qb, R, a, b, c)
        term = sv_quotient(ctx, *bases, False)._replace(
            s=ctx.pow_int(bases[3], 2), **sv_linear(ctx, *bases))
        return reduce(ctx.add, [term(j) for j in range(n + 1)]), \
            sv_quotient(ctx, *bases, True)(n)

    return build
