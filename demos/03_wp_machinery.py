"""Walkthrough: the well-poised pair machinery.

A pair (alpha_n, beta_n) is tied together by a two-parameter weighted sum.
Setting k = aq collapses the weights and beta becomes the plain partial
sum of alpha -- the engine behind the whole identity catalog. The chain
step builds new pairs from old ones; the infinite transform relates the
two weighted series attached to any pair. Each is written once over the
context algebra: `exact_run` runs it exactly, a `NumericCtx` at a
rational q.
"""

from fractions import Fraction as F

from qident import AlphaSequence, QMonomial, unit_alpha
from qident.bailey import (
    Factor,
    running_sums,
    wp_beta_sum,
    wp_chain_alpha,
    wp_chain_beta,
    wp_transform,
)
from qident.context import NumericCtx, exact_run

q = QMonomial.of(1, 1)
N = 26


def exactly(build):
    """build(ctx)'s values, computed exactly, as series cut at N."""
    return exact_run(N, lambda ctx: [ctx.finalize(v).truncate(N)
                                     for v in build(ctx)])


# the reduction k = aq: beta_n = alpha_0 + ... + alpha_n exactly
alpha = AlphaSequence.from_values([F(1), F(-2), F(3, 4), F(5)])
a = QMonomial.of(1, 1)
for n in range(4):
    beta, sums = exactly(lambda ctx: [
        wp_beta_sum(ctx, a, a * q, alpha.factor(ctx), n),
        running_sums(ctx, alpha.factor(ctx))(n)])
    print(f"n={n}: beta == partial sum ->", beta.compare(sums, N) is None)


def chain_sides(ctx, a, k, r1, r2, n):
    """beta_n of the chained pair (alpha', a, k) from the defining
    relation, and its closed form, for one chain step from the seed pair
    (the unit alpha): alpha' is read in the same context."""
    unit = unit_alpha().factor(ctx)
    chained = Factor(lambda j: wp_chain_alpha(ctx, a, r1, r2, unit, j),
                     support=unit.support)
    return [wp_beta_sum(ctx, a, k, chained, n),
            wp_chain_beta(ctx, a, k, r1, r2, unit, n)]


# one chain step from the seed pair, checked against the defining relation
a, k = QMonomial.of(1, 3), QMonomial.of(1, 5)
r1, r2 = QMonomial.of(1, 1), QMonomial.of(1, 2)
for n in range(4):
    direct, closed = exactly(lambda ctx: chain_sides(ctx, a, k, r1, r2, n))
    print(f"chain n={n}: closed form matches ->",
          direct.compare(closed, N) is None)

# the same chain step at q = 1/7 (the context computes at its own
# precision, whatever the caller's is), with rational parameters
ctx = NumericCtx(F(1, 7))
gap = max(ctx.sub(*chain_sides(ctx, F(1, 5), F(1, 3), F(1, 2), F(-2, 5),
                               n)).copy_abs()
          for n in range(4))
print("numeric chain closure at q = 1/7, n < 4 -> gap", f"{gap:.1e}",
      "within", ctx.tol, "->", gap <= ctx.tol)

# the infinite transform (k = 0 gives the classical one)
lhs, rhs = exactly(lambda ctx: wp_transform(ctx, a, k, r1, r2,
                                            unit_alpha().factor(ctx)))
print("transform sides equal to order", N, "->", lhs.compare(rhs, N) is None)
