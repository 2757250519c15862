"""Walkthrough: the well-poised pair machinery.

A pair (alpha_n, beta_n) is tied together by a two-parameter weighted sum.
Setting k = aq collapses the weights and beta becomes the plain partial
sum of alpha -- the engine behind the whole identity catalog. The chain
step builds new pairs from old ones, exactly and, through the shared
context code, at a numeric q; the infinite transform relates the two
weighted series attached to any pair.
"""

from fractions import Fraction as F

from qident import (
    AlphaSequence,
    ChainParams,
    QMonomial,
    WPPair,
    partial_sums,
    thm_transform_sides,
    unit_alpha,
    wp_beta,
    wp_chain_step,
)
from qident.bailey import Factor, wp_beta_sum, wp_chain_alpha, wp_chain_beta
from qident.context import NumericCtx

q = QMonomial.of(1, 1)
N = 26

# the reduction k = aq: beta_n = alpha_0 + ... + alpha_n exactly
alpha = AlphaSequence.from_values([F(1), F(-2), F(3, 4), F(5)])
a = QMonomial.of(1, 1)
pair = WPPair(alpha, a, a * q)
for n in range(4):
    beta = wp_beta(pair, n, N)
    sums = partial_sums(alpha, n, N)
    print(f"n={n}: beta == partial sum ->", beta.compare(sums, N) is None)

# one chain step from the seed pair, checked against the defining relation
seed = WPPair(unit_alpha(), QMonomial.of(1, 3), QMonomial.of(1, 5))
params = ChainParams(QMonomial.of(1, 1), QMonomial.of(1, 2),
                     QMonomial.of(1, 5))
new_pair, beta_prime = wp_chain_step(seed, params, N)
for n in range(4):
    direct = wp_beta(new_pair, n, N)
    closed = beta_prime(n, N)
    print(f"chain n={n}: closed form matches ->",
          direct.compare(closed, N - 4) is None)

# the same chain step, written once over the context algebra, at q = 1/7
# (the context computes at its own precision, whatever the caller's is).
# An AlphaSequence is declared once; factor(ctx) is the sequence in one
# context, a Factor that carries its support and floor to the transforms
ctx = NumericCtx(F(1, 7))
a, k, r1, r2 = F(1, 5), F(1, 3), F(1, 2), F(-2, 5)
unit = unit_alpha().factor(ctx)
chained = Factor(lambda j: wp_chain_alpha(ctx, a, r1, r2, unit, j),
                 support=unit.support)
gap = max(ctx.sub(wp_beta_sum(ctx, a, k, chained, n),
                  wp_chain_beta(ctx, a, k, r1, r2, unit, n)).copy_abs()
          for n in range(4))
print("numeric chain closure at q = 1/7, n < 4 -> gap", f"{gap:.1e}",
      "within", ctx.tol, "->", gap <= ctx.tol)

# the infinite transform (k = 0 gives the classical one)
lhs, rhs = thm_transform_sides(seed, QMonomial.of(1, 1), QMonomial.of(1, 2), N)
print("transform sides equal to order", N, "->", lhs.compare(rhs, N) is None)
