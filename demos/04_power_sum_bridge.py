"""Walkthrough: equal power sums and the series bridge.

Two size-m multisets with matching power sums for e = 1..m-1 are an ideal
solution; equivalently the difference of their root polynomials is a
constant. A closely related (m, m-1) polynomial condition turns such data
into telescoping hypergeometric sequences.
"""

from fractions import Fraction as F

from qident import (
    check_bridge,
    check_ideal_poly,
    check_pte,
    family6,
    family12,
    power_sums,
    pte_alpha_beta,
)
from qident.bailey import running_sums
from qident.context import exact_run

print("{1,5,6} vs {2,3,7}, e <= 2:", check_pte([1, 5, 6], [2, 3, 7], 2))
print("  ... and at e = 3:", check_pte([1, 5, 6], [2, 3, 7], 3),
      "->", power_sums([1, 5, 6], 3), "vs", power_sums([2, 3, 7], 3))
print("ideal-polynomial criterion:", check_ideal_poly([1, 5, 6], [2, 3, 7]))

# the quadratic size-6 family (sixth b-entry pinned to 1)
a, b = family6(1, 2)
print("size-6 family at (1, 2): A =", a)
print("                          B =", b, "+ (1)")
print("degree-5 power sums:", check_pte(a, b + (F(1),), 5))
print("bridge condition:", check_bridge(a, b))

# the symmetric size-12 pair, equal through e = 11
A, B = family12(1, 0)
print("size-12 family odd sums vanish:",
      all(power_sums(A, e) == 0 for e in (1, 3, 5, 7, 9, 11)))
print("degree-11 power sums:", check_pte(A, B, 11))

# bridge to series: partial sums of alpha hit the closed beta exactly
alpha, beta = pte_alpha_beta(a, b)
N = 20
for n in range(5):
    got = exact_run(N, lambda ctx: ctx.finalize(
        running_sums(ctx, alpha.factor(ctx))(n)).truncate(N))
    print(f"bridge n={n}:", got.compare(beta.value(n, N), N) is None)
