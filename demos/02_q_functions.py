"""Walkthrough: q-Pochhammer symbols, infinite products, phi series.

Finite products are read from a tower that steps (a; q)_n to (a; q)_(n+1)
by one factor (exact with no order); infinite ones are truncated at a
working order, multiplying only the finitely many factors that touch the
window. Square roots never appear: the paired very-well-poised parameters
are handled through (1 - k q^{2n})/(1 - k).
"""

from fractions import Fraction as F

from qident import (
    PochTower,
    QMonomial,
    poch_infinite,
    vwp_factor,
)
from qident.bailey import phi_term
from qident.context import exact_run

q = QMonomial.of(1, 1)

print("(q; q)_3        =", PochTower(q, q, None).upto(3))
print("(1/2; q)_2      =", PochTower(F(1, 2), q, None).upto(2))

# Euler's pentagonal pattern appears in the infinite product
euler = poch_infinite(q, q, 26)
print("(q; q)_inf      =", euler)

# the very-well-poised factor, computed without square roots
print("vwp k=q^2, n=1  =", vwp_factor(QMonomial.of(1, 2), 1, 10))

# the q-Gauss summation: series side vs product side. The series is the
# declared term of 2phi1 summed in the exact context; exact_run finds the
# working order its terms need
a, b, c = QMonomial.of(1, 2), QMonomial.of(1, 3), QMonomial.of(1, 7)
z = c / (a * b)
lhs = exact_run(24, lambda ctx: ctx.finalize(
    ctx.summation(phi_term(ctx, [a, b], [c], q, z))).truncate(24))
rhs = (poch_infinite(c / a, q, 24) * poch_infinite(c / b, q, 24)).mul(
    (poch_infinite(c, q, 24) * poch_infinite(z, q, 24)).invert(), cap=24)
print("q-Gauss LHS     =", lhs)
print("q-Gauss match   =", lhs.compare(rhs.truncate(24), 24) is None)
