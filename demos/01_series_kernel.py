"""Walkthrough: the exact Laurent-series kernel.

Every computation in the package happens in truncated Laurent series over
exact rationals. A series knows its window [min_deg, order]: coefficients
above the order are unknown, never silently zero.
"""

from fractions import Fraction as F

from qident import LaurentSeries as LS

# exact polynomials keep full precision through products
one_minus_q = LS.from_pairs({0: 1, 1: -1})
print("1 - q           =", one_minus_q)
print("(1-q)(1+q)      =", one_minus_q * LS.from_pairs({0: 1, 1: 1}))

# inversion needs a truncation order: the geometric series appears
geo = one_minus_q.invert(12)
print("1/(1-q) to q^12 =", geo)
print("check product   =", one_minus_q * geo)

# Laurent windows: negative exponents are first-class
s = LS.from_pairs({-2: F(3, 4), 0: 1, 3: -2}, order=9)
print("Laurent series  =", s)

# comparison semantics: a mismatch beyond the window does not exist yet
a = LS.one(5)
b = LS.from_pairs({0: 1, 7: 1}, order=7)
print("compare to 5    =", a.compare(b.truncate(5), 5))
print("compare to 7 after extending the window:",
      LS.one(7).compare(b, 7))

# order bookkeeping under multiplication: min(order_a + val_b, order_b + val_a)
x = LS.from_pairs({2: 1}, order=10)
y = LS.from_pairs({3: 1}, order=20)
print("orders 10,20 with valuations 2,3 ->", (x * y).order)
