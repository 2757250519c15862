"""Plain references that tests check the kernels against, written without
the binomial passes of `qfunc` and `LaurentSeries.mul_binomials`, or the
running powers of `NumericCtx`."""

from fractions import Fraction

from qident.series import LaurentSeries as LS, QMonomial


def poch_product(a, base, n, order=None):
    """(a; base)_n as the plain product of its factors 1 - a base^j, j < n,
    each a series of at most two terms, multiplied by `LaurentSeries`'s
    own product at `order` (exact when None). `a` is a monomial c q^e or
    a rational, `base` a monomial."""
    if not isinstance(a, QMonomial):
        a = QMonomial.of(a)
    out = LS.one(order)
    for j in range(n):
        f = a * base ** j
        out = out * (LS.one(order) - LS.monomial(f.coef, f.exp, order))
    return out


def head_product(heads, n):
    """prod (1 - w r^n)^(-1 if inverse else 1) over the (w, r, inverse)
    heads, rationals, as one Fraction, each power taken in full;
    ZeroDivisionError where an inverse head is 0."""
    out = Fraction(1)
    for w, r, inverse in heads:
        head = 1 - Fraction(w) * Fraction(r) ** n
        out = out / head if inverse else out * head
    return out
