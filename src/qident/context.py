"""Evaluation contexts for identity-side builders.

A catalog identity is coded once against this small algebra and can then
run under two strategies:

  * ExactCtx -- truncated Laurent series over exact rationals, in a
    working variable t with q = t^d (d = 2 realizes half-integer
    q-exponents);
  * NumericCtx -- high-precision decimals at a sampled rational q (for
    d = 2 the sampler supplies the d-th root of q directly, so fractional
    q-powers stay exact).

Both expose the same operations: rational constants, q-powers, finite and
infinite Pochhammer products (cached incrementally), the very-well-poised
factor, and a tail-aware summation. `summation(term, times=m)` is m times
the sum; ExactCtx sums max(0, -exp(m)) deeper, so that the product is
still known through the target. ExactCtx's `poch`, `inv_poch` and `vwp`
return the scalar 1 for n = 0 or a zero argument (`vwp` at k = 1 still
raises DegenerateVWP), so a trivial factor adds no series to a product.

Under ExactCtx a product that involves a series is kept unmultiplied: `mul`
returns one monomial c*t^e times a flat list of series parts (nested
products merge into the list). The product is forced in one of two ways:

  * inside `summation`, at the sum's goal order, by
    `LaurentSeries.product_at(parts, goal - e)` and then the monomial.
    Nonzero leading coefficients multiply to a nonzero leading
    coefficient, so the product's valuation is e plus the sum of the
    parts' valuations; when that exceeds the goal (or a part is zero) the
    product is exactly zero through the goal and nothing is multiplied.
    Otherwise the parts are multiplied left to right, the partial product
    through part i capped at goal - e - (the valuations of the parts
    after i): a coefficient above that cap only reaches exponents above
    the goal. The result equals the full product truncated at the goal,
    order included. A product whose own order (LaurentSeries.mul's order
    rule folded over the parts, plus e) falls short of the goal is forced
    in full and raises OrderInsufficient exactly as before.
  * everywhere else (`add`, `sub`, `neg`, `inv`, `pow_int`, the
    arguments of the q machinery, `finalize`) in full, as the left fold of
    the parts followed by the monomial. `div(u, v)` is the product of u
    and the (forced) inverse of v.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Dict, Optional, Union

from .errors import DegenerateDenominator, DegenerateVWP, NonTruncatable
from .qfunc import (
    NUMERIC_PRECISION,
    NUMERIC_TOL,
    NumericTermGenerator,
    PochTower,
    TermGenerator,
    as_monomial,
    poch_infinite,
    sum_exact,
    sum_numeric,
    vwp_factor,
)
from .series import _QM_ONE, LaurentSeries, QMonomial

_ONE = Fraction(1)


class _Product:
    """mono * parts[0] * parts[1] * ..., not yet multiplied out; `mono` is
    a nonzero QMonomial and `parts` a nonempty tuple of series."""

    __slots__ = ("mono", "parts")

    def __init__(self, mono: QMonomial, parts: tuple):
        self.mono = mono
        self.parts = parts

    def force(self) -> LaurentSeries:
        """The full product: the left fold of the parts, then the
        monomial."""
        out = self.parts[0]
        for s in self.parts[1:]:
            out = out * s
        if not self.mono.is_one:
            out = out.scale(self.mono.coef, self.mono.exp)
        return out

    def at(self, goal: int) -> LaurentSeries:
        """`force().truncate(goal)`, multiplying only the window the goal
        needs (see the module docstring)."""
        e = self.mono.exp
        out = LaurentSeries.product_at(self.parts, goal - e)
        if out is None:
            return self.force().truncate(goal)
        if not self.mono.is_one:
            out = out.scale(self.mono.coef, e)
        return out


def _force(v):
    return v.force() if isinstance(v, _Product) else v


class ExactCtx:
    """Exact strategy: all values are rationals, monomials c*t^e, or
    truncated Laurent series in t at a fixed working order.

    `headroom` is extra window above the comparison target, consumed by
    negative monomial powers inside summands (Laurent dips); sides are
    compared at `target`.
    """

    def __init__(self, order: int, denom: int = 1, headroom: int = 4):
        self.denom = denom
        self.target = order * denom         # comparison order in t units
        self.order = self.target + headroom  # construction order
        self.q = QMonomial.of(1, denom)     # q itself
        self._towers: Dict = {}

    # -- values ---------------------------------------------------------

    def one(self):
        return LaurentSeries.one(self.order)

    def num(self, x):
        return Fraction(x)

    def qpow(self, e) -> QMonomial:
        """q^e for rational e; e*denom must be integral."""
        te = Fraction(e) * self.denom
        if te.denominator != 1:
            raise ValueError(f"exponent {e} not representable at denom "
                             f"{self.denom}")
        return QMonomial.of(1, int(te))

    # -- arithmetic ------------------------------------------------------

    def _is_scalar(self, v) -> bool:
        return isinstance(v, (Fraction, int, QMonomial))

    def mul(self, *vals):
        """The product of the values: a monomial if no series is involved,
        else a series or an unmultiplied product (see the module
        docstring)."""
        mono = _QM_ONE
        parts = []
        for v in vals:
            if isinstance(v, _Product):
                mono = mono * v.mono
                parts.extend(v.parts)
            elif self._is_scalar(v):
                mono = mono * as_monomial(v)
            else:
                parts.append(v)
        if not parts:
            return mono
        if mono.is_zero:
            return LaurentSeries.zero(self.order)
        if len(parts) == 1 and mono.is_one:
            return parts[0]
        return _Product(mono, tuple(parts))

    def add(self, u, v):
        return LaurentSeries.coerce(_force(u), self.order) + \
            LaurentSeries.coerce(_force(v), self.order)

    def sub(self, u, v):
        return LaurentSeries.coerce(_force(u), self.order) - \
            LaurentSeries.coerce(_force(v), self.order)

    def neg(self, v):
        return -Fraction(v) if isinstance(v, int) else -_force(v)

    def inv(self, v):
        v = _force(v)
        if isinstance(v, (Fraction, int)):
            if not v:
                raise DegenerateDenominator("division by zero")
            return 1 / Fraction(v)
        if isinstance(v, QMonomial):
            if v.is_zero:
                raise DegenerateDenominator("division by zero")
            return QMonomial.of(1) / v
        return v.invert(self.order)

    def div(self, u, v):
        return self.mul(u, self.inv(v))

    def pow_int(self, v, k: int):
        v = _force(v)
        if isinstance(v, (Fraction, int)):
            return Fraction(v) ** k
        if isinstance(v, QMonomial):
            return v ** k
        raise TypeError("series powers are not needed by any record")

    # -- q machinery -----------------------------------------------------

    def _poch(self, a, base, n: int, invert: bool):
        am = as_monomial(_force(a))
        bm = as_monomial(_force(base))
        if am is None or bm is None:
            raise TypeError("Pochhammer arguments must be monomial-like")
        if n == 0 or am.is_zero:
            return _ONE
        key = (am, bm, invert)
        t = self._towers.get(key)
        if t is None:
            t = PochTower(am, bm, self.order, invert=invert)
            self._towers[key] = t
        return t.upto(n)

    def poch(self, a, base, n: int):
        return self._poch(a, base, n, False)

    def inv_poch(self, a, base, n: int):
        return self._poch(a, base, n, True)

    def poch_inf(self, a, base) -> LaurentSeries:
        return poch_infinite(as_monomial(_force(a)),
                             as_monomial(_force(base)), self.order)

    def inv_poch_inf(self, a, base) -> LaurentSeries:
        return self.poch_inf(a, base).invert(self.order)

    def vwp(self, k, n: int, base: Optional[QMonomial] = None):
        k = _force(k)
        km = as_monomial(k)
        if km is not None and not km.is_one and (n == 0 or km.is_zero):
            return _ONE
        return vwp_factor(k, n, self.order,
                          self.q if base is None else _force(base))

    def summation(self, term: Callable[[int], object], start: int = 0,
                  times=1):
        """`times` (a monomial) times the sum of the terms. The sum is
        taken exactly to the comparison target, or deeper by the negative
        q-power of `times` (still within the construction headroom)."""
        m = as_monomial(_force(times))
        if m is None:
            raise TypeError("summation multiplies by a monomial only")
        goal = min(self.order, self.target + max(0, -m.exp))

        def gen(n: int) -> LaurentSeries:
            t = term(n + start)
            if isinstance(t, _Product):
                return t.at(goal)
            if not isinstance(t, LaurentSeries):
                t = LaurentSeries.coerce(t, goal)
            return t.truncate(goal)

        return self.mul(m, sum_exact(TermGenerator(gen), goal))

    def finalize(self, v) -> LaurentSeries:
        return LaurentSeries.coerce(_force(v), self.order)


class NumericCtx:
    """Numeric strategy: high-precision decimals at a rational q.

    `q_unit` is the d-th root of q as an exact rational; every q-power in
    a builder is an integer power of it.
    """

    def __init__(self, q_unit: Fraction, denom: int = 1,
                 precision: int = NUMERIC_PRECISION, tol=NUMERIC_TOL):
        self.denom = denom
        self.precision = precision
        self.tol = tol if isinstance(tol, Decimal) else Decimal(str(tol))
        with decimal.localcontext() as c:
            c.prec = precision + 10
            self.q_unit = Decimal(q_unit.numerator) / Decimal(q_unit.denominator)
            self.q = self.q_unit ** denom
        self._eps = Decimal(10) ** -(precision - 4)
        self._poch_cache: Dict = {}

    def one(self):
        return Decimal(1)

    def num(self, x):
        if isinstance(x, Decimal):
            return x
        if isinstance(x, int):
            return Decimal(x)
        x = Fraction(x)
        return Decimal(x.numerator) / Decimal(x.denominator)

    def qpow(self, e) -> Decimal:
        te = Fraction(e) * self.denom
        if te.denominator != 1:
            raise ValueError(f"exponent {e} not representable at denom "
                             f"{self.denom}")
        return self.q_unit ** int(te)

    def mul(self, *vals):
        out = Decimal(1)
        for v in vals:
            out *= self.num(v)
        return out

    def add(self, u, v):
        return self.num(u) + self.num(v)

    def sub(self, u, v):
        return self.num(u) - self.num(v)

    def neg(self, v):
        return -self.num(v)

    def inv(self, v):
        v = self.num(v)
        if not v:
            raise DegenerateDenominator("division by zero")
        return Decimal(1) / v

    def div(self, u, v):
        return self.num(u) * self.inv(v)

    def pow_int(self, v, k: int):
        return self.num(v) ** k

    def poch(self, a, base, n: int) -> Decimal:
        a, base = self.num(a), self.num(base)
        key = (a, base)
        vals = self._poch_cache.get(key)
        if vals is None:
            vals = [Decimal(1)]
            self._poch_cache[key] = vals
        while len(vals) <= n:
            j = len(vals) - 1
            vals.append(vals[-1] * (1 - a * base ** j))
        return vals[n]

    def inv_poch(self, a, base, n: int) -> Decimal:
        p = self.poch(a, base, n)
        if not p:
            raise DegenerateDenominator("vanishing Pochhammer denominator")
        return Decimal(1) / p

    def poch_inf(self, a, base) -> Decimal:
        a, base = self.num(a), self.num(base)
        if abs(base) >= 1:
            raise NonTruncatable("numeric infinite product needs |base| < 1")
        out = Decimal(1)
        j = 0
        while True:
            f = a * base ** j
            if abs(f) < self._eps:
                return out
            out *= (1 - f)
            j += 1
            if j > 100_000:
                raise NonTruncatable("infinite product failed to settle")

    def inv_poch_inf(self, a, base) -> Decimal:
        p = self.poch_inf(a, base)
        if not p:
            raise DegenerateDenominator("vanishing infinite product")
        return Decimal(1) / p

    def vwp(self, k, n: int, base=None) -> Decimal:
        k = self.num(k)
        base = self.q if base is None else self.num(base)
        if k == 1:
            raise DegenerateVWP("very-well-poised factor with k = 1")
        return (1 - k * base ** (2 * n)) / (1 - k)

    def summation(self, term: Callable[[int], Decimal], start: int = 0,
                  times=1):
        gen = NumericTermGenerator(lambda n: self.num(term(n + start)),
                                   self.precision)
        return self.mul(times, sum_numeric(gen, self.tol))

    def finalize(self, v) -> Decimal:
        return self.num(v)


Ctx = Union[ExactCtx, NumericCtx]
