"""Truncated Laurent series over exact rationals, in one formal variable q.

A series stores its coefficient window as integer numerators over one
shared denominator, kept reduced (denominator > 0, gcd of the denominator
and all numerators 1), so every operation runs on Python ints and divides
out the common factor once per result. `coeffs` is an exact view of the
same window as reduced `fractions.Fraction`s, built on first use. A series
tracks a coefficient window [min_deg, order]:

  * coefficients below min_deg are exactly zero,
  * coefficients inside the window are exactly known,
  * coefficients above `order` are UNKNOWN -- never assumed zero.

A series with ``order is None`` is an exact Laurent polynomial: every
coefficient outside its support is known to be zero. Exact values (the
output of finite products, monomials, plain rationals) keep full precision
through arithmetic; truncation enters only where something genuinely
infinite was cut off.

Multiplication shrinks the guaranteed order by the partner's valuation:
unknown coefficients of one factor first contaminate the product at
exponent (order_a + 1) + min_deg_b, so everything below that is exact.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Union

from .errors import OrderInsufficient, ZeroLeadingCoefficient

#: The exact coefficient field used everywhere.
Rational = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)

#: Default truncation order for operations that must cut something infinite
#: and were not told how far to go.
DEFAULT_ORDER = 40

RationalLike = Union[Rational, int]


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class QMonomial(NamedTuple):
    """A value of the shape c * q^e with c rational and e an integer.

    This is the only parameter shape admitted into infinite products and
    power bases under the exact strategy: it guarantees that high powers
    have high valuation. The zero value is represented with coef == 0.
    """

    coef: Rational
    exp: int

    @staticmethod
    def of(coef: RationalLike, exp: int = 0) -> "QMonomial":
        c = _frac(coef)
        return QMonomial(c, exp if c else 0)

    @property
    def is_zero(self) -> bool:
        return not self.coef

    @property
    def is_one(self) -> bool:
        return self.coef == 1 and self.exp == 0

    def __mul__(self, other: "QMonomial") -> "QMonomial":  # type: ignore[override]
        if self.is_zero or other.is_zero:
            return _QM_ZERO
        return QMonomial(self.coef * other.coef, self.exp + other.exp)

    def __truediv__(self, other: "QMonomial") -> "QMonomial":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero monomial")
        if self.is_zero:
            return _QM_ZERO
        return QMonomial(self.coef / other.coef, self.exp - other.exp)

    def __pow__(self, n: int) -> "QMonomial":
        if n == 0:
            return _QM_ONE
        if self.is_zero:
            if n < 0:
                raise ZeroDivisionError("negative power of the zero monomial")
            return _QM_ZERO
        return QMonomial(self.coef ** n, self.exp * n)

    def __neg__(self) -> "QMonomial":
        return QMonomial(-self.coef, self.exp) if self.coef else _QM_ZERO

    def rescale(self, d: int) -> "QMonomial":
        """Multiply the exponent by d (change of variable q -> t^d)."""
        return QMonomial(self.coef, self.exp * d)

    def to_series(self, order: Optional[int] = None) -> "LaurentSeries":
        """Exact conversion; by default an exact (untruncated) monomial."""
        if self.is_zero:
            return LaurentSeries.zero(order)
        c = self.coef
        return LaurentSeries._from_ints(self.exp, (c.numerator,),
                                        c.denominator, order)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.exp == 0:
            return str(self.coef)
        return f"{self.coef}*q^{self.exp}"


_QM_ZERO = QMonomial(_F0, 0)
_QM_ONE = QMonomial(_F1, 0)

#: Values accepted wherever a series is expected.
SeriesLike = Union["LaurentSeries", QMonomial, Rational, int]


class Mismatch(NamedTuple):
    """First differing coefficient found by `series_compare`."""

    exponent: int
    lhs: Rational
    rhs: Rational


class LaurentSeries:
    """Immutable Laurent series with an explicit truncation order.

    The window is stored as integer numerators `nums` over one shared
    denominator `den`: the coefficient of q^(min_deg + i) is
    nums[i] / den. Instances are canonical: no leading zero numerator,
    the window is exactly [min_deg, order] for truncated series,
    den > 0 and gcd(den, *nums) == 1, and zero is stored as () over 1.
    Use the module factories or arithmetic operators; the raw
    constructor does not canonicalize.
    """

    __slots__ = ("min_deg", "nums", "den", "order", "_coeffs")

    def __init__(self, min_deg: int, nums: tuple, den: int,
                 order: Optional[int]):
        self.min_deg = min_deg
        self.nums = nums
        self.den = den
        self.order = order
        self._coeffs = None

    # -- construction --------------------------------------------------

    @staticmethod
    def _make(min_deg: int, coeffs, order: Optional[int]) -> "LaurentSeries":
        """Canonicalizing factory from rationals. `coeffs` (Fractions or
        ints) covers min_deg..min_deg+len-1; everything else inside the
        window is taken to be known zero."""
        coeffs = [_frac(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        return LaurentSeries._from_ints(min_deg, nums, den, order)

    @staticmethod
    def _from_ints(min_deg: int, nums, den: int,
                   order: Optional[int]) -> "LaurentSeries":
        """Canonicalizing factory from integers: nums[i] / den is the
        coefficient of q^(min_deg + i), and den must be positive. Trims
        zeros, fits the window to `order` and divides out the common
        factor with one gcd."""
        n = len(nums)
        lead = 0
        while lead < n and not nums[lead]:
            lead += 1
        min_deg += lead
        if order is None:
            end = n
            while end > lead and not nums[end - 1]:
                end -= 1
            if end == lead:
                return LaurentSeries(0, (), 1, None)
            nums = nums[lead:end]
        else:
            width = order - min_deg + 1
            if lead == n or width <= 0:
                return LaurentSeries(order + 1, (), 1, order)
            nums = nums[lead:lead + width]
            if len(nums) < width:
                nums = list(nums)
                nums.extend([0] * (width - len(nums)))
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        return LaurentSeries(min_deg, tuple(nums), den, order)

    @staticmethod
    def zero(order: Optional[int] = None) -> "LaurentSeries":
        return LaurentSeries._from_ints(0, (), 1, order)

    @staticmethod
    def one(order: Optional[int] = None) -> "LaurentSeries":
        return LaurentSeries._from_ints(0, (1,), 1, order)

    @staticmethod
    def monomial(coef: RationalLike, exp: int = 0,
                 order: Optional[int] = None) -> "LaurentSeries":
        coef = _frac(coef)
        return LaurentSeries._from_ints(exp, (coef.numerator,),
                                        coef.denominator, order)

    @staticmethod
    def from_pairs(pairs, order: Optional[int] = None) -> "LaurentSeries":
        """Build from an iterable (or mapping) of (exponent, coefficient)."""
        if hasattr(pairs, "items"):
            pairs = pairs.items()
        d = {}
        for e, c in pairs:
            d[e] = d.get(e, _F0) + _frac(c)
        if not d:
            return LaurentSeries.zero(order)
        lo, hi = min(d), max(d)
        if order is not None:
            hi = min(hi, order)
        coeffs = [d.get(e, _F0) for e in range(lo, hi + 1)]
        return LaurentSeries._make(lo, coeffs, order)

    @staticmethod
    def coerce(value: SeriesLike, order: Optional[int] = None) -> "LaurentSeries":
        if isinstance(value, LaurentSeries):
            return value
        if isinstance(value, QMonomial):
            return value.to_series(order)
        return LaurentSeries.monomial(value, 0, order)

    # -- inspection -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The window as reduced Fractions (built once, then cached)."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(c, den) for c in self.nums)
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_exact(self) -> bool:
        return self.order is None

    def eff_order(self) -> float:
        """Truncation order, with +inf meaning 'exact'."""
        return float("inf") if self.order is None else self.order

    def eff_min_deg(self) -> float:
        """Valuation lower bound; the zero series reports past its order."""
        if self.nums:
            return self.min_deg
        return float("inf") if self.order is None else self.order + 1

    def valuation(self) -> Optional[int]:
        """Lowest exponent with a nonzero coefficient, None if zero."""
        return self.min_deg if self.nums else None

    def coeff(self, exponent: int) -> Rational:
        """Coefficient at `exponent`; raises beyond the known window."""
        if exponent > self.eff_order():
            raise OrderInsufficient(
                f"coefficient of q^{exponent} is beyond the guaranteed order",
                exponent - self.order)
        i = exponent - self.min_deg
        if 0 <= i < len(self.nums):
            return self.coeffs[i]
        return _F0

    def terms(self):
        """Iterate (exponent, coefficient) over nonzero entries."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_deg + i, c

    def eval_at(self, q: RationalLike) -> Rational:
        """Evaluate the known window at a rational point (exact)."""
        q = _frac(q)
        total = _F0
        for e, c in self.terms():
            total += c * q ** e
        return total

    # -- arithmetic -----------------------------------------------------

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.min_deg, tuple(-c for c in self.nums),
                             self.den, self.order)

    def __add__(self, other: SeriesLike) -> "LaurentSeries":
        other = LaurentSeries.coerce(other)
        eo = min(self.eff_order(), other.eff_order())
        order = None if eo == float("inf") else int(eo)
        parts = [s for s in (self, other) if s.nums]
        if not parts:
            return LaurentSeries.zero(order)
        lo = min(s.min_deg for s in parts)
        hi = max(s.min_deg + len(s.nums) - 1 for s in parts)
        if order is not None:
            hi = order
        # over the common denominator lcm(den_a, den_b)
        g = gcd(self.den, other.den)
        den = self.den * (other.den // g)
        out = [0] * max(hi - lo + 1, 0)
        for s in parts:
            f = den // s.den
            off = s.min_deg - lo
            seg = s.nums[:max(len(out) - off, 0)]
            if f != 1:
                seg = [c * f for c in seg]
            end = off + len(seg)
            out[off:end] = map(operator.add, out[off:end], seg)
        return LaurentSeries._from_ints(lo, out, den, order)

    def __radd__(self, other: SeriesLike) -> "LaurentSeries":
        return self.__add__(other)

    def __sub__(self, other: SeriesLike) -> "LaurentSeries":
        return self.__add__(-LaurentSeries.coerce(other))

    def __rsub__(self, other: SeriesLike) -> "LaurentSeries":
        return LaurentSeries.coerce(other).__add__(-self)

    def __mul__(self, other: SeriesLike) -> "LaurentSeries":
        return self.mul(other)

    def __rmul__(self, other: SeriesLike) -> "LaurentSeries":
        return self.mul(other)

    def mul(self, other: SeriesLike, cap: Optional[int] = None) -> "LaurentSeries":
        """Exact Cauchy product.

        The result order is min(order_a + min_deg_b, order_b + min_deg_a):
        every reported coefficient is correct. `cap` optionally truncates
        the result further (a pure cost saving for callers that only need
        coefficients up to `cap`). The numerators convolve as integers
        over the product of the two denominators.
        """
        other = LaurentSeries.coerce(other)
        eo = min(self.eff_order() + other.eff_min_deg(),
                 other.eff_order() + self.eff_min_deg())
        if cap is not None:
            eo = min(eo, cap)
        order = None if eo == float("inf") else int(eo)
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(order)
        # fast path: monomial factor
        if len(other.nums) == 1:
            return self._mul_monomial(other.nums[0], other.den,
                                      other.min_deg, order)
        if len(self.nums) == 1:
            return other._mul_monomial(self.nums[0], self.den,
                                       self.min_deg, order)
        lo = self.min_deg + other.min_deg
        a, b = self.nums, other.nums
        # rows of the factor with fewer nonzero numerators, each added
        # in one slice across the other factor
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a
        lb = len(b)
        width = len(a) + lb - 1
        if order is not None:
            width = min(width, order - lo + 1)
        out = [0] * max(width, 0)
        for i, c in enumerate(a):
            if c:
                k = min(lb, width - i)
                if k <= 0:
                    break
                out[i:i + k] = map(operator.add, out[i:i + k],
                                   map(c.__mul__, b[:k]))
        return LaurentSeries._from_ints(lo, out, self.den * other.den, order)

    @staticmethod
    def product_at(parts, goal: int) -> Optional["LaurentSeries"]:
        """The left fold of `mul` over the nonempty sequence `parts`,
        truncated at `goal`, multiplying only the window the goal needs;
        None when the full product's order (the order rule of `mul`,
        folded over the parts) is below `goal`.

        Nonzero leading coefficients multiply to a nonzero leading
        coefficient, so the product's valuation is the sum of the parts'
        valuations: when that exceeds `goal` (or a part is zero) the
        result is zero and nothing is multiplied. Otherwise the partial
        product through part i is capped at `goal` minus the valuations
        of the parts after i, since a coefficient above that cap only
        reaches exponents above `goal`.
        """
        first = parts[0]
        order, low = first.eff_order(), first.eff_min_deg()
        zero = first.is_zero
        for s in parts[1:]:
            order = min(order + s.eff_min_deg(), s.eff_order() + low)
            zero = zero or s.is_zero or low + s.min_deg > order
            low = order + 1 if zero else low + s.min_deg
        if order < goal:
            return None
        if low > goal:
            return LaurentSeries.zero(goal)
        cap = goal - sum(s.min_deg for s in parts[1:])
        out = first
        for s in parts[1:]:
            cap += s.min_deg
            out = out.mul(s, cap=cap)
        return out if out.order == goal else out.truncate(goal)

    def _mul_monomial(self, num: int, den: int, exp: int,
                      order: Optional[int]) -> "LaurentSeries":
        """Multiply by (num / den) * q^exp, with num != 0 and den > 0."""
        nums = self.nums if num == 1 else [num * c for c in self.nums]
        return LaurentSeries._from_ints(self.min_deg + exp, nums,
                                        self.den * den, order)

    def scale(self, coef: RationalLike, exp: int = 0) -> "LaurentSeries":
        """Multiply by the exact monomial coef * q^exp."""
        coef = _frac(coef)
        order = None if self.order is None else self.order + exp
        if not coef:
            return LaurentSeries.zero(order)
        return self._mul_monomial(coef.numerator, coef.denominator, exp,
                                  order)

    def mul_binomial(self, coef: RationalLike, exp: int) -> "LaurentSeries":
        """Multiply by the exact binomial (1 + coef * q^exp).

        For exp >= 0 this is one integer pass: with coef = p/r the result
        is (r A[t] + p A[t - exp]) / (r den) on the input's window
        (widened by exp for an exact input)."""
        coef = _frac(coef)
        if not coef:
            return self
        if exp < 0:
            return self + self.scale(coef, exp)
        p, r = coef.numerator, coef.denominator
        a = self.nums
        out = list(a) if r == 1 else [r * c for c in a]
        if self.order is None:
            out.extend([0] * exp)
        out[exp:] = map(operator.add, out[exp:], map(p.__mul__, a))
        return LaurentSeries._from_ints(self.min_deg, out, self.den * r,
                                        self.order)

    def div_binomial(self, coef: RationalLike, exp: int,
                     order: Optional[int] = None) -> "LaurentSeries":
        """Divide by the exact binomial (1 + coef * q^exp).

        For exp > 0 the quotient is computed by the linear recurrence
        b[t] = a[t] - coef * b[t-exp], which preserves the truncation
        order. Exact input needs an explicit `order` (the quotient is an
        infinite series). `order` is a cap on every path, like
        `mul(cap=)`: the result order is min(input order, `order`), and an
        `order` above the input's is never an error.
        """
        coef = _frac(coef)
        if not coef:
            return self._cap(order)
        if exp == 0:
            if coef == -1:
                raise ZeroLeadingCoefficient("division by the zero binomial")
            return self.scale(_F1 / (1 + coef))._cap(order)
        if exp < 0:
            # 1 + c q^e = c q^e (1 + (1/c) q^{-e})
            out = self.scale(_F1 / coef, -exp)
            return out.div_binomial(_F1 / coef, -exp, order)
        eo = self.eff_order()
        if order is not None:
            eo = min(eo, order)
        if eo == float("inf"):
            raise ValueError("dividing an exact series requires an order")
        eo = int(eo)
        if self.is_zero:
            return LaurentSeries.zero(eo)
        lo = self.min_deg
        width = eo - lo + 1
        if width <= 0:
            return LaurentSeries.zero(eo)
        # With coef = p/r, b[t] = B[t] / (den * r^(t // exp)): one power of
        # r enters every exp steps, B[t] = a[t] r^(t // exp) - p B[t - exp].
        p, r = coef.numerator, coef.denominator
        a = self.nums
        la = len(a)
        steps = (width - 1) // exp
        rpow = [1]
        for _ in range(steps):
            rpow.append(rpow[-1] * r)
        out = [0] * width
        for t in range(width):
            v = a[t] * rpow[t // exp] if t < la else 0
            if t >= exp:
                prev = out[t - exp]
                if prev:
                    v -= p * prev
            out[t] = v
        if r != 1:
            out = [v * rpow[steps - t // exp] for t, v in enumerate(out)]
        return LaurentSeries._from_ints(lo, out, self.den * rpow[steps], eo)

    def invert(self, order: Optional[int] = None) -> "LaurentSeries":
        """Multiplicative inverse to the guaranteed order.

        The input must have a nonzero leading coefficient. The inverse of
        a series with valuation m known to order N is known to order
        N - 2m (same count of correct coefficients, shifted window).
        """
        if self.is_zero:
            raise ZeroLeadingCoefficient("cannot invert the zero series")
        m = self.min_deg
        a = self.nums
        if self.order is None:
            if len(a) == 1:
                lead = Fraction(self.den, a[0])
                return LaurentSeries._from_ints(-m, (lead.numerator,),
                                                lead.denominator, order)
            if order is None:
                raise ValueError("inverting an exact non-monomial series "
                                 "requires an order")
            rel = order + m
        else:
            rel = self.order - m  # relative precision carried by the input
            if order is not None:
                rel = min(rel, order + m)
        if rel < 0:
            raise OrderInsufficient("input order too low to invert", -rel)
        # y = 1/a kept as ints Y over one reduced denominator Q. With
        # a = A/den, y[t] = -den/A0 * sum_{j>=1} a[j] y[t-j] = -S / (A0 Q)
        # for S = sum A[j] Y[t-j]. Since gcd(Q, *Y) == 1, the common factor
        # of the widened window is gcd(|A0|, S): one gcd per step.
        a0 = abs(a[0])
        sign = -1 if a[0] > 0 else 1
        g = gcd(self.den, a0)
        y = [-sign * self.den // g]
        q = a0 // g
        w = a[1:rel + 1]
        for t in range(1, rel + 1):
            k = min(t, len(w))
            s = sign * sum(map(operator.mul, w[:k], y[t - 1::-1][:k]))
            g = gcd(a0, s)
            f = a0 // g
            if f != 1:
                y = [f * c for c in y]
                q *= f
            y.append(s // g)
        return LaurentSeries._from_ints(-m, y, q, rel - m)

    def _cap(self, order: Optional[int]) -> "LaurentSeries":
        """Truncate at `order` if that lowers the order (None: no cap)."""
        if order is None or (self.order is not None and order >= self.order):
            return self
        return self.truncate(order)

    def truncate(self, order: int) -> "LaurentSeries":
        """Restrict the window to [min_deg, order] (order may not grow)."""
        if self.order is not None and order > self.order:
            raise OrderInsufficient(
                f"cannot extend order {self.order} to {order}",
                order - self.order)
        width = order - self.min_deg + 1
        return LaurentSeries._from_ints(self.min_deg,
                                        self.nums[:max(width, 0)],
                                        self.den, order)

    def rescale(self, d: int) -> "LaurentSeries":
        """Map q -> t^d: every exponent (and the order) is multiplied by d."""
        if d < 1:
            raise ValueError("rescale factor must be >= 1")
        if d == 1:
            return self
        order = None if self.order is None else self.order * d
        if self.is_zero:
            return LaurentSeries.zero(order)
        out = [0] * ((len(self.nums) - 1) * d + 1)
        out[::d] = self.nums
        return LaurentSeries._from_ints(self.min_deg * d, out, self.den, order)

    # -- comparison -----------------------------------------------------

    def compare(self, other: "LaurentSeries", up_to: int) -> Optional[Mismatch]:
        """Coefficientwise comparison on exponents <= up_to.

        Returns None when equal on the window, otherwise the lowest
        differing exponent with both coefficients. Raises OrderInsufficient
        if either side is not known through `up_to`.
        """
        known = min(self.eff_order(), other.eff_order())
        if up_to > known:
            raise OrderInsufficient(
                f"comparison to q^{up_to} exceeds a guaranteed order",
                up_to - known)
        lows = [s.min_deg for s in (self, other) if s.nums]
        if not lows:
            return None
        a, b = self.nums, other.nums
        da, db = self.den, other.den
        for e in range(min(lows), up_to + 1):
            i, j = e - self.min_deg, e - other.min_deg
            ca = a[i] if 0 <= i < len(a) else 0
            cb = b[j] if 0 <= j < len(b) else 0
            # ca/da != cb/db, cross-multiplied
            if ca * db != cb * da:
                return Mismatch(e, Fraction(ca, da), Fraction(cb, db))
        return None

    # -- dunder plumbing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.min_deg == other.min_deg and self.den == other.den
                and self.nums == other.nums and self.order == other.order)

    def __hash__(self) -> int:
        return hash((self.min_deg, self.nums, self.den, self.order))

    def __repr__(self) -> str:
        return f"LaurentSeries({self})"

    def __str__(self) -> str:
        if self.is_zero:
            body = "0"
        else:
            parts = []
            for e, c in self.terms():
                if e == 0:
                    term = str(c)
                elif c == 1:
                    term = f"q^{e}" if e != 1 else "q"
                elif c == -1:
                    term = f"-q^{e}" if e != 1 else "-q"
                else:
                    term = f"{c}*q^{e}" if e != 1 else f"{c}*q"
                if parts and not term.startswith("-"):
                    parts.append("+ " + term)
                elif parts:
                    parts.append("- " + term[1:])
                else:
                    parts.append(term)
            body = " ".join(parts)
        if self.order is None:
            return body
        return f"{body} + O(q^{self.order + 1})"


# -- module-level operation names -------------------------------------------

def series_add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Exact sum; the result order is min(order_a, order_b)."""
    return a + b


def series_mul(a: LaurentSeries, b: LaurentSeries,
               cap: Optional[int] = None) -> LaurentSeries:
    """Exact Cauchy product with sound order bookkeeping."""
    return a.mul(b, cap=cap)


def series_invert(a: LaurentSeries, order: Optional[int] = None) -> LaurentSeries:
    """Inverse series; `series_mul(a, series_invert(a))` is 1 to the
    guaranteed order."""
    return a.invert(order)


def series_compare(a: LaurentSeries, b: LaurentSeries,
                   up_to: int) -> Optional[Mismatch]:
    """Coefficientwise comparison; None means equal through q^up_to."""
    return a.compare(b, up_to)


def rescale_exponents(a: LaurentSeries, d: int) -> LaurentSeries:
    """Realize fractional powers by working in t with q = t^d."""
    return a.rescale(d)
