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
Its integer convolution adds one row per nonzero numerator when a factor
is sparse, and is one big-integer multiply (Kronecker substitution) when
both factors are dense; see `LaurentSeries.mul`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate
from math import ceil, gcd, lcm, log, log1p, sqrt
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


#: `_divide_pass` lifts a step e below this to 2e, 4e, ... first, so that
#: no slice of its recurrence is shorter than this. Measured with CPython
#: 3.11 on a 2-core x86-64 host on a 121-wide window of 20-bit
#: numerators: e = 1 went from 97 to 35 us and e = 2 from 71 to 30 us
#: (p/r = -1), and from 266 to 166 and 158 to 139 us (p/r = -3/2); e = 3
#: is flat, and lifting past 4 costs more passes than its slices save.
_SLICE_MIN = 4


def _divide_pass(out: list, p: int, r: int, e: int) -> int:
    """Divide the integer window `out` in place by 1 + (p/r) q^e, e > 0,
    and return the factor by which its denominator grows.

    A division by 1 - q^e (r = 1, p = -1) is B[t] = A[t] + B[t - e]: e
    strided prefix sums, one `accumulate` over each residue class mod e,
    and the denominator does not grow. They run while e^2 <= width, so
    that each class holds at least e entries; at a larger e the e short
    classes cost more than the slice recurrence below. A division by
    1 + q^e takes the same path at stride 2e (when (2e)^2 <= width) after
    one lift, with y = (p/r) q^e,

        1/(1 + y) = (1 - y) / (1 - y^2).

    Otherwise a short step is lifted by the same identity: while e <
    `_SLICE_MIN` the window is multiplied by 1 - y (the integers
    r A[t] - p A[t - e], over r) and the divisor becomes
    1 + (-p^2/r^2) q^(2e). Then the quotient is the recurrence
    B[t] = A[t] r^(t // e) - p B[t - e] over r^(t // e). Over the one
    denominator r^s, s = (width - 1) // e, the entries are
    C[t] = B[t] r^(s - t // e), so C[t] = A[t] r^s - p (C[t - e] // r),
    the division exact. It runs one slice of e entries at a time, in one
    map each. Measured with CPython 3.11 on a 2-core x86-64 host, 20-bit
    numerators, p = -1, us, slices / prefix sums: width 121, e = 1:
    46 / 6.2, e = 4: 34 / 7.8, e = 11: 10 / 6.8, e = 16: 8.3 / 8.9;
    width 21, e = 1: 6.6 / 1.3, e = 4: 8.0 / 3.5, e = 6: 2.5 / 2.8."""
    width = len(out)
    if r == 1 and p == 1 and 4 * e * e <= width:
        out[e:] = map(operator.sub, out[e:], out)
        p, e = -1, 2 * e
    if r == 1 and p == -1 and e * e <= width:
        for c in range(e):
            out[c::e] = accumulate(out[c::e])
        return 1
    grow = 1
    while e < _SLICE_MIN and e < width:
        old = out[:]
        if r != 1:
            out[:] = [r * c for c in old]
        out[e:] = _axpy(out[e:], -p, old)
        grow *= r
        p, r, e = -p * p, r * r, 2 * e
    rs = r ** ((width - 1) // e)
    if rs != 1:
        out[:] = [rs * c for c in out]
    for k in range(e, width, e):
        prev = out[k - e:k]
        out[k:k + e] = _axpy(out[k:k + e], -p, prev if r == 1 else
                             map(r.__rfloordiv__, prev))
    return grow * rs


def _axpy(a, p: int, b):
    """The integers a[i] + p * b[i], as an iterator over the shorter.

    p = +-1 (every factor 1 - q^j of a tower over the bare base q) skips
    the product map."""
    if p == 1:
        return map(operator.add, a, b)
    if p == -1:
        return map(operator.sub, a, b)
    return map(operator.add, a, map(p.__mul__, b))


#: `mul` adds rows while the sparser factor has at most this many nonzero
#: numerators and calls `_kronecker` above it. Measured with CPython 3.11
#: on a 2-core x86-64 host over every dense product of one pass of the
#: benchmark's catalog-o20 and classic-o120 workloads, the total kernel
#: time is flat within 1% for 6, 7 and 8 and lowest at 7; on random
#: dense windows of up to 64-bit numerators, the big-integer product
#: starts to win at 7 to 8 nonzeros.
_ROWS_MAX = 7


def _pack(x, nb: int) -> int:
    """The integers x as one integer at q = 2^s, s = 8 nb bits a slot:
    sum x[i] 2^(s i), for |x[i]| < 2^(s - 1). Each slot is written
    biased by 2^(s - 1), so that it lies in [0, 2^s), and the biases
    are taken off again in one subtraction."""
    bias = 1 << (8 * nb - 1)
    # the bias in every slot of an n-slot window is int.from_bytes(unit * n)
    unit = bytes(nb - 1) + b"\x80"
    return (int.from_bytes(b"".join([(c + bias).to_bytes(nb, "little")
                                     for c in x]), "little")
            - int.from_bytes(unit * len(x), "little"))


def _unpack(z: int, nb: int, width: int) -> list:
    """The `width` integers x with z = sum x[i] 2^(s i) modulo
    2^(s width), s = 8 nb, given |x[i]| < 2^(s - 1): each slot is read
    biased by 2^(s - 1), so every slot lies in [0, 2^s) and no carry
    crosses from one slot into the next."""
    bias = 1 << (8 * nb - 1)
    z += int.from_bytes((bytes(nb - 1) + b"\x80") * width, "little")
    # the slots past `width` carry no bias and may sum to a negative
    # number; the mask drops them and leaves the biased low slots
    z = (z & ((1 << (8 * nb * width)) - 1)).to_bytes(nb * width, "little")
    return [int.from_bytes(z[k:k + nb], "little") - bias
            for k in range(0, nb * width, nb)]


def _kronecker(a, b, width: int) -> list:
    """The first `width` numerators of the product of the integer
    windows a and b (width > 0), by one big-integer multiply.

    Kronecker substitution: each window, trimmed to `width`, is packed
    into one integer at q = 2^s, s = 8 nb bits a slot (`_pack`). A
    product numerator is a sum of at most n = min(len(a), len(b)) terms,
    so |c_j| <= n max|a| max|b| < 2^(s - 1) when s is at least
    bitlen(max|a|) + bitlen(max|b|) + bitlen(n) + 1, and `_unpack`
    reads it back."""
    a, b = a[:width], b[:width]
    bits = (max(max(a), -min(a)).bit_length()
            + max(max(b), -min(b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    nb = (bits + 7) // 8
    return _unpack(_pack(a, nb) * _pack(b, nb), nb, width)


#: `mul_binomials` applies its factors as packed shift-adds
#: (`_packed_pass`) when there are at least `_PACK_MIN` of them, all with
#: r = 1, on a window at least `_PACK_WIDTH` wide. Packing and unpacking
#: are O(width) Python, so a tower step's one or two binomials keep one
#: pass per factor. Measured with CPython 3.11 on a 2-core x86-64 host,
#: 20-bit numerators, the first n factors of five infinite products
#: (1/(q;q), 1/(-q^2;q^2), 1/(q;q^5), (q^4;q^4), (-q;q^2)), us per list,
#: packed / one pass per factor: width 121: n = 8 141 / 105, 12 147 /
#: 140, 16 167 / 180, 24 197 / 260; width 48: 8 53 / 47, 12 66 / 64,
#: 16 63 / 75, 24 74 / 91; width 24: 12 36 / 36, 24 34 / 37.
_PACK_MIN = 16
_PACK_WIDTH = 48


def _slot_bits(out: list, factors) -> Optional[int]:
    """Bits s of a slot that holds the input numerators `out` (width
    w, not all zero) and every numerator of `out` times the
    binomials (p, 1, e, invert), truncated to w entries, biased by
    2^(s - 1); None when the bound below does not exist.

    Only the factors with e < w act on w entries. Their product g is
    dominated coefficientwise, |g_k| <= G_k, by the majorant
    G(x) = prod (1 + |p| x^e) prod 1/(1 - |p| x^e), whose coefficients
    are >= 0. Take rho = 1 - 1/sqrt(w), so 0 < rho < 1 for w >= 2, and
    require |p| rho^e < 1 on every division; then M = G(rho) is finite
    and G_0 + ... + G_t <= M / rho^t. A result numerator is
    c_t = sum a_(t - k) g_k over k <= t, so
    |c_t| <= max|a| M / rho^(w - 1) < 2^(bitlen(max|a|) + L) for
    L = log2 M - (w - 1) log2 rho, and s = bitlen(max|a|) + ceil(L) + 1
    bits hold it, the input too, with the sign.

    L is computed in floats; the slot takes one more bit, which covers
    their rounding. Taking the double rho as the exact one, each
    x = |p| rho^e is within a relative 2^-51 of exact. A division with
    x above 1 - 2^-20 gives None, so 1/(1 - x) < 2^21 and each log1p
    term is off by less than 2^-29 nats. A factor with |p| >= 2^64 (no
    float product), a list of 2^20 factors or more, or a width of 2^26
    or more gives None too, so there are fewer than 2^20 terms, each
    below 45 nats, besides (w - 1) |ln rho| < w. Terms and float sum
    together are off by less than 2^-5 nats, so the computed L is above
    L - 1 and its ceil plus 1 is at least ceil(L)."""
    w = len(out)
    if not 2 <= w < 2 ** 26 or len(factors) >> 20:
        return None
    rho = 1 - 1 / sqrt(w)
    ln_m = -(w - 1) * log(rho)
    for p, _, e, invert in factors:
        if e >= w:
            continue
        if p.bit_length() > 64:
            return None
        x = abs(p) * rho ** e
        if not invert:
            ln_m += log1p(x)
        elif x > 1 - 2 ** -20:
            return None
        else:
            ln_m -= log1p(-x)
    top = max(max(out), -min(out)).bit_length()
    return top + ceil(ln_m / log(2)) + 2


def _packed_pass(out: list, factors) -> Optional[list]:
    """`out` times the binomials (p, 1, e, invert), e > 0, truncated
    to its width w, as shift-adds on one packed integer; None (nothing
    done) when `_slot_bits` finds no bound.

    The window is packed once (`_pack`) at q = 2^s, so that a product by
    a polynomial truncated to w entries is the product of the packed
    integers modulo 2^(s w), whatever the slots hold on the way: only
    the result's numerators must fit (`_slot_bits`) for `_unpack` to
    read them back. A multiplication by 1 + p q^e is X + p (X << e s); a
    division by 1 + p q^e is the product of the factors
    1 + (-p)^(2^i) q^(e 2^i) over the i with e 2^i < w, since
    1/(1 - y) = prod (1 + y^(2^i)), so log2(w/e) shift-adds, each
    reduced modulo 2^(s w)."""
    bits = _slot_bits(out, factors)
    if bits is None:
        return None
    w = len(out)
    nb = (bits + 7) // 8
    s = 8 * nb
    mask = (1 << (s * w)) - 1
    x = _pack(out, nb) & mask
    for p, _, e, invert in factors:
        if invert:
            p = -p
        while e < w:
            y = x << (e * s)
            x = (x + y if p == 1 else x - y if p == -1
                 else x + p * y) & mask
            if not invert:
                break
            p, e = p * p, 2 * e
    return _unpack(x, nb, w)


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
    """First differing coefficient found by `LaurentSeries.compare`."""

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
        over the product of the two denominators, in one of two forms
        with identical results:

          * rows, while the sparser factor has at most `_ROWS_MAX`
            (7) nonzero numerators (binomials, a fault's 1 + q^j, short
            tower values): each nonzero numerator adds a scaled slice of
            the other factor;
          * Kronecker substitution (`_kronecker`) above that: both
            windows, trimmed to the result width, are packed into one
            integer each and multiplied once. Every product numerator
            has |c_j| <= min(la, lb) max|a| max|b|, so a slot of
            bitlen(max|a|) + bitlen(max|b|) + bitlen(min(la, lb)) + 1
            bits, rounded up to whole bytes, holds it without carries.
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
        # a is the factor with fewer nonzero numerators
        nz, nzb = len(a) - a.count(0), len(b) - b.count(0)
        if nz > nzb:
            a, b, nz = b, a, nzb
        lb = len(b)
        width = len(a) + lb - 1
        if order is not None:
            width = min(width, order - lo + 1)
        if width > 0 and nz > _ROWS_MAX:
            return LaurentSeries._from_ints(lo, _kronecker(a, b, width),
                                            self.den * other.den, order)
        # one row per nonzero numerator of a, added in one slice across b
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
    def product_at(parts, goal: Optional[int] = None) -> "LaurentSeries":
        """The left fold of `mul` over the nonempty sequence `parts`,
        truncated at `goal` (None: in full), multiplying only the window
        the goal needs. The caller checks that the fold's order reaches
        `goal` and that the product is not zero through it.

        Nonzero leading coefficients multiply to a nonzero leading
        coefficient, so the product's valuation is the sum of the parts'
        valuations, and the partial product through part i is capped at
        `goal` minus the valuations of the parts after i: a coefficient
        above that cap only reaches exponents above `goal`.
        """
        out, rest = parts[0], parts[1:]
        cap = None if goal is None else goal - sum(s.min_deg for s in rest)
        for s in rest:
            if cap is not None:
                cap += s.min_deg
            out = out.mul(s, cap=cap)
        return out._cap(goal)

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

        For exp > 0 this is one integer pass (`mul_binomials`) on the
        input's window (widened by exp for an exact input); for exp = 0 a
        scaling by 1 + coef, and for exp < 0 the sum of the series and
        its scaled copy."""
        coef = _frac(coef)
        if not coef:
            return self
        if exp == 0:
            return self.scale(1 + coef)
        if exp < 0:
            return self + self.scale(coef, exp)
        return self.mul_binomials(
            ((coef.numerator, coef.denominator, exp, False),))

    def div_binomial(self, coef: RationalLike, exp: int,
                     order: Optional[int] = None) -> "LaurentSeries":
        """Divide by the exact binomial (1 + coef * q^exp).

        For exp > 0 the quotient is computed by the linear recurrence
        b[t] = a[t] - coef * b[t-exp] (`mul_binomials`), which preserves
        the truncation order. Exact input needs an explicit `order` (the
        quotient is an infinite series). `order` is a cap on every path,
        like `mul(cap=)`: the result order is min(input order, `order`),
        and an `order` above the input's is never an error.
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
        return self.mul_binomials(
            ((coef.numerator, coef.denominator, exp, True),), order)

    def mul_binomials(self, factors,
                      order: Optional[int] = None) -> "LaurentSeries":
        """Multiply by prod (1 + (p/r) q^e)^(-1 if invert else +1) over
        the integer factors (p, r, e, invert), with r > 0 and e > 0.

        One integer pass over the numerators per factor, over a growing
        shared denominator, and one canonicalization (`_from_ints`, one
        gcd) at the end. A multiplication is r A[t] + p A[t - e] over
        r den; a division is `_divide_pass`: strided prefix sums over
        den for 1 - q^e or 1 + q^e on a wide enough window, else a
        recurrence over den r^((width - 1) // e). A truncated window at
        least `_PACK_WIDTH` wide that takes at least `_PACK_MIN` factors,
        all with r = 1 (the binomials of infinite products over q-power
        bases), is instead packed into one integer and every factor
        applied as big-integer shift-adds (`_packed_pass`), the
        denominator unchanged, in slots sized by a proven bound on the
        result numerators (`_slot_bits`: max|a| M(rho) / rho^(w - 1)
        for the majorant M of the factors, rho = 1 - 1/sqrt(w), with one
        bit of margin for its float rounding); where that bound does not
        exist the passes per factor run. `order` caps the result as in
        `div_binomial`: its order is min(input order, `order`). An exact
        input stays exact, widened by each e, when `order` is None and
        nothing divides.
        """
        eo = self.eff_order()
        if order is not None:
            eo = min(eo, order)
        if eo == float("inf"):
            if any(f[3] for f in factors):
                raise ValueError("dividing an exact series requires an order")
            eo = None
        else:
            eo = int(eo)
        if not factors:
            return self._cap(order)
        if self.is_zero:
            return LaurentSeries.zero(eo)
        lo = self.min_deg
        out = list(self.nums)
        if eo is not None:
            width = eo - lo + 1
            if width <= 0:
                return LaurentSeries.zero(eo)
            del out[width:]
            out.extend([0] * (width - len(out)))
        den = self.den
        if eo is not None and len(out) >= _PACK_WIDTH and \
                len(factors) >= _PACK_MIN and all(f[1] == 1 for f in factors):
            packed = _packed_pass(out, factors)
            if packed is not None:
                return LaurentSeries._from_ints(lo, packed, den, eo)
        for p, r, e, invert in factors:
            if invert:
                den *= _divide_pass(out, p, r, e)
                continue
            old = out
            out = old[:] if r == 1 else [r * c for c in old]
            den *= r
            if eo is None:
                out.extend([0] * e)
            out[e:] = _axpy(out[e:], p, old)
        return LaurentSeries._from_ints(lo, out, den, eo)

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

