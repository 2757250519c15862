"""q-Pochhammer symbols, the very-well-poised factor, and the generic
summation engines. The basic hypergeometric series itself is written over
`Ctx` in `bailey` (`phi_term`, with `phi_rs` its exact wrapper).

Conventions: (a; b)_n is the finite product over j < n of (1 - a b^j) and
(a; b)_inf the infinite one. Arguments and bases are values of the shape
c * q^e; the base must have nonneg exponent for finite products and positive
exponent for infinite ones (otherwise the tail cannot be cut off at a finite
order). Square roots never materialize: the paired parameters
(q*sqrt(k), -q*sqrt(k)) / (sqrt(k), -sqrt(k)) that very-well-poised series
carry are always evaluated through the algebraic identity
(1 - k q^{2n}) / (1 - k).
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, List, Optional, Union

from .errors import (
    DegenerateDenominator,
    DegenerateVWP,
    NonTruncatable,
    OrderInsufficient,
    TailNotDecreasing,
    ValuationStall,
)
from .series import LaurentSeries, QMonomial, Rational

Value = Union[LaurentSeries, QMonomial, Rational, int]

#: consecutive terms failing to raise the valuation floor before we declare
#: the specialization inadmissible for exact summation
STALL_WINDOW = 200

#: consecutive terms confined above the working order before the exact sum
#: is considered finished
_STOP_RUN = 8

#: numeric defaults
NUMERIC_PRECISION = 64
NUMERIC_TOL = Decimal("1e-30")
_NUMERIC_TERM_BUDGET = 10_000


def as_monomial(value: Value) -> Optional[QMonomial]:
    """View a value as c * q^e if it is one, else None."""
    if isinstance(value, QMonomial):
        return value
    if isinstance(value, (Fraction, int)):
        return QMonomial.of(value)
    if isinstance(value, LaurentSeries) and value.is_exact:
        if value.is_zero:
            return QMonomial.of(0)
        if len(value.coeffs) == 1:
            return QMonomial(value.coeffs[0], value.min_deg)
    return None


def poch_finite(a: Value, base: QMonomial, n: int,
                order: Optional[int] = None) -> LaurentSeries:
    """(a; base)_n as an exact polynomial (or truncated at `order`).

    The empty product (n = 0) is 1. `a` must be monomial-like; Laurent
    factors with negative exponents are allowed in it, and the base
    exponent must be >= 0.
    """
    if n < 0:
        raise ValueError("Pochhammer length must be >= 0")
    if base.exp < 0:
        raise ValueError("Pochhammer base must have nonnegative exponent")
    mono = as_monomial(a)
    if mono is None:
        raise TypeError("poch_finite needs a monomial-like argument")
    out = LaurentSeries.one(order)
    if mono.is_zero:
        return out
    c, e = mono.coef, mono.exp
    for j in range(n):
        out = out.mul_binomial(-c * base.coef ** j, e + j * base.exp)
    return out


def poch_infinite(a: Value, base: QMonomial, order: int) -> LaurentSeries:
    """(a; base)_inf truncated exactly at `order`.

    Only the finitely many factors that touch the window are multiplied;
    that requires base.exp >= 1 and the argument exponent >= 0, otherwise
    the specialization is not truncatable and NonTruncatable is raised.
    """
    mono = as_monomial(a)
    if mono is None:
        raise NonTruncatable("infinite product needs a monomial argument")
    if base.exp < 1:
        raise NonTruncatable("infinite product base must have exponent >= 1")
    if mono.is_zero:
        return LaurentSeries.one(order)
    if mono.exp < 0:
        raise NonTruncatable("infinite product argument has negative exponent")
    out = LaurentSeries.one(order)
    c, e = mono.coef, mono.exp
    j = 0
    while e + j * base.exp <= order:
        out = out.mul_binomial(-c * base.coef ** j, e + j * base.exp)
        j += 1
    return out


class PochTower:
    """Incremental cache of (a; base)_n for n = 0, 1, 2, ... at fixed order.

    With invert=True it caches 1/(a; base)_n instead, extending by one
    binomial division per step, so a sum over n reuses all shorter
    prefixes. A vanishing constant factor raises DegenerateDenominator. A
    factor on a negative power lowers the known order by its dip, which
    the caller's working order must cover (see `context.exact_run`).
    """

    def __init__(self, a: Value, base: QMonomial, order: int,
                 invert: bool = False):
        self.base = base
        self.order = order
        self.invert = invert
        self._mono = as_monomial(a)
        if self._mono is None:
            raise TypeError("PochTower requires a monomial-like argument")
        if not invert and self._mono.exp < 0 and base.exp == 0:
            raise NonTruncatable(
                "constant base with negative-exponent argument")
        self._vals: List[LaurentSeries] = [LaurentSeries.one(order)]

    def upto(self, n: int) -> LaurentSeries:
        while len(self._vals) <= n:
            j = len(self._vals) - 1
            cur = self._vals[-1]
            if self._mono.is_zero:
                self._vals.append(cur)
                continue
            c = -self._mono.coef * self.base.coef ** j
            e = self._mono.exp + j * self.base.exp
            if self.invert:
                if e == 0 and c == -1:
                    raise DegenerateDenominator(
                        f"factor (1 - {self._mono}*{self.base}^{j}) vanishes")
                self._vals.append(cur.div_binomial(c, e))
            else:
                self._vals.append(cur.mul_binomial(c, e))
        return self._vals[n]


def vwp_factor(k: Value, n: int, order: Optional[int] = None,
               base: Optional[QMonomial] = None) -> LaurentSeries:
    """The very-well-poised ratio (1 - k base^{2n}) / (1 - k).

    Algebraically equal to the four-Pochhammer quotient
    (base*sqrt(k), -base*sqrt(k); base)_n / (sqrt(k), -sqrt(k); base)_n,
    with no square root ever taken. k must be monomial-like; k = 1 is
    degenerate.
    """
    if base is None:
        base = QMonomial.of(1, 1)
    mono = as_monomial(k)
    if mono is None:
        raise TypeError("vwp_factor needs a monomial-like k")
    if mono.is_one:
        raise DegenerateVWP("very-well-poised factor with k = 1")
    num_c = -mono.coef * base.coef ** (2 * n)
    num_e = mono.exp + 2 * n * base.exp
    out = LaurentSeries.one(order).mul_binomial(num_c, num_e)
    if mono.is_zero:
        return out
    if mono.exp == 0:
        return out.scale(Fraction(1) / (1 - mono.coef))
    return out.div_binomial(-mono.coef, mono.exp, order)


@dataclass
class TermGenerator:
    """A summable sequence of series-valued terms.

    `term` must be re-entrant (same n, same value). `valuation_growth`,
    when given, is a nondecreasing lower bound on the valuation of term(n);
    it lets the summation engine stop without probing extra terms.
    """

    term: Callable[[int], LaurentSeries]
    valuation_growth: Optional[Callable[[int], int]] = None


def sum_exact(gen: TermGenerator, order: int) -> LaurentSeries:
    """Sum term(0), term(1), ... exactly to `order`.

    Terms are consumed until every subsequent one provably lives above the
    working order: either the declared valuation bound exceeds it, or a run
    of terms is observed strictly above it. If {STALL_WINDOW} consecutive
    terms fail to raise the running valuation floor, the specialization is
    declared inadmissible (ValuationStall).
    """
    acc = LaurentSeries.zero(order)
    floor: float = float("-inf")
    stall = 0
    high_run = 0
    n = 0
    while True:
        if gen.valuation_growth is not None and gen.valuation_growth(n) > order:
            break
        t = gen.term(n)
        if t.eff_order() < order:
            raise OrderInsufficient(
                f"term {n} only known to order {t.order}, need {order}",
                order - t.order)
        v = t.eff_min_deg()
        acc = acc + t
        if v > floor:
            floor = v
            stall = 0
        else:
            stall += 1
            if stall >= STALL_WINDOW:
                raise ValuationStall(
                    f"{STALL_WINDOW} consecutive terms without valuation "
                    f"progress (floor {floor})")
        if v > order:
            high_run += 1
            if high_run >= _STOP_RUN:
                break
        else:
            high_run = 0
        n += 1
    return acc


@dataclass
class NumericTermGenerator:
    """High-precision numeric counterpart of TermGenerator."""

    term: Callable[[int], Decimal]


def sum_numeric(gen: NumericTermGenerator, tol=NUMERIC_TOL,
                context: Optional[decimal.Context] = None) -> Decimal:
    """Sum numeric terms until 20 consecutive ones fall below tol/100.

    The sum is taken in `context` (default: a fresh one at
    NUMERIC_PRECISION digits), never in the ambient decimal context. Raises
    TailNotDecreasing if the stopping rule is not met within the term
    budget. The caller compares both sides within `tol`.
    """
    dc = decimal.Context(prec=NUMERIC_PRECISION) if context is None \
        else context
    tol = _as_decimal(tol, dc)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    cutoff = dc.divide(tol, 100)
    add = dc.add
    small_run = 0
    total = Decimal(0)
    for n in range(_NUMERIC_TERM_BUDGET):
        t = gen.term(n)
        total = add(total, t)
        if t.copy_abs() < cutoff:
            small_run += 1
            if small_run >= 20:
                return total
        else:
            small_run = 0
    raise TailNotDecreasing(
        f"no 20-term small tail within {_NUMERIC_TERM_BUDGET} terms")


def _as_decimal(x, dc: decimal.Context) -> Decimal:
    if isinstance(x, Decimal):
        return x
    if isinstance(x, str):
        return Decimal(x)
    if isinstance(x, int):
        return Decimal(x)
    if isinstance(x, Fraction):
        return dc.divide(x.numerator, x.denominator)
    raise TypeError(f"cannot convert {type(x).__name__} to Decimal")
