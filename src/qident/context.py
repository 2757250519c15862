"""Evaluation contexts for identity-side builders.

A catalog identity is coded once against this small algebra and can then
run under two strategies:

  * ExactCtx -- truncated Laurent series over exact rationals, in a
    working variable t with q = t^d (d = 2 realizes half-integer
    q-exponents);
  * NumericCtx -- high-precision decimals at a sampled rational q (for
    d = 2 the sampler supplies the d-th root of q directly, so fractional
    q-powers stay exact), computed in a decimal context of its own.

Both expose the same operations: rational constants, q-powers, finite and
infinite Pochhammer products (cached incrementally), the very-well-poised
factor, and a tail-aware summation. `summation(term, times=m)` is m times
the sum; ExactCtx sums max(0, -exp(m)) deeper, so that the product is
still known through the target. ExactCtx's `one`, and `poch`, `inv_poch`
and `vwp` at n = 0 or a zero argument, are the scalar 1 (`vwp` at k = 1
still raises DegenerateVWP), and `add`/`sub` of the scalar 0 return the
other operand, so a trivial factor adds no series to a product. Summands on
negative q-powers dip below degree 0, so a build may need a construction
order above the comparison target; `exact_run` measures it: an
OrderInsufficient names its shortfall, and the build reruns with that
much more headroom.

A NumericCtx owns its precision and its caches (see the class): each
rational and q-power is converted once and each Pochhammer product is
extended by a running power. The caches live on the context, not in the
module, because their values depend on q and the precision, and because
one context serves one build on one thread.

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

from .errors import (
    DegenerateDenominator,
    DegenerateVWP,
    NonTruncatable,
    OrderInsufficient,
)
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
_D_ONE = Decimal(1)


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


def _is_zero(v) -> bool:
    return v.is_zero if isinstance(v, QMonomial) else \
        isinstance(v, (Fraction, int)) and not v


class ExactCtx:
    """Exact strategy: all values are rationals, monomials c*t^e, or
    truncated Laurent series in t at a fixed working order.

    Sides are compared at `target` (t-units); the construction order is
    `headroom` above it, for the Laurent dips of summands. `exact_run`
    chooses the headroom, starting from the default 0.
    """

    def __init__(self, order: int, denom: int = 1, headroom: int = 0):
        self.denom = denom
        self.target = order * denom         # comparison order in t units
        self.order = self.target + headroom  # construction order
        self.q = QMonomial.of(1, denom)     # q itself
        self._towers: Dict = {}

    # -- values ---------------------------------------------------------

    def one(self):
        return _ONE

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
        if _is_zero(u) or _is_zero(v):
            return v if _is_zero(u) else u
        return LaurentSeries.coerce(_force(u), self.order) + \
            LaurentSeries.coerce(_force(v), self.order)

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def neg(self, v):
        return -Fraction(v) if isinstance(v, int) else -_force(v)

    def inv(self, v):
        v = _force(v)
        if _is_zero(v):
            raise DegenerateDenominator("division by zero")
        if isinstance(v, (Fraction, int)):
            return 1 / Fraction(v)
        if isinstance(v, QMonomial):
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
        q-power of `times` as far as the construction order allows (a
        term left short raises OrderInsufficient; see `exact_run`)."""
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


def exact_run(order: int, build: Callable, denom: int = 1):
    """`build(ctx)` in `ExactCtx(order, denom, headroom)` from headroom 0:
    an OrderInsufficient short by s > 0 t-units reruns it with s more, up
    to a headroom of the target; past that, or with no shortfall, the
    error propagates."""
    target = order * denom
    headroom = 0
    while True:
        try:
            return build(ExactCtx(order, denom, headroom))
        except OrderInsufficient as ex:
            if not 0 < (ex.short or 0) <= target - headroom:
                raise
            headroom += ex.short


class _PochRun:
    """(a; base)_n for n = 0, 1, 2, ... in a decimal context, the numeric
    counterpart of `PochTower`: the products reached so far and the
    running term a*base^j of the next factor, so one more factor costs two
    multiplications and a subtraction (never a power)."""

    __slots__ = ("base", "vals", "run", "_mul", "_sub")

    def __init__(self, a: Decimal, base: Decimal, dc: decimal.Context):
        self.base = base
        self.vals = [_D_ONE]
        self.run = a
        self._mul, self._sub = dc.multiply, dc.subtract

    def upto(self, n: int) -> Decimal:
        vals = self.vals
        short = n + 1 - len(vals)
        if short > 0:
            mul, sub, base = self._mul, self._sub, self.base
            last, run = vals[-1], self.run
            for _ in range(short):
                last = mul(last, sub(_D_ONE, run))
                vals.append(last)
                run = mul(run, base)
            self.run = run
        return vals[n]


class NumericCtx:
    """Numeric strategy: decimals at a rational q, in a decimal context of
    its own.

    `q_unit` is the d-th root of q as an exact rational; every q-power in
    a builder is an integer power of it. All arithmetic, the sums
    included, runs in `self.dc`, one `decimal.Context` at
    NUMERIC_PRECISION + 10 (74) digits, never in the thread's ambient
    context: a verdict does not depend on the caller's decimal settings or
    thread. Sums and `verify_one` use `tol` = NUMERIC_TOL.

    Memoized per context, since the values depend on q and the precision
    and a context lives for one build:
      * `num`: each distinct rational, converted to a Decimal once;
      * `qpow`: each q-power, computed once;
      * `poch` (and `inv_poch`): for each (argument, base) pair, a
        `_PochRun` that extends (a; base)_n by a running power.
    A builder that passes the same Decimal object again (a loop-invariant
    argument built once, a memoized rational or q-power) also reuses its
    cached hash: a fresh long Decimal costs far more to hash than
    the lookup it keys.
    """

    def __init__(self, q_unit: Fraction, denom: int = 1):
        self.denom = denom
        self.dc = dc = decimal.Context(prec=NUMERIC_PRECISION + 10)
        self._mul, self._sub = dc.multiply, dc.subtract
        self.tol = NUMERIC_TOL
        self._nums: Dict = {}
        self._qpows: Dict = {}
        self._poch_cache: Dict = {}
        self.q_unit = self.num(q_unit)
        self.q = dc.power(self.q_unit, denom)
        self._eps = Decimal(f"1e-{NUMERIC_PRECISION - 4}")

    def one(self):
        return _D_ONE

    def num(self, x) -> Decimal:
        if type(x) is Decimal:
            return x
        key = x.as_integer_ratio()     # hashes far faster than a Fraction
        d = self._nums.get(key)
        if d is None:
            d = self._nums[key] = self.dc.divide(*key)
        return d

    def qpow(self, e) -> Decimal:
        d = self._qpows.get(e)
        if d is None:
            te = e * self.denom if type(e) is int else Fraction(e) * self.denom
            if te.denominator != 1:
                raise ValueError(f"exponent {e} not representable at denom "
                                 f"{self.denom}")
            d = self._qpows[e] = self.dc.power(self.q_unit, int(te))
        return d

    def mul(self, *vals):
        num, mul = self.num, self._mul
        out = _D_ONE
        for v in vals:
            out = mul(out, v if type(v) is Decimal else num(v))
        return out

    def add(self, u, v):
        return self.dc.add(self.num(u), self.num(v))

    def sub(self, u, v):
        return self._sub(self.num(u), self.num(v))

    def neg(self, v):
        return self.num(v).copy_negate()

    def inv(self, v):
        v = self.num(v)
        if not v:
            raise DegenerateDenominator("division by zero")
        return self.dc.divide(_D_ONE, v)

    def div(self, u, v):
        return self._mul(self.num(u), self.inv(v))

    def pow_int(self, v, k: int):
        return self.dc.power(self.num(v), k)

    def poch(self, a, base, n: int) -> Decimal:
        if type(a) is not Decimal:
            a = self.num(a)
        if type(base) is not Decimal:
            base = self.num(base)
        key = (a, base)
        run = self._poch_cache.get(key)
        if run is None:
            run = self._poch_cache[key] = _PochRun(a, base, self.dc)
        return run.upto(n)

    def inv_poch(self, a, base, n: int) -> Decimal:
        p = self.poch(a, base, n)
        if not p:
            raise DegenerateDenominator("vanishing Pochhammer denominator")
        return self.dc.divide(_D_ONE, p)

    def poch_inf(self, a, base) -> Decimal:
        a, base = self.num(a), self.num(base)
        if base.copy_abs() >= 1:
            raise NonTruncatable("numeric infinite product needs |base| < 1")
        mul, sub = self._mul, self._sub
        out, f = _D_ONE, a
        for _ in range(100_000):
            if f.copy_abs() < self._eps:
                return out
            out = mul(out, sub(_D_ONE, f))
            f = mul(f, base)
        raise NonTruncatable("infinite product failed to settle")

    def inv_poch_inf(self, a, base) -> Decimal:
        p = self.poch_inf(a, base)
        if not p:
            raise DegenerateDenominator("vanishing infinite product")
        return self.dc.divide(_D_ONE, p)

    def vwp(self, k, n: int, base=None) -> Decimal:
        k = self.num(k)
        base = self.q if base is None else self.num(base)
        if k == 1:
            raise DegenerateVWP("very-well-poised factor with k = 1")
        top = self._sub(_D_ONE, self._mul(k, self.dc.power(base, 2 * n)))
        return self.dc.divide(top, self._sub(_D_ONE, k))

    def summation(self, term: Callable[[int], Decimal], start: int = 0,
                  times=1):
        """`times` times the sum of the terms, taken in `self.dc`."""
        gen = NumericTermGenerator(lambda n: self.num(term(n + start)))
        return self.mul(times, sum_numeric(gen, self.tol, self.dc))

    def finalize(self, v) -> Decimal:
        return self.num(v)


Ctx = Union[ExactCtx, NumericCtx]
