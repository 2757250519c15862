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
infinite Pochhammer products (cached incrementally), the Pochhammer
quotient n -> s^n prod (u; p_u)_(k n + l) / prod (d; p_d)_(k n + l)
(`quotient`, the shape of every summand's Pochhammers, whatever their
lengths), the very-well-poised factor, and summation.
`summation(term, start, times=m)` is m times the sum of the terms n >=
start; ExactCtx sums max(0, -exp(m)) deeper (exp of m's monomial part),
so that the product is still known through the target, and NumericCtx
certifies the sum to tol/100 over max(1, |m|), so that the product is
within tol/100; a builder passes every factor that multiplies a sum as
its `times`. The summand is declared (`bailey.Summand`, never a bare
callable), and each term n is read as declared, with its certificates
at n, whatever the start: ExactCtx reads its `ValuationLaw` and stops
where the law's bound passes the goal, which proves that every later
term is zero through it; NumericCtx reads its `qfunc.Envelope` and stops
where the certified bound on all later terms, or on their distance from
the geometric tail that the envelope's `qfunc.Ratio` adds, is within
tol/100, or at the support that the law and the envelope both carry.
ExactCtx's
`one`, and `vwp` at n = 0 or a zero argument, are the scalar 1 (`vwp` at
k = 1 still raises DegenerateVWP); `quotient` (so `poch` and `inv_poch`)
there is the unit monomial while it holds no binomial (the empty product,
or zero arguments); and `add`/`sub` of the scalar 0 return the
other operand, so a trivial factor adds no series to a product. Summands
on negative q-powers dip below degree 0, so a build may need a
construction order above the comparison target; `exact_run` measures it:
an OrderInsufficient names its shortfall, and the build reruns with that
much more headroom.

Both contexts step a quotient from one term to the next by its term
ratio, and each has one engine for it, memoized per context: `poch` and
`inv_poch` are one-factor quotients. A summand is one quotient: its
Pochhammers may have any lengths k n + l, and the term ratio is still
rational in q^n (Gasper & Rahman, section 1.2), so one step from n to
n + 1 takes the next k factors of each. Both engines are a generator of
Q(n0), Q(n0 + 1), ... behind one `qfunc.Stepped`, which keeps the values
reached: n0 is the least n at which every length is >= 0
(`qfunc.length_start`), a lookup below it raises ValueError, and a pole
raises on every later lookup. Under ExactCtx a quotient reads a
`qfunc.PochTower`, kept per context for each distinct tuple of
(argument, base, invert, k, l) factors (a quotient without factors reads
none); one step applies the binomials of all its factors in one integer
pass, O(width) each, and one gcd. A quotient term is one series part,
Q(n), times the monomial s^n and the term's other factors, however many
factors and lengths the quotient has: no term multiplies two windows of
Pochhammers. Q(n) carries the order of the product of one tower per
factor, each at its own length, so `exact_run` reads the same
shortfalls as from that product.

A NumericCtx owns its precision and its caches (see the class): each
distinct rational is converted once, and each distinct quotient (its
factors and s) is one run of `_quotient_steps`, by running powers. The
caches live on the context, not in the module, because their values
depend on q and the precision, and because one context serves one build
on one thread.

Under ExactCtx a product that involves a series is kept unmultiplied: `mul`
returns one monomial c*t^e times a flat list of series parts, the dense
part, and a flat list of integer binomials (1 + (p/r) t^e)^(+-1), e > 0
(nested products merge into both lists). The binomials are the factors
that have that shape (Gasper & Rahman, section 1.2), and no window is
ever formed for them:

  * `poch_inf(a, base)`: the binomials 1 - a base^j of exponent at most
    the construction order (`qfunc.poch_infinite`), a constant first
    factor 1 - a (argument exponent 0) folded into the monomial; at a = 1
    the product is the zero series;
  * `inv` of a product with no dense part and a monomial of exponent
    >= 0: the monomial is inverted and every binomial flipped, the
    order capped where `LaurentSeries.invert` at the construction order
    caps the inverse (below 0, that inverse would be known to a lower
    order than the flipped product claims);
  * `add`/`sub` of a nonzero scalar c and a monomial m = c' t^e: the
    monomial of lower exponent times one binomial, c (1 + (c'/c) t^e)
    for e > 0 and m (1 + (c/c') t^-e) for e < 0 (the heads 1 + q^(h - 2n) of
    the mod-5 companions past n = h/2), or the scalar c + c' times none
    at e = 0;
  * `vwp(k, n, base)` for k and base of exponent >= 0: the two binomials
    of (1 - k base^(2n)) / (1 - k) (`qfunc.vwp_factor`), the constant
    one folded as above.

As a window each of these is a valuation-0 series known to the
construction order N (the binomial of c + m at e < 0 to N - e, since
the window c + m is known to N), so the product of the dense part D
with them is known to min(order of D, N' + valuation of D), N' the
least of those orders: `LaurentSeries.mul`'s order rule folded over
those windows. Forcing caps it there, and values, orders and
OrderInsufficient shortfalls are those of the eager product of the
windows. A product is forced by one method, `_Product.at(goal)`: inside
`summation` at the sum's goal order, and everywhere else (`add`, `sub`,
`neg`, `inv` of a product with a dense part, `pow_int`, the arguments of
the q machinery, `finalize`) in full, at its own order (goal None):

  * The product's order (the rule above, plus e) is computed once, from
    the parts' orders and valuations, before anything is multiplied. A
    goal above it raises OrderInsufficient with the shortfall of the
    eager product.
  * Nonzero leading coefficients multiply to a nonzero leading
    coefficient, so the product's valuation is e plus the sum of the
    parts' valuations; when that exceeds the goal (or a part is zero) the
    product is exactly zero through the goal and nothing is multiplied.
  * Otherwise `LaurentSeries.product_at(parts, goal - e)` multiplies the
    parts left to right, the partial product through part i capped at
    goal - e - (the valuations of the parts after i): a coefficient above
    that cap only reaches exponents above the goal. The binomials (e > 0)
    keep the valuation and are applied capped at goal - e by
    `qfunc._times`, in one `LaurentSeries.mul_binomials`: one integer
    pass per factor, or, for a long list of binomials with r = 1 on a
    wide window (the infinite products of a product side at order 120),
    shift-adds on the window packed into one integer. Then the monomial.
    The result equals the eager product truncated at the goal, order
    included.

`div(u, v)` is the product of u and the inverse of v.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import inf
from typing import Callable, Dict, Optional, Union

from .errors import (
    DegenerateDenominator,
    DegenerateVWP,
    NonTruncatable,
    OrderInsufficient,
    UndeclaredBound,
)
from .qfunc import (
    NO_BOUND,
    NUMERIC_PRECISION,
    NUMERIC_TOL,
    NumericTermGenerator,
    PochTower,
    Stepped,
    TermGenerator,
    _times,
    as_monomial,
    length_start,
    poch_infinite,
    sum_exact,
    sum_numeric,
    vwp_factor,
)
from .series import _QM_ONE, _QM_ZERO, LaurentSeries, QMonomial

_ONE = Fraction(1)
_D_ONE = Decimal(1)
_ONES = repeat(_D_ONE)
#: a numeric value below this in size is zero to the digits a verdict
#: reads: a lower product of `_quotient_steps` that small is a pole, and
#: `NumericCtx.poch_inf` is within this relative error of its product
_EPS = Decimal(f"1e-{NUMERIC_PRECISION - 4}")
#: where `NumericCtx.poch_inf` cuts Euler's series
_EULER_CUT = decimal.Context().divide(_EPS, 4)


class _Product:
    """mono * parts[0] * parts[1] * ... * binoms, not yet multiplied out.

    `mono` is a nonzero QMonomial, `parts` a tuple of series (the dense
    part) and `binoms` a tuple of integer binomials (p, r, e, invert),
    e > 0, each the factor (1 + (p/r) t^e)^(-1 if invert else +1), the
    shape of `qfunc._binomials`. `order` is set when the product holds
    a binomial factor (an infinite product, its inverse, c + m or a
    very-well-poised ratio; `binoms` may then still be empty, for one
    whose binomials all lie past the window, or for c + m at exponent
    0), else None and `parts` is not empty: the least order to which
    those factors are known as valuation-0 windows, the construction
    order N or, for c + m at exponent e < 0, N - e. So the product of
    the dense part D with them is known to min(order of D, `order` +
    valuation of D): `LaurentSeries.mul`'s order rule, folded over those
    windows."""

    __slots__ = ("mono", "parts", "binoms", "order")

    def __init__(self, mono: QMonomial, parts: tuple, binoms: tuple = (),
                 order: Optional[int] = None):
        self.mono = mono
        self.parts = parts
        self.binoms = binoms
        self.order = order

    def _known(self, low: int) -> int:
        """The order to which the binomials' windows times a dense part of
        valuation `low` are known (`LaurentSeries.mul`'s order rule)."""
        return self.order + low

    def at(self, goal: Optional[int] = None) -> LaurentSeries:
        """The product truncated at `goal`, or in full when `goal` is None,
        multiplying only the window the goal needs (see the module
        docstring). A goal above the product's order raises
        OrderInsufficient, as truncating the full product does, before
        anything is multiplied."""
        e = self.mono.exp
        # the order and the valuation of the dense part (past its order
        # when it is zero): `mul`'s order rule folded over the parts
        order, low, zero = inf, 0, False
        for s in self.parts:
            order = min(order + s.eff_min_deg(), s.eff_order() + low)
            zero = zero or s.is_zero or low + s.min_deg > order
            low = order + 1 if zero else low + s.min_deg
        if self.order is not None and not zero:
            order = min(order, self._known(low))
        order += e
        if goal is None:
            goal = None if order == inf else order
        elif goal > order:
            raise OrderInsufficient(
                f"cannot extend order {order} to {goal}", goal - order)
        if zero or goal is not None and low + e > goal:
            return LaurentSeries.zero(goal)
        cap = None if goal is None else goal - e
        out = LaurentSeries.product_at(self.parts, cap) if self.parts \
            else LaurentSeries.one(cap)
        if self.order is not None:
            out = _times(out, self.binoms, cap)
        if not self.mono.is_one:
            out = out.scale(self.mono.coef, e)
        return out


def _force(v):
    return v.at() if isinstance(v, _Product) else v


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
        """q^e for rational e; e*denom must be integral. An int e (every
        per-term power of a quadratic-power sum) takes no Fraction."""
        if type(e) is int:
            return QMonomial(_ONE, e * self.denom)
        te = Fraction(e) * self.denom
        if te.denominator != 1:
            raise ValueError(f"exponent {e} not representable at denom "
                             f"{self.denom}")
        return QMonomial.of(1, int(te))

    # -- arithmetic ------------------------------------------------------

    def mul(self, *vals):
        """The product of the values: a monomial if no series or binomial
        is involved, else a series or an unmultiplied product (see the
        module docstring)."""
        num, den, exp = 1, 1, 0      # the monomial (num/den) t^exp
        parts, binoms = [], []
        order = None                 # N, once a binomial factor is involved
        for v in vals:
            if isinstance(v, (Fraction, int)):
                c = v
            else:
                if isinstance(v, _Product):
                    parts.extend(v.parts)
                    if v.order is not None:
                        binoms.extend(v.binoms)
                        order = v.order if order is None \
                            else min(order, v.order)
                    v = v.mono
                elif not isinstance(v, QMonomial):
                    parts.append(v)
                    continue
                c = v.coef
                exp += v.exp
            if c != 1:
                num *= c.numerator
                den *= c.denominator
        if not num:
            return _QM_ZERO if not parts and order is None \
                else LaurentSeries.zero(self.order)
        if num == den:
            mono = QMonomial(_ONE, exp) if exp else _QM_ONE
        else:
            mono = QMonomial(Fraction(num, den), exp)
        if order is None:
            if not parts:
                return mono
            if len(parts) == 1 and mono is _QM_ONE:
                return parts[0]
        return _Product(mono, tuple(parts), tuple(binoms), order)

    def _binomial_product(self, factors):
        """The product of the integer binomials (p, r, e, invert), e >= 0,
        of `qfunc.poch_infinite` or `qfunc.vwp_factor`, unmultiplied: a
        constant factor (e = 0) folds into the monomial, the others stay
        binomials. A vanishing constant factor makes it the exact zero
        (`_QM_ZERO`): (1; q)_inf is 0, and `inv` of it raises
        DegenerateDenominator, as the numeric context's does."""
        num = den = 1
        rest = []
        for f in factors:
            p, r, e, invert = f
            if e:
                rest.append(f)
            elif invert:
                num, den = num * r, den * (r + p)
            elif p == -r:
                return _QM_ZERO
            else:
                num, den = num * (r + p), den * r
        return _Product(QMonomial.of(Fraction(num, den)), (), tuple(rest),
                        self.order)

    def add(self, u, v):
        if _is_zero(u) or _is_zero(v):
            return v if _is_zero(u) else u
        c, m = (u, v) if isinstance(v, QMonomial) else (v, u)
        if isinstance(m, QMonomial) and isinstance(c, (Fraction, int)):
            # c + m, m = c' t^e, as a window known to the construction
            # order N: the monomial of lower exponent times at most one
            # binomial
            e = m.exp
            if not e:
                c += m.coef
                return _Product(QMonomial.of(c), (), (), self.order) \
                    if c else LaurentSeries.zero(self.order)
            lead, x = (QMonomial.of(c), m.coef / c) if e > 0 else \
                (m, c / m.coef)
            return _Product(lead, (), (
                (x.numerator, x.denominator, abs(e), False),),
                self.order - min(e, 0))
        return LaurentSeries.coerce(_force(u), self.order) + \
            LaurentSeries.coerce(_force(v), self.order)

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def neg(self, v):
        return -Fraction(v) if isinstance(v, int) else -_force(v)

    def inv(self, v):
        if isinstance(v, _Product) and v.order is not None and \
                not v.parts and v.mono.exp >= 0:
            # every binomial flips; the windows' order rule is unchanged,
            # capped where `LaurentSeries.invert` at the construction
            # order caps the inverse of the forced product
            return _Product(_QM_ONE / v.mono, (), tuple(
                (p, r, e, not invert) for p, r, e, invert in v.binoms),
                min(v.order, self.order + v.mono.exp))
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

    @staticmethod
    def monomial(v) -> QMonomial:
        """v as c*t^e; TypeError if it is not monomial-like."""
        m = as_monomial(_force(v))
        if m is None:
            raise TypeError("expected a monomial-like value")
        return m

    def _factor(self, a, base, invert: bool, k: int = 1, l: int = 0):
        return self.monomial(a), self.monomial(base), invert, k, l

    def poch(self, a, base, n: int):
        return self.quotient([(a, base)], ())(n)

    def inv_poch(self, a, base, n: int):
        return self.quotient((), [(a, base)])(n)

    def quotient(self, ups, downs, s=None):
        """(n, *more) -> s^n prod (u; p_u)_(k n + l) / prod (d; p_d)_(k n + l)
        over the (argument, base) pairs, of length n, or the (argument,
        base, k, l) entries `ups` and `downs`, times the term's other
        factors `more`: Q(n) of the quotient's one PochTower, which steps
        every length by the term ratio, the monomial s^n (1 when s is
        None) and `more` in one `mul`. While Q holds no binomial (the
        empty product, or every argument zero) it adds no series part. A
        length below 0 raises ValueError."""
        factors = tuple(self._factor(a, p, invert, *kl)
                        for entries, invert in ((ups, False), (downs, True))
                        for a, p, *kl in entries)
        tower, one = None, _ONE
        if factors:
            tower = self._towers.get(factors)
            if tower is None:
                tower = self._towers[factors] = \
                    PochTower.of(factors, self.order)
            one = tower.one

        def at(n, *more):
            q = one if tower is None else tower.upto(n)
            return self.mul(*(() if q is one else (q,)),
                            *(() if s is None else (self.pow_int(s, n),)),
                            *more)

        return at

    def poch_inf(self, a, base):
        return self._binomial_product(poch_infinite(
            as_monomial(_force(a)), as_monomial(_force(base)), self.order,
            factors=True))

    def vwp(self, k, n: int, base: Optional[QMonomial] = None):
        k = _force(k)
        km = as_monomial(k)
        if km is not None and not km.is_one and (n == 0 or km.is_zero):
            return _ONE
        base = self.q if base is None else _force(base)
        if km is not None and km.exp >= 0 and base.exp >= 0:
            return self._binomial_product(
                vwp_factor(k, n, base=base, factors=True))
        return vwp_factor(k, n, self.order, base)

    def summation(self, term, start: int = 0, times=1):
        """`times` times the sum of the terms term(n) for n >= `start`.
        The sum is taken exactly to the comparison target, or deeper by
        the negative q-power of `times` (of its monomial part, when it is
        an unmultiplied product) as far as the construction order allows
        (a term left short raises OrderInsufficient; see `exact_run`).

        `term` is a declared summand (`bailey.Summand`), never a bare
        callable: its `ValuationLaw` is the stopping certificate, read at
        each term's own n (`sum_exact` from `start`). The sum takes the
        terms while the law's bound is at most the goal and no more, since
        every later term is zero through it; a law that never passes the
        goal raises ValuationStall before the first term, and a term below
        its bound BoundViolation."""
        growth = _declared(term).law().growth()
        m = times.mono if isinstance(times, _Product) else as_monomial(times)
        goal = min(self.order,
                   self.target + max(0, 0 if m is None else -m.exp))

        def gen(n: int) -> LaurentSeries:
            t = term(n)
            if isinstance(t, _Product):
                return t.at(goal)
            if not isinstance(t, LaurentSeries):
                t = LaurentSeries.coerce(t, goal)
            return t.truncate(goal)

        return self.mul(times, sum_exact(TermGenerator(gen, growth), goal,
                                         start))

    def finalize(self, v) -> LaurentSeries:
        return LaurentSeries.coerce(_force(v), self.order)


def _declared(term):
    """`term` if it is a declared summand (it has a `law`); TypeError for
    a bare callable."""
    if not callable(getattr(term, "law", None)):
        raise TypeError("summation needs a declared summand "
                        "(bailey.Summand), not a bare callable")
    return term


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


def _runs(factors, n0: int, dc: decimal.Context):
    """The product of the first k n0 + l factors of each (argument, base,
    k, l) entry or (argument, base) pair, and the running powers and
    bases of the k runs each that step it (see `_quotient_steps`)."""
    mul, sub = dc.multiply, dc.subtract
    prod, args, bases = _D_ONE, [], []
    for u, p, *kl in factors:
        k, l = kl or (1, 0)
        for _ in range(k * n0 + l):
            prod = mul(prod, sub(_D_ONE, u))
            u = mul(u, p)
        if k:
            bases += [p if k == 1 else dc.power(p, k)] * k
        for _ in range(k):
            args.append(u)
            u = mul(u, p)
    return prod, args, bases


def _quotient_steps(ups, downs, s, n0: int, dc: decimal.Context):
    """Q(n0), Q(n0 + 1), ... of n -> s^n prod (u; p_u)_(k n + l) /
    prod (d; p_d)_(k n + l) in the decimal context `dc`, over (argument,
    base) pairs, of length n, or (argument, base, k, l) entries, by its
    term ratio (Gasper & Rahman, section 1.2):

        Q(j+1) = Q(j) * s * prod (1 - u p_u^(k j + l + i))
                 / prod (1 - d p_d^(k j + l + i))   over i < k.

    n0 is the least n >= 0 at which every length is >= 0
    (`qfunc.length_start`), Q(n0) holding each factor's first k n0 + l
    factors. A factor steps as k runs of base p^k from u p^(k n0 + l + i),
    each a running power, so one more step costs three operations per run
    and one division (never a power); a pair of length n is one run, of
    base p from u. Q(j) is multiplied by s and by each upper run in turn
    and divided by the product of the lower ones, so a side without runs
    costs nothing: no multiplication by 1, no division by 1
    (`NumericCtx.poch` is the run of one upper factor: a subtraction and
    two multiplications a step; `inv_poch` the run of one lower factor). A
    lower product, of the first k n0 + l factors or of one step's, within
    `_EPS` of zero raises DegenerateDenominator (and `qfunc.Stepped`
    replays it for every n > j): a lower parameter on a pole, such as
    q^-2 at q = 1/7, leaves 1 - q^-2 q^2 at the rounding error, not 0.
    Once an upper factor (or s) vanishes, Q stays 0. It holds no
    reference to its context."""
    mul, sub, div = dc.multiply, dc.subtract, dc.divide
    last, ups, up_bases = _runs(ups, n0, dc)
    den, downs, down_bases = _runs(downs, n0, dc)
    if den.copy_abs() < _EPS:
        raise DegenerateDenominator("vanishing Pochhammer denominator")
    last = div(last if s is None or not n0 else mul(last, dc.power(s, n0)),
               den)
    while True:
        yield last
        if downs:
            den = reduce(mul, map(sub, _ONES, downs))
            if den.copy_abs() < _EPS:
                raise DegenerateDenominator(
                    "vanishing Pochhammer denominator")
            downs = list(map(mul, downs, down_bases))
        if last:
            last = reduce(mul, map(sub, _ONES, ups),
                          last if s is None else mul(last, s))
            if downs:
                last = div(last, den)
        if ups:
            ups = list(map(mul, ups, up_bases))


def _euler(f: Decimal, base: Decimal, dc: decimal.Context) -> Decimal:
    """(f; base)_inf for |f| <= (1 - |base|)/2 by Euler's series (Gasper &
    Rahman, eq. 1.3.16), in `dc`:

        (f; b)_inf = sum over n of (-f)^n b^(n(n-1)/2) / (b; b)_n,

    stepped by t(n+1) = t(n) f b^n / (b^(n+1) - 1). Each step at least
    halves the term (|f b^n| <= (1 - |b|)/2 and |b^(n+1) - 1| >= 1 - |b|),
    so no digits cancel, and the series converges quadratically. It stops
    at the first term below `_EPS`/4, so the terms left out sum to below
    `_EPS`/2. The product is at least 1/2, since prod (1 - x_j) >= 1 -
    sum x_j and sum |f b^j| <= 1/2, so the cut is a relative error below
    `_EPS`."""
    mul, sub, div, add = dc.multiply, dc.subtract, dc.divide, dc.add
    total, t, power = _D_ONE, _D_ONE, base      # power = base^(n+1)
    while True:
        t = div(mul(t, f), sub(power, _D_ONE))
        if t.copy_abs() < _EULER_CUT:
            return total
        total = add(total, t)
        f, power = mul(f, base), mul(power, base)


class NumericCtx:
    """Numeric strategy: decimals at a rational q, in a decimal context of
    its own.

    `q_unit` is the d-th root of q as an exact rational; every q-power in
    a builder is an integer power of it. All arithmetic, the sums
    included, runs in `self.dc`, one `decimal.Context` at
    NUMERIC_PRECISION + 10 (74) digits, never in the thread's ambient
    context: a verdict does not depend on the caller's decimal settings or
    thread. Sums and `verify_one` use `tol` = NUMERIC_TOL. An infinite
    product (`poch_inf`) is within a relative 10^-60 (`_EPS`) of its
    value: the factors that can vanish one at a time, the rest by Euler's
    series (`_euler`).

    Memoized per context, since the values depend on q and the precision
    and a context lives for one build:
      * `num`: each distinct rational, converted to a Decimal once;
      * `quotient`, and `poch` and `inv_poch` as its one-factor lookups:
        for each distinct tuple of factors and s, as given, the one run
        (`_run`) that steps it by the term ratio (`_quotient_steps`) and
        keeps every value it reaches (`qfunc.Stepped`), as ExactCtx keeps
        one `PochTower`.
        Every summand and every term of `wp_beta_sum` that asks for
        equal arguments reads the same run.
    A q-power is not memoized: most are asked for once per context. A
    builder that passes the same Decimal object again (a loop-invariant
    argument built once, a memoized rational) also reuses its cached
    hash: a fresh long Decimal costs far more to hash than the lookup it
    keys.
    """

    def __init__(self, q_unit: Fraction, denom: int = 1):
        self.denom = denom
        self.dc = dc = decimal.Context(prec=NUMERIC_PRECISION + 10)
        self._mul, self._sub = dc.multiply, dc.subtract
        self.tol = NUMERIC_TOL
        self._nums: Dict = {}
        self._runs: Dict = {}
        self.q_unit = self.num(q_unit)
        self.q = dc.power(self.q_unit, denom)

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
        te = e * self.denom if type(e) is int else Fraction(e) * self.denom
        if te.denominator != 1:
            raise ValueError(f"exponent {e} not representable at denom "
                             f"{self.denom}")
        return self.dc.power(self.q_unit, int(te))

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
        # v^0 is 1 for every v, as under ExactCtx; decimal's power
        # rejects 0^0
        return self.dc.power(self.num(v), k) if k else _D_ONE

    def poch(self, a, base, n: int) -> Decimal:
        return self._run(((a, base),), (), None)(n)

    def inv_poch(self, a, base, n: int) -> Decimal:
        return self._run((), ((a, base),), None)(n)

    def _run(self, ups: tuple, downs: tuple, s):
        """The lookup of the context's one run for these factors and s, a
        `Stepped` over `_quotient_steps`, keyed by the arguments as given,
        so that a lookup converts nothing. The run holds no reference to
        the context, so a context is freed without the cycle collector."""
        key = (ups, downs, s)
        at = self._runs.get(key)
        if at is None:
            num = self.num
            ups = [(num(u), num(p), *kl) for u, p, *kl in ups]
            downs = [(num(d), num(p), *kl) for d, p, *kl in downs]
            n0 = length_start(f[2:] or (1, 0) for f in (*ups, *downs))
            at = self._runs[key] = Stepped(n0, _quotient_steps(
                ups, downs, None if s is None else num(s), n0, self.dc)).at
        return at

    def quotient(self, ups, downs, s=None):
        """(n, *more) -> s^n prod (u; p_u)_(k n + l) / prod (d; p_d)_(k n + l)
        over the (argument, base) pairs, of length n, or the (argument,
        base, k, l) entries `ups` and `downs`, times the term's other
        factors `more`: a lookup in the context's one run for these
        factors and s, which steps every length at once (s^n alone
        when there is no factor). A length below 0 raises ValueError."""
        mul = self.mul
        if not (ups or downs):
            # s^n alone reads no run, as ExactCtx reads no tower: one
            # step of a run costs more than the power
            return lambda n, *more: mul(
                *(() if s is None else (self.pow_int(s, n),)), *more)
        at = self._run(tuple(ups), tuple(downs), s)
        return lambda n, *more: mul(at(n), *more) if more else at(n)

    def poch_inf(self, a, base) -> Decimal:
        """(a; base)_inf for |base| < 1, within a relative error below
        `_EPS` (10^-60) of the exact product, plus the rounding of its
        74-digit operations (NonTruncatable for |base| >= 1).

        The factors 1 - a base^j with |a base^j| > theta = (1 - |base|)/2
        are multiplied one at a time: they are the ones that can vanish,
        so a pole keeps its exact 0. The rest, (f; base)_inf with |f| <=
        theta, is Euler's series (`_euler`), cut at a relative error below
        `_EPS`."""
        a, base = self.num(a), self.num(base)
        b = base.copy_abs()
        if b >= 1:
            raise NonTruncatable("numeric infinite product needs |base| < 1")
        mul, sub = self._mul, self._sub
        theta = self.dc.divide(sub(_D_ONE, b), 2)
        out, f = _D_ONE, a
        for _ in range(100_000):
            if f.copy_abs() <= theta:
                return mul(out, _euler(f, base, self.dc))
            out = mul(out, sub(_D_ONE, f))
            f = mul(f, base)
        raise NonTruncatable("infinite product failed to settle")

    def vwp(self, k, n: int, base=None) -> Decimal:
        k = self.num(k)
        base = self.q if base is None else self.num(base)
        if k == 1:
            raise DegenerateVWP("very-well-poised factor with k = 1")
        top = self._sub(_D_ONE, self._mul(k, self.dc.power(base, 2 * n)))
        return self.dc.divide(top, self._sub(_D_ONE, k))

    def summation(self, term, start: int = 0, times=1):
        """`times` times the sum of the terms term(n) for n >= `start`,
        taken in `self.dc`. `term` is a declared summand, as under
        ExactCtx, so its values are already this context's decimals; its
        `Envelope` is the stopping certificate, read at each term's own n
        (`qfunc.sum_numeric` from `start`): the sum stops where the bound
        on all later terms, times |`times`| when that exceeds 1, is within
        tol/100, where the envelope's limit-ratio certificate
        (`qfunc.Ratio`) bounds the distance from the geometric tail it
        adds within the same budget, or at the declared support. An
        envelope that never falls below 1 raises TailNotDecreasing before
        the first term, and one where an opaque factor declares neither a
        bound nor a support and no other part of the term declares a
        support raises UndeclaredBound. A builder passes every
        factor that multiplies the sum as `times`, so that the product,
        not only the sum, is within tol/100 of its value."""
        env = _declared(term).envelope()
        if env is NO_BOUND:
            raise UndeclaredBound("opaque factor without a magnitude bound")
        times = self.num(times)
        scale = max(_D_ONE, times.copy_abs())
        return self.mul(times, sum_numeric(
            NumericTermGenerator(term, env),
            self.dc.divide(self.tol, scale), self.dc, start))

    def finalize(self, v) -> Decimal:
        return self.num(v)


Ctx = Union[ExactCtx, NumericCtx]
