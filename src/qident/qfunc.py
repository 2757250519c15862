"""q-Pochhammer symbols, the very-well-poised factor, and the generic
summation engines. The basic hypergeometric series itself is written over
`Ctx` in `bailey` (`phi_term`, summed by either context's `summation`).

An exact sum stops on a certificate, not on a guess. The term ratio of a
basic hypergeometric series is rational in q^n (Gasper & Rahman, section
1.2), so the valuation of its n-th term is at least a quadratic plus a
few kinks, min(0, k n + l), less the dips of its upper Pochhammers: a
`ValuationLaw` (`poch_law` gives a Pochhammer's part). Its least value
over all m >= n has a closed form, and `sum_exact` takes the terms while
that bound is at most the goal and no more. A declared summand
(`bailey.Summand`) supplies the law; the undeclared path of `sum_exact`
(a run of high terms ends the sum) is kept only for bare generators.

A numeric sum stops on a certificate too. If |t(m+1)/t(m)| <= g < 1 for
every m >= n, the tail after n is at most |t(n)| g/(1 - g). A declared
summand gives an `Envelope`: at each n a pair (M, g) with |t(m)| <=
M g^(m - n) for every m >= n, computed from its declared term ratio in
decimal contexts that round the upper bounds up and the lower bounds
down (`BOUND_UP`, `BOUND_DOWN`). `sum_numeric` stops after the first term
whose certified tail (`tail_after`) is within tol/100, or at a declared
support.

Where the term ratio tends to a constant s with |s| < 1, the envelope
also carries a limit-ratio certificate (`Ratio`): s, the first- and
second-order parts Lambda_K(n) and Lambda2_K(n) of log(t(n+K)/(s^K
t(n))), one signed entry per base, and bounds D(n) on the sum over m >=
n of |log(t(m+1)/(s t(m)))|, E(n) on what Lambda leaves out and E3(n) on
what Lambda + Lambda2 leave out, one magnitude entry per |base|. The
tail after n is then t(n) times the sum over K >= 1 of s^K (1 + Lambda_K
+ Lambda2_K + Lambda_K^2/2), in closed form, within |t(n)| |s|/(1 - |s|)
(D^3/(6(1 - D)) + D E + E3), and `sum_numeric` stops at the first term
where that is within tol/100, adding the third-order tail: after about
log(tol)/log|s q^3| terms rather than log(tol)/log|s| (compare
Johansson, "Computing hypergeometric functions rigorously", ACM TOMS
2019). A term with a declared linear factor P(n) = c0 + c1 n is P u,
with s, the Lambdas, D, E and E3 those of u; its tail carries P, u(n)
times the sum over K of P(n + K) s^K (1 + Lambda_K + ...).

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
import operator
from copy import copy
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import islice, takewhile
from math import ceil, gcd, inf, lcm
from typing import Callable, NamedTuple, Optional, Tuple, Union

from .errors import (
    BoundViolation,
    DegenerateDenominator,
    DegenerateVWP,
    NonTruncatable,
    OrderInsufficient,
    TailNotDecreasing,
    ValuationStall,
)
from .series import LaurentSeries, QMonomial, Rational

Value = Union[LaurentSeries, QMonomial, Rational, int]

#: the undeclared path of `sum_exact`: consecutive terms failing to raise
#: the valuation floor before the specialization is declared inadmissible
STALL_WINDOW = 200

#: the undeclared path of `sum_exact`: consecutive terms above the working
#: order that end the sum (a guess; a declared bound is a proof)
_STOP_RUN = 8

#: numeric defaults
NUMERIC_PRECISION = 64
NUMERIC_TOL = Decimal("1e-30")
#: terms a numeric sum may take before an envelope that never certifies
#: its tail is reported (TailNotDecreasing); it ends no sum
_NUMERIC_TERM_BUDGET = 10_000

#: the arithmetic of numeric envelopes: upper bounds round up, the lower
#: bounds 1 - x round down, at a precision far above what a tail bound
#: needs. Every build shares them: only their precision, rounding and
#: traps are read, never the flags their operations set
BOUND_PRECISION = 24
BOUND_UP = decimal.Context(prec=BOUND_PRECISION,
                           rounding=decimal.ROUND_CEILING)
BOUND_DOWN = decimal.Context(prec=BOUND_PRECISION,
                             rounding=decimal.ROUND_FLOOR)
_D_ZERO = Decimal(0)
_D_ONE = Decimal(1)
#: the relative slack on a bound built from computed values: it covers
#: their rounding, and that of `BOUND_UP.power`
BOUND_SLACK = _D_ONE + Decimal(10) ** (4 - BOUND_PRECISION)
#: the least relative error a `Ratio` claims for its geometric tail: it
#: covers the rounding of the terms themselves, which a numeric context
#: computes to NUMERIC_PRECISION digits or more, and that of the tail the
#: stop adds, whose signed entries each sum their base's factors in the
#: context's digits
_TAIL_FLOOR = Decimal(10) ** (4 - NUMERIC_PRECISION)
#: the term, counted from the sum's start, at which `sum_numeric` builds
#: an envelope's `Ratio`: a shorter sum never pays for it
_RATIO_FROM = 8


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


def _binomials(a: QMonomial, base: QMonomial, invert: bool = False):
    """The factors 1 - a base^j of (a; base)_inf for j = 0, 1, 2, ...,
    each as the integers (p, r, e, invert) of 1 + (p/r) q^e, the shape
    `LaurentSeries.mul_binomials` takes, with p/r reduced and r > 0. The
    coefficient steps by integer products and one gcd, none on a base
    whose coefficient is 1."""
    c, b = a.coef, base.coef
    p, r, e = -c.numerator, c.denominator, a.exp
    bp, br, be = b.numerator, b.denominator, base.exp
    unit = bp == br == 1
    while True:
        yield p, r, e, invert
        if not unit:
            p, r = p * bp, r * br
            g = gcd(p, r)
            if g != 1:
                p, r = p // g, r // g
        e += be


def _times(s: LaurentSeries, factors,
           order: Optional[int] = None) -> LaurentSeries:
    """s times the integer factors (p, r, e, invert) of `_binomials`.
    Those with e > 0 go through one `mul_binomials` pass, capped at
    `order`; the rest (a Laurent dip, a constant factor) through
    `mul_binomial`/`div_binomial` one at a time. The factors commute, and
    each route keeps exactly the coefficients its order guarantees, so
    the order of application does not change the result."""
    step = []
    for f in factors:
        p, r, e, invert = f
        if e > 0:
            step.append(f)
        elif invert:
            s = s.div_binomial(Fraction(p, r), e)
        else:
            s = s.mul_binomial(Fraction(p, r), e)
    return s.mul_binomials(step, order)


def poch_infinite(a: Value, base: QMonomial, order: int,
                  factors: bool = False):
    """(a; base)_inf truncated exactly at `order`.

    Only the finitely many factors 1 - a base^j that touch the window
    matter: those of exponent at most `order`, each as the integers
    (p, r, e, False) of `_binomials`. They are applied to 1 in one integer
    pass (`_times`); with `factors` the list itself is returned instead,
    for a caller that keeps them unmultiplied (`context.ExactCtx`), and
    the window is `_times(LaurentSeries.one(order), list)`. The first
    factor has e = 0 when the argument exponent is 0: a constant, zero
    at a = 1. The product needs base.exp >= 1 and the argument exponent
    >= 0, otherwise the specialization is not truncatable and
    NonTruncatable is raised. A zero argument gives no factor: the
    product is 1.
    """
    mono = as_monomial(a)
    if mono is None:
        raise NonTruncatable("infinite product needs a monomial argument")
    if base.exp < 1:
        raise NonTruncatable("infinite product base must have exponent >= 1")
    if mono.exp < 0 and not mono.is_zero:
        raise NonTruncatable("infinite product argument has negative exponent")
    touching = [] if mono.is_zero else \
        list(takewhile(lambda f: f[2] <= order, _binomials(mono, base)))
    return touching if factors else _times(LaurentSeries.one(order), touching)


def length_start(lengths) -> int:
    """The least n >= 0 at which every length k n + l of the (k, l) pairs
    is >= 0. ValueError for a k < 0, or a length l < 0 that never grows
    (k = 0)."""
    n0 = 0
    for k, l in lengths:
        if k < 0 or not k and l < 0:
            raise ValueError(f"Pochhammer length {k} n + {l} needs k >= 0, "
                             f"and l >= 0 when k = 0")
        if k:
            n0 = max(n0, -(l // k))
    return n0


class Stepped:
    """v(n0), v(n0 + 1), ... of the generator `steps`, pulled one `next`
    at a time and kept, so that lookups (`at`) may come in any order and
    each value is computed once. A lookup below n0 raises ValueError, as
    a Pochhammer of negative length does. Once the generator raises,
    every lookup past the values it reached raises that error again: a
    fresh copy each time, of the same type, args and attributes, so that
    no traceback grows and the run keeps no frame alive.
    `PochTower` and `context.NumericCtx`'s quotient runs are the two
    engines behind it."""

    __slots__ = ("n0", "_vals", "_steps", "_error")

    def __init__(self, n0: int, steps):
        self.n0 = n0
        self._vals = []
        self._steps = steps
        self._error = None          # a traceback-free copy of its error

    def at(self, n: int):
        vals = self._vals
        i = n - self.n0
        if 0 <= i < len(vals):
            return vals[i]
        if i < 0:
            raise ValueError(f"Pochhammer length must be >= 0 (n = {n} is "
                             f"below {self.n0})")
        if self._error is None:
            try:
                while len(vals) <= i:
                    vals.append(next(self._steps))
                return vals[i]
            except Exception as ex:
                self._error = copy(ex)
                raise
        raise copy(self._error)


class PochTower(Stepped):
    """Q(n) = prod (a; base)_(k n + l) over (argument, base, invert, k, l)
    factors, with 1/(a; base)_(k n + l) for an inverted one, for n = n0,
    n0 + 1, ... at a fixed order: n0 is the least n >= 0 at which every
    length k n + l is >= 0 (`length_start`), and a lookup below it raises
    ValueError, as a Pochhammer of negative length does. A factor
    given as (argument, base, invert) has length n (k = 1, l = 0).
    `PochTower(a, base, order, invert)` is one such factor, and
    `PochTower.of(factors, order)` any number: a Pochhammer quotient is
    its upper factors and its inverted lower ones, whatever their
    lengths.

    The tower steps by its term ratio (Gasper & Rahman, section 1.2),

        Q(m+1) = Q(m) * prod over i < k of (1 - a base^(k m + l + i))^(+-1),

    and keeps Q(n0..n) (`Stepped`), so lookups may come in any order and
    a sum over n reuses every shorter product. Each factor is one
    `_binomials` stream, read in order: its first k n0 + l binomials make
    Q(n0), and each step takes its next k, a reduced integer pair p/r and
    an exponent e each, stepped without a Fraction. While Q holds no
    binomial it is `one`, the unit window, itself. A zero argument is the
    factor 1. One step is one integer pass over the window for all the
    binomials with e > 0 (`LaurentSeries.mul_binomials`, one gcd per
    step, each binomial O(width)); one with e <= 0 (a Laurent dip, a
    constant base, a vanishing upper factor) is applied on its own in the
    same step (see `_times`).

    Q(n) carries the order of the product of one-factor towers, each
    looked up at its own length, under `LaurentSeries.mul`'s order rule.
    A factor on a negative power shifts the known order by its dip, which
    the caller's working order must cover (see `context.exact_run`). A
    zero Q gains order + 1 for each vanished factor past the first, as a
    product of zero series does. A vanishing inverted factor raises
    DegenerateDenominator for every n past it; a factor that is not
    inverted and has a negative-exponent argument on a constant base
    raises NonTruncatable for every n at which it holds a binomial.
    """

    def __init__(self, a: Value, base: Value, order: int,
                 invert: bool = False):
        self._start([(a, base, invert)], order)

    @classmethod
    def of(cls, factors, order: int) -> "PochTower":
        tower = cls.__new__(cls)
        tower._start(factors, order)
        return tower

    def _start(self, factors, order: int) -> None:
        self.order = order
        self.one = LaurentSeries.one(order)
        factors = [(a, base, invert, *(kl or (1, 0)))
                   for a, base, invert, *kl in factors]
        n0 = length_start([f[3:] for f in factors])
        self._flat = inf                # the least n that is NonTruncatable
        # (enumerated binomials, argument, base, k, l) of each nonzero
        # argument
        streams = []
        for a, base, invert, k, l in factors:
            am, bm = as_monomial(a), as_monomial(base)
            if am is None or bm is None:
                raise TypeError("PochTower requires monomial-like arguments")
            if am.is_zero:
                continue
            m0 = k * n0 + l
            if not invert and am.exp < 0 and bm.exp == 0 and (m0 or k):
                # it holds a binomial from n0 on, or from n0 + 1
                self._flat = min(self._flat, n0 if m0 else n0 + 1)
            streams.append(
                (enumerate(_binomials(am, bm, invert)), am, bm, k, l))
        super().__init__(n0, _tower_steps(streams, self.one, n0))

    def upto(self, n: int) -> LaurentSeries:
        if n >= self._flat:
            raise NonTruncatable(
                "constant base with negative-exponent argument")
        return self.at(n)


def _tower_steps(streams, one: LaurentSeries, n0: int):
    """Q(n0), Q(n0 + 1), ... of a `PochTower` whose factors are `streams`,
    (binomials, argument, base, k, l) each, the binomials enumerated from
    j = 0: Q(n) is `one` times each factor's binomials j < k n + l. A
    vanishing inverted binomial raises DegenerateDenominator, and a
    vanishing upper one marks its factor. It holds no reference to its
    tower."""
    vanished = set()                # factors that made Q zero
    cur = one
    takes = [k * n0 + l for _, _, _, k, l in streams]   # Q(n0)'s binomials
    ks = [k for _, _, _, k, _ in streams]               # each step's
    while True:
        step = []
        for f, (stream, a, base, _, _) in enumerate(streams):
            for j, x in islice(stream, takes[f]):
                p, r, e, invert = x
                if e == 0 and p == -r:
                    if invert:
                        raise DegenerateDenominator(
                            f"factor (1 - {a}*{base}^{j}) vanishes")
                    vanished.add(f)
                step.append(x)
        cur = _times(cur, step)
        yield cur if len(vanished) < 2 else LaurentSeries.zero(
            cur.order + (len(vanished) - 1) * (one.order + 1))
        takes = ks


def vwp_factor(k: Value, n: int, order: Optional[int] = None,
               base: Optional[QMonomial] = None, factors: bool = False):
    """The very-well-poised ratio (1 - k base^{2n}) / (1 - k).

    Algebraically equal to the four-Pochhammer quotient
    (base*sqrt(k), -base*sqrt(k); base)_n / (sqrt(k), -sqrt(k); base)_n,
    with no square root ever taken. k must be monomial-like; k = 1 is
    degenerate. The ratio is two integer binomials (p, r, e, invert), the
    shape of `_binomials`: 1 - k base^{2n} and the inverted 1 - k. They
    are applied to 1 (`_times`, at `order`); with `factors` the pair
    itself is returned instead, for a caller that keeps them unmultiplied
    (`context.ExactCtx`).
    """
    if base is None:
        base = QMonomial.of(1, 1)
    mono = as_monomial(k)
    if mono is None:
        raise TypeError("vwp_factor needs a monomial-like k")
    if mono.is_one:
        raise DegenerateVWP("very-well-poised factor with k = 1")
    c, b = mono.coef, base.coef ** (2 * n)
    top = (-c.numerator * b.numerator, c.denominator * b.denominator,
           mono.exp + 2 * n * base.exp, False)
    bottom = (-c.numerator, c.denominator, mono.exp, True)
    if factors:
        return [top, bottom]
    return _times(LaurentSeries.one(order), (top, bottom), order)


class ValuationLaw(NamedTuple):
    """A lower bound on the valuation of the n-th term of a sum, in t-units:

        E(n) = a n^2 + b n + c + sum over `kinks` (k, l) of min(0, k n + l),

    for every n, with the terms past `support` (when set) zero. A summand
    declared in `bailey.Summand` adds one law per factor: the q-power and
    s^n give a and b, an upper Pochhammer its dip c (`poch_law`), a head
    1 - w r^n its kink, an opaque factor its floor.

    `growth()` is n -> the least E(m) over m >= n, rounded up, the
    `TermGenerator.valuation_growth` of a sum: past its last kink E is one
    quadratic, nondecreasing from its vertex on, so only the n below both
    need a scan (`_least`).
    """

    a: Rational = 0
    b: Rational = 0
    c: Rational = 0
    kinks: Tuple[Tuple[int, int], ...] = ()
    support: Optional[int] = None

    def __add__(self, other: "ValuationLaw") -> "ValuationLaw":
        tops = [t for t in (self.support, other.support) if t is not None]
        return ValuationLaw(self.a + other.a, self.b + other.b,
                            self.c + other.c, self.kinks + other.kinks,
                            min(tops) if tops else None)

    def _unbounded(self) -> bool:
        """No support, and E fails to rise for ever."""
        slope = self.b + sum(k for k, _ in self.kinks if k < 0)
        return self.support is None and (
            self.a < 0 or not self.a and slope <= 0)

    def _least(self):
        """n -> min over m >= n of d E(m) in integers (n >= 0), None past
        the support; and d. From n0, the last kink or the final piece's
        vertex (capped at the support), E never falls, so the minimum
        there is E(n) itself; below n0 it is a table of suffix minima."""
        a, b, c, kinks, top = self
        d = lcm(*(Fraction(x).denominator for x in (a, b, c)))
        ia, ib, ic = (int(x * d) for x in (a, b, c))

        def scaled(n: int) -> int:
            return (ia * n + ib) * n + ic + d * sum(
                min(0, k * n + l) for k, l in kinks)

        slope = b + sum(k for k, _ in kinks if k < 0)
        n0 = max([ceil(Fraction(-l, k)) for k, l in kinks if k] + [0])
        if a > 0:
            n0 = max(n0, ceil(Fraction(-slope) / (2 * a)))
        elif a < 0 or slope < 0:
            n0 = top                # E falls for ever: the support ends it
        if top is not None:
            n0 = min(n0, top)
        best = [scaled(m) for m in range(n0 + 1)]
        for i in range(n0 - 1, -1, -1):
            best[i] = min(best[i], best[i + 1])

        def least(n: int) -> Optional[int]:
            if top is not None and n > top:
                return None
            return best[n] if n <= n0 else scaled(n)

        return least, d

    def growth(self) -> Callable[[int], float]:
        """n -> ceil(min over m >= n of E(m)), infinite past the support:
        a nondecreasing bound that passes every goal. ValuationStall at
        once if it never does (a < 0, or a = 0 with a final slope <= 0,
        and no support)."""
        if self._unbounded():
            raise ValuationStall("declared summand has no valuation growth")
        least, d = self._least()

        def g(n: int):
            m = least(n)
            return inf if m is None else -(-m // d)

        return g


def poch_law(a: QMonomial, base: QMonomial, k: int = 1,
             l: int = 0) -> ValuationLaw:
    """The valuation law of n -> (a; base)_(k n + l). With base exponent
    b >= 1 it is the dip, the sum of the negative exponents of a base^j,
    and, when the factor 1 - a base^j vanishes, the support (j - l) // k
    (the product is zero once k n + l > j). With b = 0 it is min(0, exp a)
    per factor. A zero argument is the factor 1."""
    e, be = a.exp, base.exp
    if a.is_zero or e > 0 and be > 0:
        return ValuationLaw()
    if not be:
        return ValuationLaw(b=min(0, e) * k, c=min(0, e) * l)
    dip = sum(e + j * be for j in range((-e + be - 1) // be))
    j = -e // be
    support = None
    if k > 0 and -e % be == 0 and a.coef * base.coef ** j == 1:
        support = (j - l) // k
    return ValuationLaw(c=dip, support=support)


@dataclass
class TermGenerator:
    """A summable sequence of series-valued terms.

    `term` must be re-entrant (same n, same value). `valuation_growth`,
    when given, is a nondecreasing lower bound on the valuation of
    term(n) (`ValuationLaw.growth`); it is the whole stopping rule.
    """

    term: Callable[[int], LaurentSeries]
    valuation_growth: Optional[Callable[[int], int]] = None


def sum_exact(gen: TermGenerator, order: int,
              start: int = 0) -> LaurentSeries:
    """Sum term(start), term(start + 1), ... exactly to `order`, each term
    n read as declared: its value term(n) and its bound growth(n).

    With a declared `valuation_growth`, terms are consumed while the bound
    is at most `order` and no further: past that every term is zero
    through `order`, so the sum is proved. A term found below its bound
    raises BoundViolation: the declaration is wrong, and stopping on it
    could drop terms. Without one (a bare generator)
    the sum ends after a run of terms strictly above `order`, which is a
    guess, not a proof; STALL_WINDOW (200) consecutive terms that fail to
    raise the running valuation floor make that path raise
    ValuationStall. No summand of the catalog takes it.

    The sum is one integer window: the numerators of q^lo .. q^order
    over a running common denominator. Each term's numerators are added
    into their slice in one map, scaled by den / term.den; the window is
    rescaled only when a term's denominator does not divide the running
    one, and widened with leading zeros when a term starts below lo. One
    `LaurentSeries._from_ints` canonicalizes it at the end, so the result
    is the left fold of `LaurentSeries.__add__` over the terms without a
    series per term.
    """
    growth = gen.valuation_growth
    low: float = float("-inf")
    stall = 0
    high_run = 0
    n = start
    lo, out, den = order + 1, [], 1
    while True:
        if growth is not None:
            bound = growth(n)
            if bound > order:
                break
        t = gen.term(n)
        if t.eff_order() < order:
            raise OrderInsufficient(
                f"term {n} only known to order {t.order}, need {order}",
                order - t.order)
        nums = t.nums
        if nums and t.min_deg <= order:
            if t.min_deg < lo:
                out[:0] = [0] * (lo - t.min_deg)
                lo = t.min_deg
            f, rest = divmod(den, t.den)
            if rest:
                grow = t.den // gcd(den, t.den)
                out = [grow * c for c in out]
                den *= grow
                f = den // t.den
            # a slice past the goal is clipped, and map stops with it
            off = t.min_deg - lo
            end = off + len(nums)
            out[off:end] = map(operator.add, out[off:end],
                               nums if f == 1 else map(f.__mul__, nums))
        v = t.eff_min_deg()
        n += 1
        if growth is not None:
            if v < bound:
                raise BoundViolation(
                    f"term {n - 1} has valuation {v}, below its declared "
                    f"bound {bound}")
            continue
        if v > low:
            low = v
            stall = 0
        else:
            stall += 1
            if stall >= STALL_WINDOW:
                raise ValuationStall(
                    f"{STALL_WINDOW} consecutive terms without valuation "
                    f"progress (floor {low})")
        if v > order:
            high_run += 1
            if high_run >= _STOP_RUN:
                break
        else:
            high_run = 0
    return LaurentSeries._from_ints(lo, out, den, order)


class Ratio(NamedTuple):
    """A limit-ratio certificate for a numeric sequence t(0), t(1), ...
    with t(n) = P(n) u(n), P(n) = c0 + c1 n the declared linear factor
    `linear` = (c0, c1), a pair of rationals (default (1, 0): P = 1, u =
    t), and `s` the signed limit of u(n+1)/u(n). From n = `start` on, the
    log of u(m+1)/(s u(m)) is a sum of logs of factors (1 - Y)^(+-1) with
    |Y| < 1, and the certificate describes them in two ways, each with
    one entry per base (the term ratio is rational in q^n, Gasper &
    Rahman, section 1.2, so a term's factors mostly share one base).

    `pieces` are the signed entries (w, B, w2), one per base B, 0 < |B| <
    1, of Decimals, whose sums over m = n .. n + K - 1 of the first- and
    second-order parts of the logs (-Y and -Y^2/2 for a factor in the
    numerator, +Y and +Y^2/2 in the denominator) are

        Lambda_K(n)  = sum over the pieces of w B^n (1 - B^K),
        Lambda2_K(n) = sum over the pieces of w2 B^(2n) (1 - B^(2K))

    exactly: w is the sum of c x over the factors on B, each contributing
    c x B^n (1 - B^K), and w2 the sum of their c2 x^2 on B^2. A
    Pochhammer (u; b)_(k n + l) of the term has c = -1/(1 - b) and c2 =
    -1/(2(1 - b^2)), x = u b^l on B = b^k, its factors u b^j met once
    each from j = k n + l on; a lower one c = +1/(1 - b), c2 = +1/(2(1 -
    b^2)); a head 1 - w r^n, whose factors telescope, c = +1, c2 = +1/2,
    x = w on B = r, and an inverse head c = -1, c2 = -1/2.

    `sizes` are the magnitude entries (C, X0, beta), one per beta >= |B|
    (rounded up), with X = X0 beta^n bounding every |Y| on beta and the
    sum of |Y|/(1 - |Y|) over them at most C X/(1 - X). Each factor has
    a magnitude c |x|: c = 1/(1 - |b|), |x| = |u||b|^l on beta = |b|^k for
    a Pochhammer, and c = 2/(1 - |r|), |x| = |w| on |r| for a head, met
    twice, so that the sum of its |Y|/(1 - |Y|) is at most c X'/(1 - X'),
    X' = |x| beta^n. X0 is the largest |x| on beta, and C the sum of
    their c |x|, over X0, rounded up: since X' <= X, each c X'^j/(1 - X')
    is at most (c |x|/X0) X^j/(1 - X). Since |log(1 - Y)| <= |Y|/(1 -
    |Y|), and log(1 - Y) = -Y + rho = -Y - Y^2/2 + rho3 with |rho| <=
    |Y|^2/(2(1 - |Y|)) and |rho3| <= |Y|^3/(3(1 - |Y|)),

        D(n) = sum over the sizes of C X/(1 - X)

    bounds the sum over m >= n of |log(u(m+1)/(s u(m)))|,

        E(n) = sum over the sizes of C X^2/(2(1 - X))

    the sum of |rho| over every factor from n on, and

        E3(n) = sum over the sizes of C X^3/(3(1 - X))

    the sum of |rho3| (`bounds` gives the three, rounded up). s^n and a
    linear power give s alone (`bailey.Summand.envelope`). A certificate
    describes the value's own ratio, not only a bound on it: `constant`
    and `running_sums` past a support have the ratio 1 exactly, and
    `vwp_weight`'s bound is its value.

    Then u(n + K) = u(n) s^K e^L with L = Lambda_K + Lambda2_K + R3, |L|
    <= D, |Lambda_K| <= D, |L - Lambda_K| <= E and |R3| <= E3, so the tail
    after n is u(n) times the sum over K >= 1 of P(n + K) s^K (1 +
    Lambda_K + Lambda2_K + Lambda_K^2/2), in closed form
    (`_geometric_stop`), within `error(t(n), n)`: |u(n)| times the sum
    over K >= 1 of |P(n + K)| |s|^K, times D^3/(6(1 - D)) + D E + E3,
    since |e^L - 1 - L - L^2/2| <= |L|^3 e^|L|/6, e^D <= 1/(1 - D), and
    |L - Lambda_K - Lambda2_K| + |L^2 - Lambda_K^2|/2 <= E3 + D E. It is
    O(D^3), so a sum stops after about log(tol)/log|s q^3| terms, not
    log(tol)/log|s q| (Johansson, "Computing hypergeometric functions
    rigorously", ACM TOMS 2019: a geometric tail with a polynomial
    prefactor). A sum stops on it only where |s| < 1 and P(n) != 0, which
    `_geometric_stop` alone checks: a factor's ratio, such as +-1, only
    enters the certificate of the term it multiplies. A sum from a later
    start reads D, E and E3 at the same n: the certificate is never
    shifted."""

    s: Decimal
    pieces: Tuple[Tuple[Decimal, Decimal, Decimal], ...] = ()
    sizes: Tuple[Tuple[Decimal, Decimal, Decimal], ...] = ()
    start: int = 0
    linear: Tuple[Rational, Rational] = (1, 0)

    def bounds(self, n: int
               ) -> Optional[Tuple[Decimal, Decimal, Decimal]]:
        """(D(n), E(n), E3(n)), each rounded up; None below `start` or
        where some X >= 1."""
        if n < self.start:
            return None
        d = e = e3 = _D_ZERO
        for c, x, b in self.sizes:
            big = BOUND_UP.multiply(x, BOUND_UP.power(b, n))
            low = BOUND_DOWN.subtract(_D_ONE, big)
            if low <= 0:
                return None
            part = BOUND_UP.divide(BOUND_UP.multiply(c, big), low)
            d = BOUND_UP.add(d, part)
            part = BOUND_UP.multiply(part, big)
            e = BOUND_UP.add(e, part)
            e3 = BOUND_UP.add(e3, BOUND_UP.multiply(part, big))
        return (BOUND_UP.multiply(d, BOUND_SLACK),
                BOUND_UP.multiply(BOUND_UP.divide(e, 2), BOUND_SLACK),
                BOUND_UP.multiply(BOUND_UP.divide(e3, 3), BOUND_SLACK))

    def error(self, t: Decimal, n: int) -> Optional[Decimal]:
        """|t| (|s|/(1 - |s|) + |c1| |s|/(|P(n)| (1 - |s|)^2)) (D^3/(6(1 -
        D)) + D E + E3), D = D(n), E = E(n) and E3 = E3(n), the last
        factor never below `_TAIL_FLOOR`, rounded up, for |s| < 1: how far
        the sum of the terms after n lies from the tail above, t the term
        n; None where D(n) is unknown or at least 1, or where P(n) = 0.
        Without a slope (c1 = 0, most sums) it takes no rational
        arithmetic."""
        c0, c1 = self.linear
        p = c0 + c1 * n if c1 else c0
        bounds = self.bounds(n) if p else None
        if bounds is None or bounds[0] >= 1:
            return None
        d, e, e3 = bounds
        s = self.s.copy_abs()
        low = BOUND_DOWN.subtract(_D_ONE, s)
        reach = BOUND_UP.divide(s, low)
        if c1:
            slope = Fraction(abs(c1)) / abs(p)
            reach = BOUND_UP.add(reach, BOUND_UP.divide(BOUND_UP.multiply(
                BOUND_UP.divide(slope.numerator, slope.denominator), reach),
                low))
        cube = BOUND_UP.multiply(BOUND_UP.multiply(d, d), d)
        third = BOUND_UP.add(BOUND_UP.add(e3, BOUND_UP.multiply(d, e)),
                             BOUND_UP.divide(cube, BOUND_DOWN.multiply(
                                 6, BOUND_DOWN.subtract(_D_ONE, d))))
        return BOUND_UP.multiply(BOUND_UP.multiply(t.copy_abs(), reach),
                                 max(third, _TAIL_FLOOR))


class Envelope(NamedTuple):
    """A magnitude certificate for a numeric sequence t(0), t(1), ..., the
    counterpart of `ValuationLaw`: `at(n)` is a pair of Decimals (M, g)
    with

        |t(m)| <= M g^(m - n)   for every m >= n,

    or None where no such pair is known. Every g that `at` gives is at
    least `least` (None: it gives none at all), and past `support`, when
    set, every t(m) is zero. The default `least`, 0, claims nothing. A
    declared summand gives one (`bailey.Summand.envelope`), and so does
    each opaque factor that declares a bound (`bailey.Factor`).

    `ratio`, when set, builds the sequence's limit-ratio certificate
    (a `Ratio`, or None where it has none) when first called: a sum
    calls it only at term start + `_RATIO_FROM`. The certificate
    describes the sequence's own ratio, its signed first- and
    second-order parts included, not only a bound on it, since the sum
    adds the tail it implies. A sequence with a support has none: its
    zero terms have no ratio. A sum from any start reads `at`, `support`
    and the `Ratio` at the sequence's own n."""

    at: Callable[[int], Optional[Tuple[Decimal, Decimal]]]
    least: Optional[Decimal] = _D_ZERO
    support: Optional[int] = None
    ratio: Optional[Callable[[], Optional[Ratio]]] = None


#: the envelope of a sequence that declares no bound and no support, and
#: of every product that holds one and declares no support (see
#: `context.NumericCtx.summation`)
NO_BOUND = Envelope(lambda n: None, None)


def tail_after(bound: Optional[Tuple[Decimal, Decimal]]
               ) -> Optional[Decimal]:
    """The certified tail after n of an envelope's pair (M, g) at n: the
    sum over m > n of M g^(m - n), M g/(1 - g) rounded up; 0 when M is 0,
    and None when g >= 1 or no pair is known."""
    if bound is None:
        return None
    m, g = bound
    if not m:
        return _D_ZERO
    if g >= 1:
        return None
    return BOUND_UP.divide(BOUND_UP.multiply(m, g),
                           BOUND_DOWN.subtract(_D_ONE, g))


@dataclass
class NumericTermGenerator:
    """High-precision numeric counterpart of TermGenerator: the terms and
    their `Envelope`, which is the whole stopping rule."""

    term: Callable[[int], Decimal]
    envelope: Envelope


def _geometric_stop(ratio: Ratio, cutoff: Decimal, dc: decimal.Context):
    """(n, t) -> the third-order tail after term n of value t (see
    `Ratio`), computed in `dc`, where `ratio` certifies it within
    `cutoff`; None elsewhere. With a = w B^n and a2 = w2 B^(2n) for each
    signed entry (w, B, w2), A the sum of the a and S2 that of the a2,
    the sum over K >= 1 of s^K (1 + Lambda_K + Lambda2_K + Lambda_K^2/2)
    is

        F(s) (1 + A + S2 + A^2/2) - (1 + A) sum a F(s B)
          + sum (a^2/2 - a2) F(s B^2) + sum over pairs a a' F(s B B'),

    F(z) = z/(1 - z), the sums over the entries and over their unordered
    pairs (the cross terms of Lambda_K^2/2), since the sum over K of
    (s B B')^K is F(s B B'). The same combination of H(z) = F(z) +
    (c1/P(n)) z/(1 - z)^2 is the sum of P(n + K)/P(n) s^K (...), and the
    tail is t times it; it is computed at the stop alone. A float screen
    over the magnitude entries, O(X^3) as `Ratio.error` is, passes over
    the terms far from the stop before the certificate is checked in
    Decimal. None for a ratio with |s| >= 1, which certifies nothing, and
    for one whose |s| is so near 1 that its float is 1: the screen could
    not tell the stop, and the envelope decides."""
    s = ratio.s
    r = abs(float(s))
    if r >= 1:          # |s| >= 1 as well
        return None
    mul, add, sub, div = dc.multiply, dc.add, dc.subtract, dc.divide
    c0, c1 = ratio.linear
    pieces = ratio.pieces
    gap = r / (1 - r)
    lift = abs(float(c1)) * gap / (1 - r)
    sizes = [(float(c), float(x), float(b)) for c, x, b in ratio.sizes]
    floor = float(_TAIL_FLOOR)
    rough = float(cutoff) * 1.001

    def tail(n: int, p) -> Decimal:
        """The sum over K >= 1 of P(n + K)/P(n) s^K (1 + Lambda_K +
        Lambda2_K + Lambda_K^2/2), P(n) = p."""
        if c1:
            lean = Fraction(c1) / p
            lean = div(lean.numerator, lean.denominator)

        def h(z: Decimal) -> Decimal:
            low = sub(_D_ONE, z)
            first = div(z, low)
            return add(first, mul(lean, div(first, low))) if c1 else first

        # (a, a2, s B, B) of each entry
        entries = []
        big_a = big_a2 = _D_ZERO
        for w, b, w2 in pieces:
            x = dc.power(b, n)
            a, a2 = mul(w, x), mul(w2, mul(x, x))
            big_a, big_a2 = add(big_a, a), add(big_a2, a2)
            entries.append((a, a2, mul(s, b), b))
        one = add(_D_ONE, big_a)
        out = mul(add(add(one, big_a2), div(mul(big_a, big_a), 2)), h(s))
        for i, (a, a2, z, b) in enumerate(entries):
            out = sub(out, mul(mul(one, a), h(z)))
            out = add(out, mul(sub(div(mul(a, a), 2), a2), h(mul(z, b))))
            for a_, _, _, b_ in entries[:i]:
                out = add(out, mul(mul(a, a_), h(mul(z, b_))))
        return out

    def stop(n: int, t: Decimal) -> Optional[Decimal]:
        p = c0 + c1 * n if c1 else c0
        if not p:
            return None
        d = e = e3 = 0.0
        for c, x, b in sizes:
            big = x * b ** n
            if big >= 1:
                return None
            part = c * big / (1 - big)
            d += part
            part *= big
            e += part
            e3 += part * big
        reach = gap + lift / abs(float(p)) if c1 else gap
        if d >= 1 or abs(float(t)) * reach * max(
                d * d * d / (6 * (1 - d)) + d * e / 2 + e3 / 3,
                floor) > rough:
            return None
        err = ratio.error(t, n)
        if err is None or err > cutoff:
            return None
        return mul(t, tail(n, p))

    return stop


def sum_numeric(gen: NumericTermGenerator, tol: Decimal = NUMERIC_TOL,
                context: Optional[decimal.Context] = None,
                start: int = 0) -> Decimal:
    """Sum term(start), term(start + 1), ... to within tol/100 (a
    Decimal), on a certificate; term n is read as declared, with the
    envelope's pair at n and its limit-ratio certificate at n.

    From the first term below tol/100 on, the sum stops after the first
    term n whose certified tail (`tail_after` of the envelope at n) is at
    most tol/100; it also stops after the envelope's support. At term
    n = start + `_RATIO_FROM` it builds the envelope's limit-ratio
    certificate (`Envelope.ratio`), if it has one, and from there on it
    also stops at the first term n whose `Ratio.error`, O(D(n)^3), is at
    most tol/100, adding the third-order geometric tail of
    `_geometric_stop` (t(n) (s/(1 - s) + the Lambda parts) without a
    linear factor; see `Ratio`). An envelope
    that can never certify a tail (`least` >= 1 or None, and no support)
    raises TailNotDecreasing before the first term, and one that has not
    certified it within the term budget (counted from `start`) raises it
    there. The sum is taken in `context` (default: a fresh one at
    NUMERIC_PRECISION digits), never in the ambient decimal context. The
    caller compares both sides within `tol`.
    """
    dc = decimal.Context(prec=NUMERIC_PRECISION) if context is None \
        else context
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    cutoff = dc.divide(tol, 100)
    env = gen.envelope
    top = env.support
    if top is None and (env.least is None or env.least >= 1):
        raise TailNotDecreasing("the declared envelope never falls below 1")
    add, at = dc.add, env.at
    ratio, stop = env.ratio, None
    small = False
    total = _D_ZERO
    n = start
    while top is None or n <= top:
        if n - start == _NUMERIC_TERM_BUDGET:
            raise TailNotDecreasing(
                f"no certified tail within {_NUMERIC_TERM_BUDGET} terms")
        t = gen.term(n)
        total = add(total, t)
        if ratio is not None and n - start >= _RATIO_FROM:
            cert, ratio = ratio(), None
            stop = cert and _geometric_stop(cert, cutoff, dc)
        if stop is not None:
            tail = stop(n, t)
            if tail is not None:
                return add(total, tail)
        if small or t.copy_abs() < cutoff:
            small = True
            tail = tail_after(at(n))
            if tail is not None and tail <= cutoff:
                break
        n += 1
    return total
