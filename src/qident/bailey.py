"""Well-poised pair machinery: the two-parameter alpha/beta relation, the
iterable chain step, the infinite transform it implies, the central
partial-sum transform, and the finite multi-base telescoping identity.

The transforms are written once, against the `Ctx` algebra of
`context.py`, so that the catalog records and the tests share
them under both the exact and the numeric strategy:

  * `Summand`, `Factor` -- a summand declared rather than written: s^n,
    a q-power, Pochhammers of length k n + l, heads 1 - w r^n and opaque
    factors with valuation floors and magnitude bounds. It evaluates
    under either context and gives each strategy its stopping
    certificate; every sum below and in the catalog passes one;
  * `wp_beta_sum` -- beta_n from the defining relation;
  * `wp_chain_alpha`, `wp_chain_beta` -- the chain step: the new alpha,
    and the closed form of its beta;
  * `wp_transform` -- both sides of the infinite well-poised transform
    for a general alpha;
  * `cor_pref`, `cor_lhs`, `cor_rhs_sum`, `cor_transform` and
    `running_sums` -- the central partial-sum transform, the relation at
    k = aq where beta_n is the n-th partial sum of alpha;
  * `sv_quotient`, `sv_linear` -- the multi-base quotient, declared, and
    its four linear factors as heads;
  * `phi_term` -- the declared n-th term of the basic hypergeometric
    series r-phi-s, a Pochhammer quotient times z^n.

A sequence enters them as a `Factor` (a function n -> context value, a
valuation floor, a magnitude bound, and, where it is known, a `support`
past which alpha_n is zero) or as a `Summand`, which the transform's
term folds in; the transforms read a `Factor`'s support and floor
themselves. `vwp_weight` is the very-well-poised factor as a `Factor`:
its value is `ctx.vwp`, and its bound its own declaration.
An `AlphaSequence` declares a sequence once for every context:
`at(ctx, n)` with its support and floor, and `factor(ctx)` is its
`Factor` in `ctx`.

There is no exact-only copy of a transform: a caller runs the builders
in `context.exact_run` (which finds the working order the Laurent dips
of their arguments need) or in a `NumericCtx`, and a degenerate
specialization raises where the builder meets it. `AlphaSequence.value`
and `cor_sides` are the two exact conveniences left.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cached_property, partial, reduce
from math import floor, lcm
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

from .context import Ctx, exact_run
from .errors import (
    DegenerateDenominator,
    UndeclaredFloor,
    ValuationStall,
)
from .qfunc import (
    BOUND_DOWN,
    BOUND_SLACK,
    BOUND_UP,
    NO_BOUND,
    Envelope,
    Ratio,
    ValuationLaw,
    as_monomial,
    length_start,
    poch_law,
    tail_after,
)
from .series import DEFAULT_ORDER, LaurentSeries, QMonomial

_ZERO, _ONE = Decimal(0), Decimal(1)

class AlphaSequence(NamedTuple):
    """A sequence alpha_n declared once for every context: `at(ctx, n)`
    is alpha_n in `ctx`, asked only for n up to the support.

    `support`, when set, promises the value is zero for n > support (an
    optimization and a termination certificate). `floor` promises every
    value has valuation at least `floor` (q-units); an exact sum over the
    sequence stops on it (see `Factor`), and raises UndeclaredFloor while
    it is None, the default: nothing is known.
    """

    at: Callable[[Ctx, int], object]
    support: Optional[int] = None
    floor: Optional[int] = None

    def factor(self, ctx: Ctx) -> "Factor":
        """The sequence in `ctx` as a `Factor`, zero past the support."""
        at, top = self.at, self.support
        return Factor(lambda n: ctx.num(0) if top is not None and n > top
                      else at(ctx, n), self.floor, top)

    def value(self, n: int, order: int) -> LaurentSeries:
        """alpha_n, computed exactly, as a series at `order`."""
        return _exact(order, lambda ctx: [self.factor(ctx)(n)])[0]

    @staticmethod
    def from_values(values) -> "AlphaSequence":
        """The finite sequence of `values` (rationals in any context;
        monomials and series in the exact one), with its support and, as
        its floor, the least valuation among them."""
        vals = list(values)
        lows = [v.eff_min_deg() if isinstance(v, LaurentSeries)
                else as_monomial(v).exp for v in vals
                if not (v == 0 if isinstance(v, (Fraction, int))
                        else v.is_zero)]
        return AlphaSequence(
            lambda ctx, n: ctx.num(vals[n])
            if isinstance(vals[n], (Fraction, int)) else vals[n],
            len(vals) - 1, floor(min(lows, default=0)))


def unit_alpha() -> AlphaSequence:
    """alpha_0 = 1 and nothing else: the canonical seed sequence."""
    return AlphaSequence.from_values([Fraction(1)])


# ---------------------------------------------------------------------------
# the transforms over Ctx
# ---------------------------------------------------------------------------

class Factor(NamedTuple):
    """An opaque factor f_n of a summand (alpha_n, beta_n, an inner sum):
    `at(n)`, a valuation floor, optionally the `support` past which f_n
    is zero, and a magnitude bound.

    The floor is an int (t-units) that bounds every f_n, a `Summand`
    whose bound at n bounds f_n, or None, the default, when no floor is
    known (an exact sum over it then raises UndeclaredFloor). The `bound`
    is the numeric counterpart: a `qfunc.Envelope` of f_n, or a `Summand`
    that is f's own declaration (equal to f_n at every n), whose envelope,
    limit ratio included, is f's; or None, the default, when no bound is
    assumed (a numeric sum over it then raises UndeclaredBound, unless a
    support ends it)."""

    at: Callable[[int], object]
    floor: Union[int, "Summand", None] = None
    support: Optional[int] = None
    bound: Union[Envelope, "Summand", None] = None

    def __call__(self, n: int):
        return self.at(n)

    def law(self) -> ValuationLaw:
        f = self.floor
        if f is None:
            raise UndeclaredFloor("opaque factor without a valuation floor")
        law = f.law() if isinstance(f, Summand) else ValuationLaw(c=f)
        return law + ValuationLaw(support=self.support)

    def envelope(self) -> Envelope:
        """(NumericCtx only) the declared bound with its limit ratio; past
        a support, zero and without a limit ratio."""
        b, top = self.bound, self.support
        env = b.envelope() if isinstance(b, Summand) else b or NO_BOUND
        if top is None:
            return env
        return env._replace(
            at=lambda n: (_ZERO, _ZERO) if n > top else env.at(n),
            support=top if env.support is None else min(top, env.support),
            ratio=None)


def constant(c) -> Factor:
    """The factor c at every n, with the floor 0, the bound (|c|, 1) and
    the limit ratio 1."""
    return Factor(lambda n: c, 0,
                  bound=Envelope(lambda n: (c.copy_abs(), _ONE), _ONE,
                                 ratio=lambda: Ratio(_ONE)))


def _summed(count: int, term: Callable[[int], "Summand"]
            ) -> Union[Envelope, "Summand"]:
    """The bound of the sum of the declared terms term(0), ..,
    term(count - 1), from n = count - 1 on. A sum of one term is that
    term: its declaration term(0), whose envelope, limit ratio included,
    is the sum's (see `Factor`). Of more terms it is an envelope without
    a limit ratio: M the sum of theirs, g the largest, the terms declared
    at the first call."""
    if count == 1:
        return term(0)
    envs = []

    def at(n: int):
        if n < count - 1:
            return None
        envs[:] = envs or [term(j).envelope() for j in range(count)]
        bounds = [e.at(n) for e in envs]
        if None in bounds:
            return None
        return (reduce(BOUND_UP.add, [m for m, _ in bounds]),
                max(g for _, g in bounds))

    return Envelope(at)


def _product(bounds) -> Optional[Tuple[Decimal, Decimal]]:
    """The (M, g) of a product from its factors' pairs: the products of
    their Ms and of their gs, with `BOUND_SLACK`; (0, 0) when some M is
    0, and None when some factor has no pair."""
    m = g = BOUND_SLACK
    known = True
    for bound in bounds:
        if bound is None:
            known = False
        elif not bound[0]:
            return _ZERO, _ZERO
        else:
            m = BOUND_UP.multiply(m, bound[0])
            g = BOUND_UP.multiply(g, bound[1])
    return (m, g) if known else None


def _factor_bound(u: Decimal, b: Decimal, k: int, l: int, upper: bool,
                n: int):
    """(1, g): g bounds, over every m >= n, |the factors (1 - u b^j)^(+-1)
    that (u; b)_(k m + l), or its inverse, gains from m to m + 1|, given
    |u| and |b| <= 1: prod (1 + |u||b|^j), or prod 1/(1 - |u||b|^j), over
    j = k n + l, .., k n + l + k - 1, where each factor is largest. None
    where some 1 - |u||b|^j is not positive."""
    x = BOUND_UP.multiply(u, BOUND_UP.power(b, max(0, k * n + l)))
    g = _ONE
    for _ in range(k):
        if upper:
            g = BOUND_UP.multiply(g, BOUND_UP.add(_ONE, x))
        else:
            low = BOUND_DOWN.subtract(_ONE, x)
            if low <= 0:
                return None
            g = BOUND_UP.divide(g, low)
        x = BOUND_UP.multiply(x, b)
    return _ONE, g


def _head_bound(w: Decimal, r: Decimal, inverse: bool, n: int):
    """(M, g) with |1 - w r^m|^(+-1) <= M g^(m - n) for every m >= n,
    given |w| and |r| > 0; None where the inverse head has none."""
    if not inverse:     # 1 + |w||r|^m <= (1 + |w||r|^n) max(1, |r|)^(m-n)
        return (BOUND_UP.add(_ONE, BOUND_UP.multiply(
            w, BOUND_UP.power(r, n))), max(_ONE, r))
    if r <= 1:          # 1 - |w||r|^m >= 1 - |w||r|^n
        low = BOUND_DOWN.subtract(_ONE, BOUND_UP.multiply(
            w, BOUND_UP.power(r, n)))
        if low > 0:
            return BOUND_UP.divide(_ONE, low), _ONE
    if r >= 1:          # |w||r|^m - 1 >= (|w||r|^n - 1) |r|^(m-n)
        low = BOUND_DOWN.subtract(BOUND_DOWN.multiply(
            w, BOUND_DOWN.power(r, n)), _ONE)
        if low > 0:
            return BOUND_UP.divide(_ONE, low), BOUND_UP.divide(_ONE, r)
    return None


def _linear_bound(c0, c1, n: int):
    """(M, g) with |c0 + c1 m| <= M g^(m - n) for every m >= n, given the
    rationals c0 and c1: (|P(n)|, 1 + |c1|/|P(n)|), P(m) = c0 + c1 m,
    since |P(m)| <= |P(n)| + |c1| (m - n) and 1 + k x <= (1 + x)^k; where
    P(n) = 0, (|c1|, 2), since k <= 2^k."""
    p, c1 = Fraction(abs(c0 + c1 * n)), Fraction(abs(c1))
    if not p:
        return BOUND_UP.divide(c1.numerator, c1.denominator), Decimal(2)
    g = (p + c1) / p
    return (BOUND_UP.divide(p.numerator, p.denominator),
            BOUND_UP.divide(g.numerator, g.denominator))


def _join_signed(entries, add, big: Decimal, w: Decimal,
                 w2: Decimal) -> None:
    """Add w and w2 to the signed entry [B, w, w2] of `entries` whose B
    equals `big`, or append one (`Summand._ratio`). A list scan, not a
    dict: a term has a few bases, and a fresh Decimal costs more to hash
    than they do to compare."""
    for entry in entries:
        if entry[0] == big:
            entry[1] = add(entry[1], w)
            entry[2] = add(entry[2], w2)
            return
    entries.append([big, w, w2])


def _join_size(entries, beta: Decimal, cx: Decimal, x: Decimal) -> None:
    """Merge a factor's magnitude c|x| and |x| on |B| = `beta` into the
    entry [beta, the sum of c|x|, the largest |x|] of `entries`, or append
    one (`Summand._ratio`): the sum rounds up, and the largest |x| is the
    X0 of the merged `qfunc.Ratio` size."""
    for entry in entries:
        if entry[0] == beta:
            entry[1] = BOUND_UP.add(entry[1], cx)
            entry[2] = max(entry[2], x)
            return
    entries.append([beta, cx, x])


def _head_least(w: Decimal, r: Decimal, inverse: bool) -> Optional[Decimal]:
    """The least g that `_head_bound` gives at any n (None: none)."""
    if not inverse:
        return max(_ONE, r)
    if r != 1:
        return _ONE if r < 1 else BOUND_DOWN.divide(_ONE, r)
    return None if w == 1 else _ONE


class _SummandFields(NamedTuple):
    ctx: object
    s: object = None
    power: Tuple = ()
    p: object = None
    ups: Sequence = ()
    downs: Sequence = ()
    heads: Sequence = ()
    factors: Sequence = ()
    support: Optional[int] = None
    linear: Optional[Tuple] = None


class Summand(_SummandFields):
    """The n-th term of a sum, declared rather than written:

        s^n p^(A n^2 + B n + C)
          * prod (u; b_u)_(k n + l) / prod (d; b_d)_(k n + l)
          * prod (1 - w r^n)^(+1 or -1) * prod f_n * (c0 + c1 n),

    with `power` = (A, B, C) (each default 0) and p = q unless given.
    `ups` and `downs` hold (argument, base) pairs, of length n, or
    (argument, base, k, l); `heads` hold (w, r) pairs, or (w, r, True)
    for an inverse head; `factors` the opaque f_n, each a `Factor`, or a
    Summand in n, which is folded in at construction, never evaluated as
    a factor: the two s multiply, the one power keeps its p, the one
    linear factor stays, the Pochhammers, heads and f_n join, and the
    smaller support holds (`_replace` skips the fold; a Summand it leaves
    raises). `linear`, when set, is the pair of rationals (c0, c1) of the
    linear factor c0 + c1 n (such as n + 1). `support`, when set,
    promises the term is zero past it. It is an immutable tuple of those
    fields (`_replace` makes a variant).

    Called with n it is the term in its context, for either strategy:
    all its Pochhammers, whatever their lengths, are one `ctx.quotient`,
    which steps them together by the term ratio (s^n rides on it), and
    the power, the heads and the f_n are the `more` of its `(n, *more)`.

    `law()` (ExactCtx only) is the term's `ValuationLaw` in t-units, the
    certificate that `ExactCtx.summation` stops on (Gasper & Rahman,
    section 1.2: the term ratio is rational in q^n). s^n and the power
    give the quadratic, each upper Pochhammer its dip and its vanishing
    factor (`poch_law`), each head 1 - w r^n a kink min(0, exp(w) + n
    exp(r)), each f_n its floor. Lower Pochhammers, inverse heads, the
    linear factor (a rational at each n) and the very-well-poised factor
    never lower the valuation, so they add nothing.

    `envelope()` (NumericCtx only) is the term's magnitude certificate,
    the `qfunc.Envelope` that `NumericCtx.summation` stops on, from the
    same declaration: at n, M is |s^n p^(A n^2 + B n + C) and the
    Pochhammers| at n, times a bound on each head over m >= n (never the
    head's value, which can vanish at one n only), each f_n's M and the
    linear factor's (`_linear_bound`); g is the supremum over m >= n of
    the declared term ratio,

        |s| |p|^(A (2m + 1) + B) prod (1 + |u||b|^j) / prod (1 - |d||b|^j)

    over the indices j that the step from m to m + 1 adds (bases |b| <=
    1), times each head's growth, each f_n's g and the linear factor's.
    It is finite only where the power falls or stays as m grows (no A < 0
    for |p| < 1).
    An f_n that declares neither a bound nor a support leaves a term
    with no support of its own, nor from another f_n, without any
    envelope: `qfunc.NO_BOUND`, on which `NumericCtx.summation` raises
    UndeclaredBound.

    The envelope also carries the term's limit-ratio certificate
    (`qfunc.Ratio`, built when a sum first asks for it), where the term
    ratio tends to a constant: s times p^B (no quadratic power), times
    each f_n's declared limit, whatever its size, with the linear factor
    as the Ratio's `linear`, whose geometric tail it adds; only a sum's
    stop (`qfunc._geometric_stop`) asks for one below 1, so a declaration
    that bounds a factor keeps its limit 1 or -1 for the term it joins.
    Each Pochhammer (u; b)_(k n + l) on a base 0 < |b| < 1, and each head
    1 - w r^n on 0 < |r| < 1, adds its signed c x, -+u b^l/(1 - b) on B =
    b^k (or +-w on B = r), and its signed c2 x^2, -+u^2 b^(2l)/(2(1 -
    b^2)) on B^2 (or +-w^2/2 on r^2), to the one signed entry (w, B, w2)
    of its base B, which carries the first- and second-order parts Lambda
    and Lambda2 of the log ratio, and its magnitude, |u||b|^l/(1 - |b|)
    on |b|^k (for a head 2|w|/(1 - |r|) on |r|), to the one magnitude
    entry of |B|, which bounds the drift D(n) and the remainders E(n) and
    E3(n) with X0 the largest |u||b|^l (or |w|) on it (`_ratio`, one
    pass, which merges each f_n's entries the same way). An f_n counts
    only by the ratio it declares itself, which describes its own value's
    ratio (`constant` 1, a factor bounded by its own declaration that
    declaration's, as the very-well-poised factor its head and 1 and
    `wp_transform`'s beta at alpha's support 0 its Pochhammer quotient,
    `running_sums` 1 from its alpha's support on). A term with a
    support, a quadratic power, another Pochhammer base or head, an f_n
    that declares no ratio, or an f_n whose ratio holds a linear factor
    has no certificate, and its sum stops on the envelope alone:
    `envelope` reads that from the declaration in the walk that builds
    the bound, and gives such a term no `ratio` at all.
    """

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        if not all(isinstance(f, (Factor, Summand)) for f in self.factors):
            raise TypeError("a summand's opaque factor is a Factor or a "
                            "Summand, not a bare callable")
        if self.linear is not None and not all(
                isinstance(c, (int, Fraction)) for c in self.linear):
            raise TypeError("a linear factor's coefficients are rationals")
        nested = [f for f in self.factors if isinstance(f, Summand)]
        return reduce(Summand._fold, nested, self._replace(factors=[
            f for f in self.factors if isinstance(f, Factor)]))

    def _fold(self, inner: "Summand") -> "Summand":
        """This term times `inner`, as one declaration (see the class)."""
        if any(self.power) and any(inner.power):     # their p may differ
            raise ValueError("two q-powers do not fold into one summand")
        if self.linear is not None and inner.linear is not None:
            raise ValueError("two linear factors do not fold into one "
                             "summand")
        own = any(self.power)
        s = (inner.s if self.s is None else self.s if inner.s is None
             else self.ctx.mul(self.s, inner.s))
        tops = [t for t in (self.support, inner.support) if t is not None]
        return self._replace(
            s=s, power=self.power if own else inner.power,
            p=self.p if own else inner.p, ups=[*self.ups, *inner.ups],
            downs=[*self.downs, *inner.downs],
            heads=[*self.heads, *inner.heads],
            factors=[*self.factors, *inner.factors],
            support=min(tops, default=None),
            linear=inner.linear if self.linear is None else self.linear)

    @cached_property
    def _plan(self):
        """What a call evaluates, built once: the one quotient of all the
        Pochhammers, whatever their lengths (none at all included), with
        s^n; the power as integers (A, B, C, den) over one denominator
        (None when it is 0); the heads as (w, r, inverse); and the f_n as
        plain callables."""
        if not all(isinstance(f, Factor) for f in self.factors):
            raise TypeError("a Summand that _replace left among the factors")
        main = self.ctx.quotient(self.ups, self.downs, self.s)
        power = (*self.power, 0, 0, 0)[:3]
        den = lcm(*(x.denominator for x in power))
        coefs = tuple(x.numerator * (den // x.denominator) for x in power)
        heads = [(w, r, bool(inverse and inverse[0]))
                 for w, r, *inverse in self.heads]
        return (main, coefs + (den,) if any(coefs) else None, heads,
                [f.at for f in self.factors])

    def _power(self, n: int, power):
        """p^(A n^2 + B n + C) at n, from the plan's (A, B, C, den)."""
        a, b, c, den = power
        e, r = divmod((a * n + b) * n + c, den)
        ctx = self.ctx
        return ctx.qpow(Fraction(e * den + r, den) if r else e) \
            if self.p is None else ctx.pow_int(self.p, e)

    def __call__(self, n: int):
        main, power, heads, factors = self._plan
        more = [f(n) for f in factors] if factors else []
        if self.linear is not None:
            c0, c1 = self.linear
            more.append(self.ctx.num(c0 + c1 * n))
        if power:
            more.append(self._power(n, power))
        if heads:
            ctx = self.ctx
            for w, r, inverse in heads:
                head = ctx.sub(ctx.one(), ctx.mul(w, ctx.pow_int(r, n)))
                more.append(ctx.inv(head) if inverse else head)
        return main(n, *more) if more else main(n)

    def envelope(self) -> Envelope:
        ctx = self.ctx

        def mag(v) -> Decimal:
            return ctx.num(v).copy_abs()

        main, power, heads, _ = self._plan
        # each part n -> (M, g) or None, the least g each part gives
        # (None: none), and the supports; and the signed (u, b, k, l,
        # head, inverse) of the Pochhammers and heads that the limit
        # ratio reads
        parts, least, tops, pieces = [], [], [self.support], []
        limit = True                # no part of the term's own rules it out
        if self.s is not None:
            s = mag(self.s)
            parts.append(lambda n: (_ONE, s))
            least.append(s)
            tops.append(None if s else 0)
        if power:
            a, b, _, den = power
            p, unit = (ctx.q_unit, ctx.denom) if self.p is None else \
                (self.p, 1)
            p = mag(p)
            # the sup over m >= n of p^(A (2m + 1) + B) is at m = n, if any
            falls = p == 1 or not a or (p < 1) == (a > 0)
            parts.append(lambda n: (_ONE, BOUND_UP.power(
                p, unit * (a * (2 * n + 1) + b) // den)) if falls else None)
            least.append(None if not falls else _ONE if p == 1 else
                         _ZERO if a else BOUND_DOWN.power(p, unit * b // den))
            limit = not (a or self.p is not None and b % den)
        for pairs, upper in ((self.ups, True), (self.downs, False)):
            for u, base, *kl in pairs:
                k, l = kl or (1, 0)
                su, sb = ctx.num(u), ctx.num(base)
                u, base = su.copy_abs(), sb.copy_abs()
                if k and u:         # else no factor, or 1, per step
                    ok = k > 0 and base <= 1 and (upper or base < 1 or u < 1)
                    parts.append(partial(_factor_bound, u, base, k, l, upper)
                                 if ok else lambda n: None)
                    least.append(_ONE if ok else None)
                    pieces.append((su, sb, k, l, False, not upper))
        for w, r, inverse in heads:
            sw, sr = ctx.num(w), ctx.num(r)
            w, r = sw.copy_abs(), sr.copy_abs()
            parts.append(partial(_head_bound, w, r, inverse))
            least.append(_head_least(w, r, inverse))
            if w:
                pieces.append((sw, sr, 1, 0, True, inverse))
        envs = [f.envelope() for f in self.factors]
        tops = [t for t in tops + [env.support for env in envs]
                if t is not None]
        if not tops and any(env is NO_BOUND for env in envs):
            return NO_BOUND
        parts += [env.at for env in envs]
        least += [env.least for env in envs]
        if self.linear is not None:
            parts.append(partial(_linear_bound, *self.linear))
            least.append(_ONE)
        limit = limit and not tops and all(
            0 < abs(b) < 1 for _, b, *_ in pieces) and all(
            env.ratio for env in envs)

        def at(n: int):
            m = (main(n, self._power(n, power)) if power else
                 main(n)).copy_abs()
            return _product([(m, _ONE)] + [part(n) for part in parts])

        return Envelope(at, None if None in least else
                        reduce(BOUND_DOWN.multiply, least, _ONE),
                        min(tops) if tops else None,
                        partial(self._ratio, pieces, envs) if limit else None)

    def _ratio(self, pieces, envs) -> Optional[Ratio]:
        """The term's limit-ratio certificate (see the class), from the
        signed (u, b, k, l, head, inverse) of the Pochhammers and heads
        that `envelope` collected and the envelopes of its f_n, in one
        pass: each factor joins its c x and c2 x^2 to the signed entry of
        its base B = b^k and its c |x| to the magnitude entry of |B|
        (`qfunc.Ratio`), and so do the entries of each f_n's certificate.
        1/(1 - b), 1/(2(1 - b^2)) and 1/(1 - |b|) are computed once per b,
        and b^0, b^1 are never raised. None where some f_n's certificate
        is None or holds a linear factor."""
        ctx = self.ctx
        _, power, _, _ = self._plan
        s = [] if self.s is None else [self.s]
        if power:
            _, b, _, den = power
            s.append(ctx.qpow(Fraction(b, den)) if self.p is None else
                     ctx.pow_int(self.p, b // den))
        lims = [env.ratio() for env in envs]
        # a linear factor of an f_n's own declaration is not the term's
        if None in lims or any(lim.linear != (1, 0) for lim in lims):
            return None
        dc = ctx.dc
        mul, pow_, add = dc.multiply, dc.power, dc.add
        up_mul, up_pow = BOUND_UP.multiply, BOUND_UP.power
        # [B, w, w2] per base B, [|B|, the sum of c|x|, the largest |x|]
        # per |B|, and [b, 1/(1 - b), 1/(2(1 - b^2)), |b|, 1/(1 - |b|)]
        # per argument base b
        signed, sizes, bases = [], [], []
        for u, b, k, l, head, inverse in pieces:
            for known in bases:
                if known[0] == b:
                    break
            else:
                a = b.copy_abs()
                known = [b, dc.divide(_ONE, dc.subtract(_ONE, b)),
                         dc.divide(_ONE, mul(2, dc.subtract(_ONE, mul(b, b)))),
                         a,
                         BOUND_UP.divide(_ONE, BOUND_DOWN.subtract(_ONE, a))]
                bases.append(known)
            _, lift, lift2, a, grow = known
            x = u.copy_abs()
            # a head: c = +-1 and c2 = +-1/2 on B = b, and c = 2/(1 - |b|),
            # met twice; a Pochhammer: c = -+1/(1 - b) and c2 = -+1/(2(1 -
            # b^2)) on B = b^k, x = u b^l
            if head:
                w, big, beta = u, b, a
                w2 = dc.divide(mul(u, u), 2)
                cx = up_mul(x, grow)
                cx = BOUND_UP.add(cx, cx)
            else:
                if l:
                    u = mul(u, b if l == 1 else pow_(b, l))
                    x = up_mul(x, a if l == 1 else up_pow(a, l))
                w, w2 = mul(u, lift), mul(mul(u, u), lift2)
                big, beta = (b, a) if k == 1 else (pow_(b, k), up_pow(a, k))
                cx = up_mul(x, grow)
            if head == inverse:
                w, w2 = w.copy_negate(), w2.copy_negate()
            _join_signed(signed, add, big, w, w2)
            _join_size(sizes, beta, cx, x)
        for lim in lims:
            for w, big, w2 in lim.pieces:
                _join_signed(signed, add, big, w, w2)
            for c, x, beta in lim.sizes:
                _join_size(sizes, beta, up_mul(c, x), x)
        return Ratio(ctx.mul(*s, *(lim.s for lim in lims)),
                     tuple((w, big, w2) for big, w, w2 in signed
                           if w or w2),
                     tuple((BOUND_UP.divide(cx, x), x, beta)
                           for beta, cx, x in sizes),
                     max([length_start(x[2:4] for x in pieces)]
                         + [lim.start for lim in lims]),
                     self.linear or (1, 0))

    def law(self) -> ValuationLaw:
        mono = self.ctx.monomial
        e = self.ctx.q.exp if self.p is None else mono(self.p).exp
        a, b, c = (e * Fraction(x) for x in (*self.power, 0, 0, 0)[:3])
        law = ValuationLaw(a, b, c, support=self.support)
        if self.s is not None:
            s = mono(self.s)
            law += ValuationLaw(b=s.exp, support=0 if s.is_zero else None)
        for u, base, *kl in self.ups:
            law += poch_law(mono(u), mono(base), *kl)
        for w, r, *inverse in self.heads:
            if not (inverse and inverse[0]):
                law += ValuationLaw(kinks=((mono(r).exp, mono(w).exp),))
        for f in self.factors:
            law += f.law()
        return law


def vwp_weight(ctx: Ctx, k, step: int = 1, base=None) -> Factor:
    """The very-well-poised factor (1 - k p^(2 step n)) / (1 - k) of a
    summand's term n, base p (default q), as an opaque factor: its value
    is `ctx.vwp`, its floor 0, and its bound its own declaration, the head
    (k, p^(2 step)) times the constant 1/(1 - k). k = 1 raises
    DegenerateVWP (from `ctx.vwp`) before the constant is formed."""
    ctx.vwp(k, 0, base)
    r = ctx.qpow(2 * step) if base is None else ctx.pow_int(base, 2 * step)
    return Factor(lambda n: ctx.vwp(k, step * n, base), 0, bound=Summand(
        ctx, heads=[(k, r)],
        factors=[constant(ctx.inv(ctx.sub(ctx.one(), k)))]))


def _total(ctx: Ctx, terms):
    """ctx-sum of a list of terms; a single term stays as it is (under
    ExactCtx an unmultiplied product), the empty sum is 0."""
    return reduce(ctx.add, terms) if terms else ctx.num(0)


def wp_beta_sum(ctx: Ctx, a, k, alpha: Factor, n: int):
    """beta_n from the defining relation

        beta_n = sum_{j<=n} (k/a)_{n-j} (k)_{n+j} / ((q)_{n-j} (aq)_{n+j})
                 * alpha_j,

    skipping the j above alpha's support."""
    qq = ctx.qpow(1)
    ka, aq = ctx.div(k, a), ctx.mul(a, qq)
    top = n if alpha.support is None else min(n, alpha.support)
    return _total(ctx, [
        ctx.mul(ctx.poch(ka, qq, n - j), ctx.poch(k, qq, n + j),
                ctx.inv_poch(qq, qq, n - j), ctx.inv_poch(aq, qq, n + j),
                alpha(j))
        for j in range(top + 1)])


def wp_transform(ctx: Ctx, a, k, r1, r2, alpha: Factor):
    """Both sides of the infinite well-poised transform

      sum vwp(k, n) (r1, r2)_n / (kq/r1, kq/r2)_n z^n beta_n
        = [ (kq, kq/r1r2, aq/r1, aq/r2)_inf / (kq/r1, kq/r2, z, aq)_inf ]
          * sum (r1, r2)_n / (aq/r1, aq/r2)_n z^n alpha_n,

    with z = aq/(r1 r2) and beta_n from `wp_beta_sum`. k = 0 reduces it to
    the classical transform for a pair relative to a. Both sides are
    `ctx.summation`s; when alpha declares a support the right sum ends
    there, since its term's law and envelope both carry that support.
    alpha's floor (t-units; see `Factor`) is needed for the exact sums;
    beta_n is bounded by it and the dips of (k/a)_n and (k)_n, but is not
    zero past alpha's support. With a support S, beta_n is, from n = S
    on, the sum of the S + 1 declared terms of `wp_beta_sum` (`_summed`).
    At S = 0 that is one Pochhammer quotient, beta's own declaration, so
    a numeric left sum keeps its limit ratio and may stop on the
    geometric tail; for S >= 1 their envelopes bound beta without one
    (ROADMAP item 3), and the left sum stops on the envelope. Without a
    support beta declares no bound. beta's values come from `wp_beta_sum`
    in either case.
    """
    qq = ctx.qpow(1)
    aq, kq = ctx.mul(a, qq), ctx.mul(k, qq)
    z = ctx.div(aq, ctx.mul(r1, r2))
    kq1, kq2 = ctx.div(kq, r1), ctx.div(kq, r2)
    aq1, aq2 = ctx.div(aq, r1), ctx.div(aq, r2)
    ups = [(r1, qq), (r2, qq)]
    ka = ctx.div(k, a)
    support = alpha.support
    beta = Factor(lambda n: wp_beta_sum(ctx, a, k, alpha, n),
                  Summand(ctx, ups=[(ka, qq, 0, 0), (k, qq, 0, 0)],
                          factors=[alpha._replace(support=None)]),
                  bound=None if support is None else _summed(
                      support + 1, lambda j: Summand(
                          ctx, ups=[(ka, qq, 1, -j), (k, qq, 1, j)],
                          downs=[(qq, qq, 1, -j), (aq, qq, 1, j)],
                          factors=[constant(alpha(j))])))
    lhs_term = Summand(ctx, z, ups=ups, downs=[(kq1, qq), (kq2, qq)],
                       factors=[vwp_weight(ctx, k), beta])
    rhs_term = Summand(ctx, z, ups=ups, downs=[(aq1, qq), (aq2, qq)],
                       factors=[alpha])

    pref = ctx.mul(
        ctx.poch_inf(kq, qq), ctx.poch_inf(ctx.div(kq, ctx.mul(r1, r2)), qq),
        ctx.poch_inf(aq1, qq), ctx.poch_inf(aq2, qq),
        ctx.inv(ctx.poch_inf(kq1, qq)), ctx.inv(ctx.poch_inf(kq2, qq)),
        ctx.inv(ctx.poch_inf(z, qq)), ctx.inv(ctx.poch_inf(aq, qq)))
    return ctx.summation(lhs_term), ctx.summation(rhs_term, times=pref)


def wp_chain_alpha(ctx: Ctx, a, r1, r2, alpha: Factor, n: int):
    """alpha'_n of the chain step from the pair (alpha, a, c) to
    (alpha', a, k), with c = k r1 r2 / (a q):

        alpha'_n = (r1, r2)_n / (aq/r1, aq/r2)_n (k/c)^n alpha_n,

    where k/c = aq/(r1 r2), so alpha' does not depend on k."""
    qq = ctx.qpow(1)
    aq = ctx.mul(a, qq)
    quot = ctx.quotient([(r1, qq), (r2, qq)],
                        [(ctx.div(aq, r1), qq), (ctx.div(aq, r2), qq)],
                        ctx.div(aq, ctx.mul(r1, r2)))
    return quot(n, alpha(n))


def wp_chain_beta(ctx: Ctx, a, k, r1, r2, alpha: Factor, n: int):
    """The closed form of beta'_n, the beta of (alpha', a, k) (see
    `wp_chain_alpha`):

      beta'_n = (k r1/a, k r2/a)_n / (aq/r1, aq/r2)_n
                * sum_{j<=n} vwp(c, j) (r1, r2)_j / (k r1/a, k r2/a)_j
                  * (k/c)_{n-j} (k)_{n+j} / ((q)_{n-j} (qc)_{n+j})
                  * (k/c)^j beta_j(a, c),

    with beta_j(a, c) from `wp_beta_sum` in the same context. The weight
    (k r1/a, k r2/a)_j inside the sum is indexed by j (the commonly
    printed index n there fails the defining relation)."""
    qq = ctx.qpow(1)
    aq = ctx.mul(a, qq)
    aq1, aq2 = ctx.div(aq, r1), ctx.div(aq, r2)
    kr1, kr2 = ctx.div(ctx.mul(k, r1), a), ctx.div(ctx.mul(k, r2), a)
    kc = ctx.div(aq, ctx.mul(r1, r2))
    c = ctx.div(ctx.mul(k, r1, r2), aq)
    qc = ctx.mul(qq, c)
    weight = ctx.quotient([(r1, qq), (r2, qq)], [(kr1, qq), (kr2, qq)], kc)
    inner = _total(ctx, [
        weight(j, ctx.vwp(c, j),
               ctx.poch(kc, qq, n - j), ctx.poch(k, qq, n + j),
               ctx.inv_poch(qq, qq, n - j), ctx.inv_poch(qc, qq, n + j),
               wp_beta_sum(ctx, a, c, alpha, j))
        for j in range(n + 1)])
    return ctx.quotient([(kr1, qq), (kr2, qq)],
                        [(aq1, qq), (aq2, qq)])(n, inner)


def cor_pref(ctx: Ctx, x, y, z):
    """(1 - xy)(1 - xz) / ((1 - x)(1 - xyz))."""
    one = ctx.one()
    num = ctx.mul(ctx.sub(one, ctx.mul(x, y)), ctx.sub(one, ctx.mul(x, z)))
    den = ctx.mul(ctx.sub(one, x), ctx.sub(one, ctx.mul(x, y, z)))
    return ctx.mul(num, ctx.inv(den))


def cor_lhs(ctx: Ctx, x, y, z, beta, step: int = 1, base=None):
    """sum vwp(xyz, i) (y, z; p)_i x^i beta_n / ((pxy, pxz; p)_i) with
    i = step*n and base p (default q); `beta` (a `Factor` or a `Summand`)
    is taken at the summation index n."""
    k = ctx.mul(x, y, z)
    p = ctx.qpow(1) if base is None else base
    return ctx.summation(Summand(
        ctx, ctx.pow_int(x, step), ups=[(y, p, step, 0), (z, p, step, 0)],
        downs=[(ctx.mul(p, x, y), p, step, 0), (ctx.mul(p, x, z), p, step, 0)],
        factors=[vwp_weight(ctx, k, step, base), beta]))


def cor_rhs_sum(ctx: Ctx, x, y, z, alpha, arg=None, start: int = 0,
                times=1, base=None):
    """times * sum_{n >= start} (y, z; p)_n arg^n alpha_n / ((xy, xz; p)_n)
    with base p (default q) and `alpha` a `Factor` or a `Summand`; arg
    defaults to x, and `start` and `times` go to ctx.summation."""
    p = ctx.qpow(1) if base is None else base
    return ctx.summation(Summand(
        ctx, x if arg is None else arg, ups=[(y, p), (z, p)],
        downs=[(ctx.mul(x, y), p), (ctx.mul(x, z), p)], factors=[alpha]),
        start=start, times=times)


def cor_transform(ctx: Ctx, x, y, z, beta, alpha, arg=None):
    """Both sides of the central partial-sum transform

      sum vwp(xyz, n) (y, z)_n x^n beta_n / (qxy, qxz)_n
        = (1-xy)(1-xz) / ((1-x)(1-xyz))
          * sum (y, z)_n arg^n alpha_n / (xy, xz)_n,

    which holds with arg = x when beta_n is the n-th partial sum of
    alpha (see `running_sums`); the catalog's telescoped instances pass
    their own beta, alpha and arg, each a `Factor` or a `Summand`."""
    return cor_lhs(ctx, x, y, z, beta), cor_rhs_sum(
        ctx, x, y, z, alpha, arg, times=cor_pref(ctx, x, y, z))


def phi_term(ctx: Ctx, upper, lower, base, z) -> "Summand":
    """The n-th term of the basic hypergeometric series r-phi-s (Gasper &
    Rahman, section 1.2) with r upper and s lower parameters, declared:

        (u_1, .., u_r; p)_n / (p, l_1, .., l_s; p)_n
        * ((-1)^n p^{n(n-1)/2})^{s+1-r} * z^n

    with base p."""
    excess = len(lower) + 1 - len(upper)
    return Summand(ctx, ctx.neg(z) if excess % 2 else z,
                   (Fraction(excess, 2), Fraction(-excess, 2)) if excess
                   else (), base,
                   [(u, base) for u in upper],
                   [(base, base)] + [(l, base) for l in lower])


def running_sums(ctx: Ctx, alpha: Union[Factor, "Summand"]) -> Factor:
    """Partial-sum cache: beta(n) = alpha(0) + .. + alpha(n), with the
    floor of `alpha` when that is a number. When alpha declares a bound
    (a Summand always does) or a support, beta's bound at n is
    (|beta(n)| + the certified tail of alpha after n, 1), and
    (|beta(n)|, 1) from alpha's support on, where beta stays constant:
    with a support it declares the limit ratio 1 from there on."""
    cache = []

    def beta(n):
        while len(cache) <= n:
            v = alpha(len(cache))
            cache.append(ctx.add(cache[-1], v) if cache else v)
        return cache[n]

    top, envs = alpha.support, []

    def tail(n: int):
        """A bound on |alpha(n + 1)| + |alpha(n + 2)| + ..."""
        if top is not None and n >= top:
            return _ZERO
        envs[:] = envs or [alpha.envelope()]
        bound = envs[0].at(n)
        if top is None or bound is None:
            return tail_after(bound)
        m, g = bound
        out = _ZERO                     # the terms n + 1 .. top
        for _ in range(top - n):
            m = BOUND_UP.multiply(m, g)
            out = BOUND_UP.add(out, m)
        return out

    def bound(n: int):
        rest = tail(n)
        return None if rest is None else \
            (BOUND_UP.add(beta(n).copy_abs(), rest), _ONE)

    floor = getattr(alpha, "floor", None)
    known = top is not None or getattr(alpha, "bound", alpha) is not None
    return Factor(beta, floor if isinstance(floor, int) else None,
                  bound=Envelope(bound, _ONE, ratio=None if top is None
                                 else lambda: Ratio(_ONE, start=top))
                  if known else None)


def sv_quotient(ctx: Ctx, p_, P_, Q_, R_, a, b, c,
                shifted: bool) -> "Summand":
    """The four-up/four-down base quotient shared by the telescoping sum
    and its closed form, declared over mixed bases; `shifted` advances
    numerator args by base^2. The eight (argument, base) pairs are built
    once."""
    p2, P2, Q2, R2 = (ctx.pow_int(v, 2) for v in (p_, P_, Q_, R_))
    ups = [(a, p2), (b, P2), (c, R2), (ctx.div(a, ctx.mul(b, c)), Q2)]
    if shifted:
        ups = [(ctx.mul(u, base), base) for u, base in ups]
    pqr_p = ctx.div(ctx.mul(P_, Q_, R_), p_)
    ppq_r = ctx.div(ctx.mul(p_, P_, Q_), R_)
    pqr_P = ctx.div(ctx.mul(p_, Q_, R_), P_)
    ppr_q = ctx.div(ctx.mul(p_, P_, R_), Q_)
    downs = [(pqr_p, pqr_p), (ctx.div(ctx.mul(a, ppq_r), c), ppq_r),
             (ctx.div(ctx.mul(a, pqr_P), b), pqr_P),
             (ctx.mul(b, c, ppr_q), ppr_q)]
    return Summand(ctx, ups=ups, downs=downs)


def sv_linear(ctx: Ctx, p_, P_, Q_, R_, a, b, c) -> dict:
    """The four linear factors over their n = 0 values, as the `heads`
    and the constant `factors` of a `Summand`."""
    one = ctx.one()
    ws = [a, b, ctx.inv(c), ctx.div(a, ctx.mul(b, c))]
    rs = [ctx.mul(p_, P_, Q_, R_), ctx.div(ctx.mul(p_, P_), ctx.mul(Q_, R_)),
          ctx.div(ctx.mul(P_, Q_), ctx.mul(p_, R_)),
          ctx.div(ctx.mul(p_, Q_), ctx.mul(P_, R_))]
    den = ctx.inv(ctx.mul(*(ctx.sub(one, w) for w in ws)))
    return {"heads": list(zip(ws, rs)),
            "factors": [constant(den)]}


# ---------------------------------------------------------------------------
# exact conveniences
# ---------------------------------------------------------------------------

def _exact(order: int, values):
    """`values(ctx)` computed in `exact_run`, as series cut at `order`."""
    return exact_run(order, lambda ctx: tuple(
        ctx.finalize(v).truncate(order) for v in values(ctx)))


# the benchmark's micro.bailey.cor_sides_o30 calls it (ROADMAP item 1)
def cor_sides(alpha: AlphaSequence, x: QMonomial, y: QMonomial, z: QMonomial,
              order: int = DEFAULT_ORDER) -> Tuple[LaurentSeries, LaurentSeries]:
    """Both sides of the central partial-sum transform (see
    `cor_transform`) with beta_n the partial sums of alpha, at `order`."""
    if x.is_one or (x * y * z).is_one or (x * y).is_one or (x * z).is_one:
        raise DegenerateDenominator("prefactor vanishes at this specialization")
    if x.exp < 1 and not x.is_zero:
        raise ValuationStall("series argument x has no valuation growth")

    def sides(ctx):
        f = alpha.factor(ctx)
        return cor_transform(ctx, x, y, z, running_sums(ctx, f), f)

    return _exact(order, sides)
