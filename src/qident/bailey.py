"""Well-poised pair machinery: the two-parameter alpha/beta relation, the
iterable chain step, the infinite transform it implies, the central
partial-sum transform, telescoping alpha builders, and the finite
multi-base telescoping identity.

The transforms are written once, against the `Ctx` algebra of
`context.py`, so that the catalog records and the exact API below share
them under both the exact and the numeric strategy:

  * `Summand`, `Factor` -- a summand declared rather than written: s^n,
    a q-power, Pochhammers of length k n + l, heads 1 - w r^n and opaque
    factors with valuation floors. It evaluates under either context and
    gives the exact strategy its stopping certificate; every sum below
    and in the catalog passes one;
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
valuation floor, and, where it is known, a `support` past which alpha_n
is zero) or as a nested `Summand`; `wp_transform` takes the function,
its support and its floor.

`wp_beta`, `wp_chain_step`, `thm_transform_sides`, `cor_sides`,
`subbarao_verma_sides` and `phi_rs` are thin exact wrappers: they reject
degenerate specializations, run the shared code in `context.exact_run`
(which finds the working order the Laurent dips of their arguments
need), and return truncated Laurent series at the caller's order. Their
parameters are monomials c * q^e or plain rationals, and their alpha
sequences (`AlphaSequence`) produce values per index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import ceil, floor, lcm
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

from .context import Ctx, ExactCtx, exact_run
from .errors import DegenerateDenominator, LowerParameterPole, ValuationStall
from .qfunc import ValuationLaw, Value, as_monomial, poch_law
from .series import DEFAULT_ORDER, LaurentSeries, QMonomial

_Q = QMonomial.of(1, 1)

AlphaFn = Callable[[int, int], Value]   # (n, order) -> value


def _value_sub(x: Value, y: Value) -> Value:
    if isinstance(x, (Fraction, int)) and isinstance(y, (Fraction, int)):
        return Fraction(x) - Fraction(y)
    return LaurentSeries.coerce(x) - LaurentSeries.coerce(y)


class AlphaSequence:
    """A re-entrant sequence n -> value feeding the summation engines.

    `support`, when set, promises the value is zero for n > support (an
    optimization and a termination certificate). `floor` promises every
    value has valuation at least `floor` (q-units); an exact sum over the
    sequence stops on it (see `Factor`), and raises ValuationStall while
    it is None, the default: nothing is known.
    """

    def __init__(self, fn: AlphaFn, support: Optional[int] = None,
                 floor: Optional[int] = None):
        self.fn = fn
        self.support = support
        self.floor = floor

    def value(self, n: int, order: int) -> Value:
        if self.support is not None and n > self.support:
            return Fraction(0)
        return self.fn(n, order)

    @staticmethod
    def from_values(values) -> "AlphaSequence":
        """The finite sequence of `values`, with its support and, as its
        floor, the least valuation among them."""
        vals = list(values)
        lows = [v.eff_min_deg() if isinstance(v, LaurentSeries)
                else as_monomial(v).exp for v in vals
                if not (v == 0 if isinstance(v, (Fraction, int))
                        else v.is_zero)]
        return AlphaSequence(lambda n, order: vals[n] if n < len(vals) else Fraction(0),
                             support=len(vals) - 1,
                             floor=floor(min(lows, default=0)))


def unit_alpha() -> AlphaSequence:
    """alpha_0 = 1 and nothing else: the canonical seed sequence."""
    return AlphaSequence.from_values([Fraction(1)])


def partial_sums(alpha: AlphaSequence, n: int, order: int) -> LaurentSeries:
    """beta_n = sum of alpha_0..alpha_n, as a series at `order`."""
    acc = LaurentSeries.zero(order)
    for j in range(n + 1):
        acc = acc + LaurentSeries.coerce(alpha.value(j, order), order)
    return acc


@dataclass(frozen=True)
class WPPair:
    """A pair (alpha, a, k) subject to the defining beta relation."""

    alpha: AlphaSequence
    a: Value
    k: Value


@dataclass(frozen=True)
class ChainParams:
    """Step parameters (rho1, rho2, target k); c is always derived."""

    rho1: QMonomial
    rho2: QMonomial
    k: QMonomial

    def c_for(self, a: Value) -> QMonomial:
        am = as_monomial(a)
        if am is None or am.is_zero:
            raise DegenerateDenominator("chain step needs a nonzero monomial a")
        return self.k * self.rho1 * self.rho2 / (am * _Q)


def _require_monomial(v: Value, what: str) -> QMonomial:
    m = as_monomial(v)
    if m is None:
        raise TypeError(f"{what} must be a monomial-like value")
    return m


# ---------------------------------------------------------------------------
# the transforms over Ctx
# ---------------------------------------------------------------------------

class Factor(NamedTuple):
    """An opaque factor f_n of a summand (alpha_n, beta_n, an inner sum):
    `at(n)`, a valuation floor, and optionally the `support` past which
    f_n is zero. The floor is an int (t-units) that bounds every f_n, a
    `Summand` whose bound at n bounds f_n, or None, the default, when no
    floor is known (an exact sum over it then raises ValuationStall)."""

    at: Callable[[int], object]
    floor: Union[int, "Summand", None] = None
    support: Optional[int] = None

    def __call__(self, n: int):
        return self.at(n)

    def law(self) -> ValuationLaw:
        f = self.floor
        if f is None:
            raise ValuationStall("opaque factor without a valuation floor")
        law = f.law() if isinstance(f, Summand) else ValuationLaw(c=f)
        return law + ValuationLaw(support=self.support)


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


class Summand(_SummandFields):
    """The n-th term of a sum, declared rather than written:

        s^n p^(A n^2 + B n + C)
          * prod (u; b_u)_(k n + l) / prod (d; b_d)_(k n + l)
          * prod (1 - w r^n)^(+1 or -1) * prod f_n,

    with `power` = (A, B, C) (each default 0) and p = q unless given.
    `ups` and `downs` hold (argument, base) pairs, of length n, or
    (argument, base, k, l); `heads` hold (w, r) pairs, or (w, r, True)
    for an inverse head; `factors` the opaque f_n, each a `Factor` or a
    nested Summand in the same n. `support`, when set, promises the term
    is zero past it. It is an immutable tuple of those fields
    (`_replace` makes a variant).

    Called with n it is the term in its context, for either strategy:
    the Pochhammers of each length are one `ctx.quotient` (s^n rides on
    the one of length n, if there is one), and the power, the heads and
    the f_n are the `more` of its `(n, *more)`.

    `law()` (ExactCtx only) is the term's `ValuationLaw` in t-units, the
    certificate that `ExactCtx.summation` stops on (Gasper & Rahman,
    section 1.2: the term ratio is rational in q^n). s^n and the power
    give the quadratic, each upper Pochhammer its dip and its vanishing
    factor (`poch_law`), each head 1 - w r^n a kink min(0, exp(w) + n
    exp(r)), each f_n its floor. Lower Pochhammers, inverse heads and the
    very-well-poised factor never lower the valuation, so they add
    nothing.
    """

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        for f in self.factors:
            if not isinstance(f, (Factor, Summand)):
                raise TypeError("a summand's opaque factor is a Factor or "
                                "a Summand, not a bare callable")
        return self

    @cached_property
    def _plan(self):
        """What a call evaluates, built once: the quotient of length n
        with s^n (None if it has no Pochhammer: s^n then goes to `more`
        as `pow_int`); the rest of `more`, None when there is none: the
        (k, l, quotient) of every other length, whether s^n stands alone,
        the power as integers (A, B, C, den) over one denominator (None
        when it is 0) and the heads as (w, r, inverse); and the f_n as
        plain callables."""
        groups = {}
        for i, pairs in enumerate((self.ups, self.downs)):
            for pair in pairs:
                key = tuple(pair[2:]) or (1, 0)
                if key not in groups:
                    groups[key] = ([], [])
                groups[key][i].append(pair[:2])
        ctx = self.ctx
        ups, downs = groups.pop((1, 0), ((), ()))
        main = ctx.quotient(ups, downs, self.s) if ups or downs else None
        others = [(k, l, ctx.quotient(u, d)) for (k, l), (u, d)
                  in groups.items()]
        power = (*self.power, 0, 0, 0)[:3]
        den = lcm(*(x.denominator for x in power))
        coefs = tuple(x.numerator * (den // x.denominator) for x in power)
        heads = [(w, r, bool(inverse and inverse[0]))
                 for w, r, *inverse in self.heads]
        lead = (others, main is None and self.s is not None,
                coefs + (den,) if any(coefs) else None, heads)
        return (main, lead if any(lead) else None,
                [f.at if isinstance(f, Factor) else f._direct()
                 for f in self.factors])

    def _direct(self):
        """The term as a plain callable: its quotient when it has no
        other factor, else itself."""
        main, lead, factors = self._plan
        return main if main and not (lead or factors) else self

    def __call__(self, n: int):
        main, lead, factors = self._plan
        more = [f(n) for f in factors] if factors else []
        if lead is not None:
            others, s_alone, power, heads = lead
            ctx = self.ctx
            for k, l, quotient in others:
                more.append(quotient(k * n + l))
            if s_alone:
                more.append(ctx.pow_int(self.s, n))
            if power:
                a, b, c, den = power
                e, r = divmod((a * n + b) * n + c, den)
                more.append(ctx.qpow(Fraction(e * den + r, den) if r else e)
                            if self.p is None else ctx.pow_int(self.p, e))
            for w, r, inverse in heads:
                head = ctx.sub(ctx.one(), ctx.mul(w, ctx.pow_int(r, n)))
                more.append(ctx.inv(head) if inverse else head)
        if main is None:
            return self.ctx.mul(*more)
        return main(n, *more) if more else main(n)

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


def _total(ctx: Ctx, terms):
    """ctx-sum of a list of terms; a single term stays as it is (under
    ExactCtx an unmultiplied product), the empty sum is 0."""
    return reduce(ctx.add, terms) if terms else ctx.num(0)


def wp_beta_sum(ctx: Ctx, a, k, alpha_at, n: int,
                support: Optional[int] = None):
    """beta_n from the defining relation

        beta_n = sum_{j<=n} (k/a)_{n-j} (k)_{n+j} / ((q)_{n-j} (aq)_{n+j})
                 * alpha_j,

    skipping the j above `support`."""
    qq = ctx.qpow(1)
    ka, aq = ctx.div(k, a), ctx.mul(a, qq)
    top = n if support is None else min(n, support)
    return _total(ctx, [
        ctx.mul(ctx.poch(ka, qq, n - j), ctx.poch(k, qq, n + j),
                ctx.inv_poch(qq, qq, n - j), ctx.inv_poch(aq, qq, n + j),
                alpha_at(j))
        for j in range(top + 1)])


def wp_transform(ctx: Ctx, a, k, r1, r2, alpha_at,
                 support: Optional[int] = None, floor: Optional[int] = None):
    """Both sides of the infinite well-poised transform

      sum vwp(k, n) (r1, r2)_n / (kq/r1, kq/r2)_n z^n beta_n
        = [ (kq, kq/r1r2, aq/r1, aq/r2)_inf / (kq/r1, kq/r2, z, aq)_inf ]
          * sum (r1, r2)_n / (aq/r1, aq/r2)_n z^n alpha_n,

    with z = aq/(r1 r2) and beta_n from `wp_beta_sum`. k = 0 reduces it to
    the classical transform for a pair relative to a. With a known
    `support` the right sum is the finite sum over n <= support. `floor`
    is a valuation floor of every alpha_n (t-units; see `Factor`), needed
    for the exact sums; beta_n is bounded by it and the dips of (k/a)_n
    and (k)_n.
    """
    qq = ctx.qpow(1)
    aq, kq = ctx.mul(a, qq), ctx.mul(k, qq)
    z = ctx.div(aq, ctx.mul(r1, r2))
    kq1, kq2 = ctx.div(kq, r1), ctx.div(kq, r2)
    aq1, aq2 = ctx.div(aq, r1), ctx.div(aq, r2)
    ups = [(r1, qq), (r2, qq)]
    beta = Factor(lambda n: wp_beta_sum(ctx, a, k, alpha_at, n, support),
                  Summand(ctx, ups=[(ctx.div(k, a), qq, 0, 0), (k, qq, 0, 0)],
                          factors=[Factor(alpha_at, floor)]))
    lhs_term = Summand(ctx, z, ups=ups, downs=[(kq1, qq), (kq2, qq)],
                       factors=[Factor(lambda n: ctx.vwp(k, n), 0), beta])
    rhs_term = Summand(ctx, z, ups=ups, downs=[(aq1, qq), (aq2, qq)],
                       factors=[Factor(alpha_at, floor, support)])

    pref = ctx.mul(
        ctx.poch_inf(kq, qq), ctx.poch_inf(ctx.div(kq, ctx.mul(r1, r2)), qq),
        ctx.poch_inf(aq1, qq), ctx.poch_inf(aq2, qq),
        ctx.inv_poch_inf(kq1, qq), ctx.inv_poch_inf(kq2, qq),
        ctx.inv_poch_inf(z, qq), ctx.inv_poch_inf(aq, qq))
    rhs_sum = ctx.summation(rhs_term) if support is None else \
        _total(ctx, [rhs_term(n) for n in range(support + 1)])
    return ctx.summation(lhs_term), ctx.mul(pref, rhs_sum)


def wp_chain_alpha(ctx: Ctx, a, r1, r2, alpha_at, n: int):
    """alpha'_n of the chain step from the pair (alpha, a, c) to
    (alpha', a, k), with c = k r1 r2 / (a q):

        alpha'_n = (r1, r2)_n / (aq/r1, aq/r2)_n (k/c)^n alpha_n,

    where k/c = aq/(r1 r2), so alpha' does not depend on k."""
    qq = ctx.qpow(1)
    aq = ctx.mul(a, qq)
    quot = ctx.quotient([(r1, qq), (r2, qq)],
                        [(ctx.div(aq, r1), qq), (ctx.div(aq, r2), qq)],
                        ctx.div(aq, ctx.mul(r1, r2)))
    return quot(n, alpha_at(n))


def wp_chain_beta(ctx: Ctx, a, k, r1, r2, alpha_at, n: int,
                  support: Optional[int] = None):
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
               wp_beta_sum(ctx, a, c, alpha_at, j, support))
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
        factors=[Factor(lambda n: ctx.vwp(k, step * n, base), 0), beta]))


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
    return cor_lhs(ctx, x, y, z, beta), \
        ctx.mul(cor_pref(ctx, x, y, z),
                cor_rhs_sum(ctx, x, y, z, alpha, arg))


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


def running_sums(ctx: Ctx, alpha: Factor) -> Factor:
    """Partial-sum cache: beta(n) = alpha(0) + .. + alpha(n), with the
    floor of `alpha` when that is a number."""
    cache = []

    def beta(n):
        while len(cache) <= n:
            v = alpha(len(cache))
            cache.append(ctx.add(cache[-1], v) if cache else v)
        return cache[n]

    floor = getattr(alpha, "floor", None)
    return Factor(beta, floor if isinstance(floor, int) else None)


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
    return {"heads": list(zip(ws, rs)), "factors": [Factor(lambda n: den, 0)]}


# ---------------------------------------------------------------------------
# the exact API: thin wrappers, the chain step, telescoping
# ---------------------------------------------------------------------------

def _exact(order: int, values):
    """`values(ctx)` computed in `exact_run`, as series cut at `order`."""
    return exact_run(order, lambda ctx: tuple(
        ctx.finalize(v).truncate(order) for v in values(ctx)))


def _values(alpha: AlphaSequence, ctx: ExactCtx) -> Factor:
    return Factor(lambda n: alpha.value(n, ctx.order), alpha.floor,
                  alpha.support)


def phi_rs(upper: Sequence[Value], lower: Sequence[Value], base: QMonomial,
           z: Value, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """The r-phi-s series of `phi_term`, summed exactly to `order`.

    Lower parameters sitting on a pole of the term ratio (l = base^{-m}
    within the summation range) are rejected with LowerParameterPole. An
    upper parameter on a negative power (the terminating (q^-N; q)_n)
    dips below degree 0; `exact_run` builds the products as much above
    `order` as the dip needs."""
    zm = _require_monomial(z, "phi_rs argument z")
    for l in lower:
        _require_monomial(l, "phi_rs lower parameter")
    if zm.is_zero:
        return LaurentSeries.one(order)
    try:
        return _exact(order, lambda ctx: [ctx.summation(
            phi_term(ctx, upper, lower, base, zm))])[0]
    except DegenerateDenominator as ex:
        raise LowerParameterPole(str(ex)) from ex


def wp_beta(pair: WPPair, n: int, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """beta_n of the pair (see `wp_beta_sum`) as a series at `order`."""
    a = _require_monomial(pair.a, "a")
    k = _require_monomial(pair.k, "k")
    if a.is_zero:
        raise DegenerateDenominator("a = 0 makes (aq)_n collapse")
    return _exact(order, lambda ctx: [wp_beta_sum(
        ctx, a, k, _values(pair.alpha, ctx), n, pair.alpha.support)])[0]


def wp_chain_step(pair: WPPair, params: ChainParams,
                  order: int = DEFAULT_ORDER
                  ) -> Tuple[WPPair, Callable[[int], LaurentSeries]]:
    """One chain step: a new pair (alpha', a, k) plus its closed-form beta'.

    The input alpha is taken as the seed sequence at parameters (a, c) with
    c = k rho1 rho2 / (a q); the matching beta_j(a, c) values are recomputed
    from the defining relation. The weight product (k rho1/a, k rho2/a)_j
    inside the sum is indexed by the summation index (the commonly printed
    index n there fails the defining relation; closure tests pin this down).
    See `wp_chain_alpha` and `wp_chain_beta`.
    """
    a = _require_monomial(pair.a, "a")
    r1, r2, k = params.rho1, params.rho2, params.k
    c = params.c_for(a)
    if c.is_one:
        raise DegenerateDenominator("derived c = 1 degenerates the step")
    for name, arg in (("aq/rho1", a * _Q / r1), ("aq/rho2", a * _Q / r2),
                      ("k*rho1/a", k * r1 / a), ("k*rho2/a", k * r2 / a),
                      ("qc", _Q * c)):
        if arg.is_one:
            raise DegenerateDenominator(f"{name} = 1 at this specialization")

    def alpha_prime(n: int, wo: int) -> LaurentSeries:
        return _exact(wo, lambda ctx: [wp_chain_alpha(
            ctx, a, r1, r2, _values(pair.alpha, ctx), n)])[0]

    def beta_prime(n: int, wo: int = order) -> LaurentSeries:
        return _exact(wo, lambda ctx: [wp_chain_beta(
            ctx, a, k, r1, r2, _values(pair.alpha, ctx), n,
            pair.alpha.support)])[0]

    # alpha'_n's floor: the dips of (r1, r2)_n, (aq/(r1 r2))^n and alpha_n
    floor, top = pair.alpha.floor, pair.alpha.support
    z = a * _Q / (r1 * r2)
    if floor is not None and (z.exp >= 0 or top is not None):
        floor = ceil((poch_law(r1, _Q) + poch_law(r2, _Q) + ValuationLaw(
            b=z.exp, c=floor, support=top)).least(0))
    else:
        floor = None
    new_alpha = AlphaSequence(alpha_prime, top, floor)
    return WPPair(new_alpha, pair.a, params.k), beta_prime


def thm_transform_sides(pair: WPPair, rho1: QMonomial, rho2: QMonomial,
                        order: int = DEFAULT_ORDER
                        ) -> Tuple[LaurentSeries, LaurentSeries]:
    """Both sides of the infinite well-poised transform (see
    `wp_transform`) for the pair, at `order`."""
    a = _require_monomial(pair.a, "a")
    k = _require_monomial(pair.k, "k")
    z = a * _Q / (rho1 * rho2)
    for arg in (k * _Q, k * _Q / (rho1 * rho2), a * _Q / rho1, a * _Q / rho2,
                k * _Q / rho1, k * _Q / rho2, z, a * _Q):
        if arg.is_one:
            raise DegenerateDenominator(f"infinite product at {arg} vanishes")
    if z.exp < 1:
        raise ValuationStall("series argument aq/(rho1 rho2) has no "
                             "valuation growth")
    return _exact(order, lambda ctx: wp_transform(
        ctx, a, k, rho1, rho2, _values(pair.alpha, ctx), pair.alpha.support,
        pair.alpha.floor))


def cor_sides(alpha: AlphaSequence, x: QMonomial, y: QMonomial, z: QMonomial,
              order: int = DEFAULT_ORDER) -> Tuple[LaurentSeries, LaurentSeries]:
    """Both sides of the central partial-sum transform (see
    `cor_transform`) with beta_n the partial sums of alpha, at `order`."""
    if x.is_one or (x * y * z).is_one or (x * y).is_one or (x * z).is_one:
        raise DegenerateDenominator("prefactor vanishes at this specialization")
    if x.exp < 1 and not x.is_zero:
        raise ValuationStall("series argument x has no valuation growth")
    return _exact(order, lambda ctx: cor_transform(
        ctx, x, y, z, running_sums(ctx, _values(alpha, ctx)),
        _values(alpha, ctx)))


def telescope_alpha(t: AlphaFn, floor: Optional[int] = None
                    ) -> AlphaSequence:
    """alpha_0 = t_0 and alpha_n = t_n - t_{n-1}: partial sums recover t.
    A valuation floor of every t_n is one of every alpha_n."""

    def fn(n: int, order: int) -> Value:
        if n == 0:
            return t(0, order)
        return _value_sub(t(n, order), t(n - 1, order))

    return AlphaSequence(fn, floor=floor)


def subbarao_verma_sides(n: int, a: Value, b: Value, c: Value,
                         p: QMonomial, P: QMonomial, Q: QMonomial,
                         R: QMonomial, order: int = DEFAULT_ORDER
                         ) -> Tuple[LaurentSeries, LaurentSeries]:
    """The finite multi-base telescoping identity: for every n >= 0 the sum

      sum_{j<=n} [four linear factors at index j] / [same at 0]
                 * (a;p^2)_j (b;P^2)_j (c;R^2)_j (a/bc;Q^2)_j * R^{2j}
                   / ((PQR/p;PQR/p)_j (apPQ/cR;pPQ/R)_j
                      (apQR/bP;pQR/P)_j (bcpPR/Q;pPR/Q)_j)

    equals the closed product with every numerator argument advanced by the
    square of its base (`sv_linear`, `sv_quotient`). Both sides are
    returned for comparison.
    """
    am, bm, cm = (_require_monomial(v, w) for v, w in
                  ((a, "a"), (b, "b"), (c, "c")))
    for name, val in (("1-a", am), ("1-b", bm)):
        if val.is_one:
            raise DegenerateDenominator(f"{name} vanishes")
    if cm.is_zero:
        raise DegenerateDenominator("c = 0 collapses 1 - 1/c")
    inv_c = QMonomial.of(1) / cm
    ratio = am / (bm * cm)
    if inv_c.is_one or ratio.is_one:
        raise DegenerateDenominator("a constant denominator factor vanishes")
    bases = (p, P, Q, R, am, bm, cm)

    def sides(ctx):
        term = sv_quotient(ctx, *bases, False)._replace(
            s=ctx.pow_int(R, 2), **sv_linear(ctx, *bases))
        return _total(ctx, [term(j) for j in range(n + 1)]), \
            sv_quotient(ctx, *bases, True)(n)

    return _exact(order, sides)
