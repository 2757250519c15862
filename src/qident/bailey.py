"""Well-poised pair machinery: the two-parameter alpha/beta relation, the
iterable chain step, the infinite transform it implies, the central
partial-sum transform, telescoping alpha builders, and the finite
multi-base telescoping identity.

The transforms are written once, against the `Ctx` algebra of
`context.py`, so that the catalog records and the exact API below share
them under both the exact and the numeric strategy:

  * `poch_quotient` -- (n, *more) -> s^n times a Pochhammer quotient in
    one base, times a term's other factors: `ctx.quotient`, the shape of
    most summands below (the geometric factor z^n or x^n of a summand is
    its s);
  * `wp_beta_sum` -- beta_n from the defining relation;
  * `wp_chain_alpha`, `wp_chain_beta` -- the chain step: the new alpha,
    and the closed form of its beta;
  * `wp_transform` -- both sides of the infinite well-poised transform
    for a general alpha;
  * `cor_pref`, `cor_lhs`, `cor_rhs_sum`, `cor_transform` and
    `running_sums` -- the central partial-sum transform, the relation at
    k = aq where beta_n is the n-th partial sum of alpha;
  * `sv_quotient`, `sv_linear` -- n -> the multi-base quotient, and its
    four linear factors;
  * `phi_term` -- n -> the term of the basic hypergeometric series
    r-phi-s, a Pochhammer quotient times z^n.

A sequence enters them as a function `alpha_at(n)` to context values,
plus, where it is known, a `support` past which alpha_n is zero.

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
from functools import reduce
from typing import Callable, Optional, Sequence, Tuple

from .context import Ctx, ExactCtx, exact_run
from .errors import DegenerateDenominator, LowerParameterPole, ValuationStall
from .qfunc import Value, as_monomial
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
    optimization and a termination certificate).
    """

    def __init__(self, fn: AlphaFn, support: Optional[int] = None):
        self.fn = fn
        self.support = support

    def value(self, n: int, order: int) -> Value:
        if self.support is not None and n > self.support:
            return Fraction(0)
        return self.fn(n, order)

    @staticmethod
    def from_values(values) -> "AlphaSequence":
        vals = list(values)
        return AlphaSequence(lambda n, order: vals[n] if n < len(vals) else Fraction(0),
                             support=len(vals) - 1)


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

def _total(ctx: Ctx, terms):
    """ctx-sum of a list of terms; a single term stays as it is (under
    ExactCtx an unmultiplied product), the empty sum is 0."""
    return reduce(ctx.add, terms) if terms else ctx.num(0)


def poch_quotient(ctx: Ctx, ups, downs, base, s=None):
    """(n, *more) -> s^n prod (u; base)_n / prod (d; base)_n over u in ups
    and d in downs (no s^n when s is None), times the term's other factors
    `more`: `ctx.quotient` with every factor in `base`. Both contexts
    step it by its term ratio (under ExactCtx a PochTower kept per
    factor tuple, so a term is one series part and one ctx.mul), so
    build the quotient once per sum."""
    return ctx.quotient([(u, base) for u in ups], [(d, base) for d in downs],
                        s)


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
                 support: Optional[int] = None):
    """Both sides of the infinite well-poised transform

      sum vwp(k, n) (r1, r2)_n / (kq/r1, kq/r2)_n z^n beta_n
        = [ (kq, kq/r1r2, aq/r1, aq/r2)_inf / (kq/r1, kq/r2, z, aq)_inf ]
          * sum (r1, r2)_n / (aq/r1, aq/r2)_n z^n alpha_n,

    with z = aq/(r1 r2) and beta_n from `wp_beta_sum`. k = 0 reduces it to
    the classical transform for a pair relative to a. With a known
    `support` the right sum is the finite sum over n <= support.
    """
    qq = ctx.qpow(1)
    aq, kq = ctx.mul(a, qq), ctx.mul(k, qq)
    z = ctx.div(aq, ctx.mul(r1, r2))
    kq1, kq2 = ctx.div(kq, r1), ctx.div(kq, r2)
    aq1, aq2 = ctx.div(aq, r1), ctx.div(aq, r2)

    lhs_quot = poch_quotient(ctx, [r1, r2], [kq1, kq2], qq, z)
    rhs_quot = poch_quotient(ctx, [r1, r2], [aq1, aq2], qq, z)

    def lhs_term(n):
        return lhs_quot(n, ctx.vwp(k, n),
                        wp_beta_sum(ctx, a, k, alpha_at, n, support))

    def rhs_term(n):
        return rhs_quot(n, alpha_at(n))

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
    quot = poch_quotient(ctx, [r1, r2], [ctx.div(aq, r1), ctx.div(aq, r2)],
                         qq, ctx.div(aq, ctx.mul(r1, r2)))
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
    weight = poch_quotient(ctx, [r1, r2], [kr1, kr2], qq, kc)
    inner = _total(ctx, [
        weight(j, ctx.vwp(c, j),
               ctx.poch(kc, qq, n - j), ctx.poch(k, qq, n + j),
               ctx.inv_poch(qq, qq, n - j), ctx.inv_poch(qc, qq, n + j),
               wp_beta_sum(ctx, a, c, alpha_at, j, support))
        for j in range(n + 1)])
    return poch_quotient(ctx, [kr1, kr2], [aq1, aq2], qq)(n, inner)


def cor_pref(ctx: Ctx, x, y, z):
    """(1 - xy)(1 - xz) / ((1 - x)(1 - xyz))."""
    one = ctx.one()
    num = ctx.mul(ctx.sub(one, ctx.mul(x, y)), ctx.sub(one, ctx.mul(x, z)))
    den = ctx.mul(ctx.sub(one, x), ctx.sub(one, ctx.mul(x, y, z)))
    return ctx.mul(num, ctx.inv(den))


def cor_lhs(ctx: Ctx, x, y, z, beta_at, idx=lambda n: n, base=None):
    """sum vwp(xyz, i) (y, z; p)_i x^i beta(n) / ((pxy, pxz; p)_i) with
    i = idx(n) and base p (default q); beta_at receives the summation
    index n."""
    k = ctx.mul(x, y, z)
    p = ctx.qpow(1) if base is None else base
    quot = poch_quotient(ctx, [y, z], [ctx.mul(p, x, y), ctx.mul(p, x, z)], p,
                         x)

    def term(n):
        i = idx(n)
        return quot(i, ctx.vwp(k, i, base), beta_at(n))

    return ctx.summation(term)


def cor_rhs_sum(ctx: Ctx, x, y, z, alpha_at, arg=None, start: int = 0,
                times=1, base=None):
    """times * sum_{n >= start} (y, z; p)_n arg^n alpha(n) / ((xy, xz; p)_n)
    with base p (default q); arg defaults to x, and `start` and `times` go
    to ctx.summation."""
    p = ctx.qpow(1) if base is None else base
    quot = poch_quotient(ctx, [y, z], [ctx.mul(x, y), ctx.mul(x, z)], p,
                         x if arg is None else arg)
    return ctx.summation(lambda n: quot(n, alpha_at(n)), start=start,
                         times=times)


def cor_transform(ctx: Ctx, x, y, z, beta_at, alpha_at, arg=None):
    """Both sides of the central partial-sum transform

      sum vwp(xyz, n) (y, z)_n x^n beta_n / (qxy, qxz)_n
        = (1-xy)(1-xz) / ((1-x)(1-xyz))
          * sum (y, z)_n arg^n alpha_n / (xy, xz)_n,

    which holds with arg = x when beta_n is the n-th partial sum of
    alpha (see `running_sums`); the catalog's telescoped instances pass
    their own beta, alpha and arg."""
    return cor_lhs(ctx, x, y, z, beta_at), \
        ctx.mul(cor_pref(ctx, x, y, z),
                cor_rhs_sum(ctx, x, y, z, alpha_at, arg))


def phi_term(ctx: Ctx, upper, lower, base, z):
    """n -> the n-th term of the basic hypergeometric series r-phi-s
    (Gasper & Rahman, section 1.2) with r upper and s lower parameters:

        (u_1, .., u_r; p)_n / (p, l_1, .., l_s; p)_n
        * ((-1)^n p^{n(n-1)/2})^{s+1-r} * z^n

    with base p."""
    quotient = poch_quotient(ctx, upper, [base, *lower], base, z)
    excess = len(lower) + 1 - len(upper)

    def term(n):
        if not excess:
            return quotient(n)
        sign_power = ctx.mul(ctx.num((-1) ** n),
                             ctx.pow_int(base, n * (n - 1) // 2))
        return quotient(n, ctx.pow_int(sign_power, excess))

    return term


def running_sums(ctx: Ctx, value_at):
    """Partial-sum cache: beta(n) = value(0) + .. + value(n)."""
    cache = []

    def beta(n):
        while len(cache) <= n:
            v = value_at(len(cache))
            cache.append(ctx.add(cache[-1], v) if cache else v)
        return cache[n]

    return beta


def sv_quotient(ctx: Ctx, p_, P_, Q_, R_, a, b, c, shifted: bool):
    """n -> the four-up/four-down base quotient shared by the telescoping
    sum and its closed form (`ctx.quotient` over mixed bases); `shifted`
    advances numerator args by base^2. The eight (argument, base) pairs
    are built once."""
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
    return ctx.quotient(ups, downs)


def sv_linear(ctx: Ctx, p_, P_, Q_, R_, a, b, c, n: int):
    """The four linear factors at index n over their n = 0 values."""
    one = ctx.one()
    combo = ctx.mul(p_, P_, Q_, R_)
    f1 = ctx.sub(one, ctx.mul(a, ctx.pow_int(combo, n)))
    f2 = ctx.sub(one, ctx.mul(b, ctx.pow_int(ctx.div(ctx.mul(p_, P_),
                                                     ctx.mul(Q_, R_)), n)))
    f3 = ctx.sub(one, ctx.mul(ctx.inv(c), ctx.pow_int(
        ctx.div(ctx.mul(P_, Q_), ctx.mul(p_, R_)), n)))
    f4 = ctx.sub(one, ctx.mul(ctx.div(a, ctx.mul(b, c)), ctx.pow_int(
        ctx.div(ctx.mul(p_, Q_), ctx.mul(P_, R_)), n)))
    den = ctx.mul(ctx.sub(one, a), ctx.sub(one, b),
                  ctx.sub(one, ctx.inv(c)),
                  ctx.sub(one, ctx.div(a, ctx.mul(b, c))))
    return ctx.mul(f1, f2, f3, f4, ctx.inv(den))


# ---------------------------------------------------------------------------
# the exact API: thin wrappers, the chain step, telescoping
# ---------------------------------------------------------------------------

def _exact(order: int, values):
    """`values(ctx)` computed in `exact_run`, as series cut at `order`."""
    return exact_run(order, lambda ctx: tuple(
        ctx.finalize(v).truncate(order) for v in values(ctx)))


def _values(alpha: AlphaSequence, ctx: ExactCtx):
    return lambda n: alpha.value(n, ctx.order)


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

    new_alpha = AlphaSequence(alpha_prime, support=pair.alpha.support)
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
        ctx, a, k, rho1, rho2, _values(pair.alpha, ctx), pair.alpha.support))


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


def telescope_alpha(t: AlphaFn) -> AlphaSequence:
    """alpha_0 = t_0 and alpha_n = t_n - t_{n-1}: partial sums recover t."""

    def fn(n: int, order: int) -> Value:
        if n == 0:
            return t(0, order)
        return _value_sub(t(n, order), t(n - 1, order))

    return AlphaSequence(fn)


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
        quot = sv_quotient(ctx, *bases, False)
        return _total(ctx, [
            ctx.mul(sv_linear(ctx, *bases, j), quot(j), ctx.pow_int(R, 2 * j))
            for j in range(n + 1)]), sv_quotient(ctx, *bases, True)(n)

    return _exact(order, sides)
