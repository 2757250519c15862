"""ExactCtx products: a product forced at a sum's goal order is the eager
left fold of its parts, truncated at the goal, in coefficients and order.
Also the stepped quotient against its references, and the one algebra
that both contexts expose."""

import gc
import re
import traceback
import weakref
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qident import context, qfunc
from qident.bailey import Factor, Summand, cor_pref
from qident.context import ExactCtx, NumericCtx
from qident.errors import (DegenerateDenominator, NonTruncatable,
                           OrderInsufficient)
from qident.registry import sample_params, verify_one
from qident.series import LaurentSeries as LS, QMonomial

COEFS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 5), F(7, 3)]
TALL = st.builds(F, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 64))
COEF = st.one_of(st.sampled_from(COEFS), TALL)
NONZERO = COEF.filter(bool)
MONO = st.builds(QMonomial, NONZERO, st.integers(-6, 10))
GOAL = st.integers(0, 12)


@st.composite
def window(draw):
    """A nonzero series that may start below degree 0 (a Laurent dip),
    exact or truncated anywhere from its start to well past the goal."""
    lo = draw(st.integers(-4, 4))
    cs = [draw(NONZERO)] + draw(st.lists(COEF, max_size=5))
    order = draw(st.one_of(st.none(), st.integers(lo, lo + 16)))
    return LS.from_pairs({lo + i: c for i, c in enumerate(cs)}, order)


# one part in eight a zero, exact or truncated, which carries no valuation
# of its own
ZERO = st.one_of(st.none(), st.integers(-2, 14)).map(LS.zero)
PART = st.sampled_from([ZERO] + [window()] * 7).flatmap(lambda s: s)
PARTS = st.lists(PART, min_size=1, max_size=4)


def eager(parts, mono):
    """The full product: the left fold of the parts, then the monomial."""
    return reduce(LS.mul, parts).scale(mono.coef, mono.exp)


def summed(ctx, value):
    """`value` as the only term of a sum (support 0, a floor below every
    drawn product), at the sum's goal."""
    return ctx.summation(Factor(lambda n: value, floor=-100, support=0))


def assert_forced(ctx, product, want, goal):
    try:
        want_at = want.truncate(goal)
    except OrderInsufficient as ex:
        # the product's own order is below the goal: the same error as
        # forcing it in full
        with pytest.raises(OrderInsufficient, match=re.escape(str(ex))):
            summed(ctx, product)
        return
    got = summed(ctx, product)
    assert got.order == want_at.order == goal
    assert dict(got.terms()) == dict(want_at.terms())
    assert got == want_at and hash(got) == hash(want_at)


PRODUCTS = settings(max_examples=150, deadline=None)


@given(PARTS, MONO, GOAL)
@PRODUCTS
def test_product_forced_at_goal_matches_eager_fold(parts, mono, goal):
    ctx = ExactCtx(goal, headroom=0)
    product = ctx.mul(mono, *parts)
    want = eager(parts, mono)
    assert_forced(ctx, product, want, goal)
    assert ctx.finalize(product) == want


@given(st.lists(PART, min_size=2, max_size=5), MONO, MONO, GOAL, st.data())
@PRODUCTS
def test_nested_products_flatten(parts, m1, m2, goal, data):
    ctx = ExactCtx(goal, headroom=0)
    cut = data.draw(st.integers(1, len(parts) - 1))
    inner = ctx.mul(*parts[:cut], m1)
    product = ctx.mul(m2, inner, *parts[cut:])
    want = eager(parts, m1 * m2)
    assert_forced(ctx, product, want, goal)
    assert ctx.finalize(product) == want


@given(PARTS, MONO, PART)
@PRODUCTS
def test_other_operations_force_in_full(parts, mono, other):
    ctx = ExactCtx(8, headroom=0)
    product = ctx.mul(mono, *parts)
    want = eager(parts, mono)
    assert ctx.add(product, other) == want + other
    assert ctx.sub(other, product) == other - want
    assert ctx.neg(product) == -want


def test_nested_mul_merges_parts():
    ctx = ExactCtx(10)
    a, b, c = (LS.from_pairs({0: 1, k: F(1, k + 1)}, 14) for k in (1, 2, 3))
    q2, q3 = ctx.qpow(2), ctx.qpow(3)
    product = ctx.mul(ctx.mul(a, q2), ctx.mul(b, c), q3)
    assert product.parts == (a, b, c)
    assert product.mono == QMonomial.of(1, 5)


def test_zero_monomial_gives_zero_at_working_order():
    ctx = ExactCtx(10)
    a = LS.from_pairs({0: 1, 1: 2}, 14)
    assert ctx.mul(a, a, F(0)) == LS.zero(ctx.order)


def test_low_order_product_raises_from_sum():
    ctx = ExactCtx(10, headroom=0)
    a = LS.from_pairs({0: 1, 1: 2}, 3)
    b = LS.from_pairs({0: 1, 2: -1}, 20)
    with pytest.raises(OrderInsufficient, match="cannot extend order 4 to 10"):
        summed(ctx, ctx.mul(a, b, ctx.qpow(1)))


def test_terms_above_goal_multiply_nothing(monkeypatch):
    ctx = ExactCtx(10, headroom=0)
    a = LS.from_pairs({0: 1, 1: 2, 2: 3}, 14)
    b = LS.from_pairs({-1: F(1, 2), 0: 1, 3: 5}, 14)   # a Laurent dip
    caps = []
    mul = LS.mul

    def counting(self, other, cap=None):
        caps.append(cap)
        return mul(self, other, cap)

    monkeypatch.setattr(LS, "mul", counting)
    def shifted(c, floor):
        """q^(c + n) a b, declared with a floor below a*b's valuation -1,
        so that the sum reaches terms that lie above the goal."""
        return Summand(ctx, power=(0, 1, c),
                       factors=[Factor(lambda n: ctx.mul(a, b), floor)])

    # every term starts at 0 - 1 + 12 + n > 10: no product is formed
    got = ctx.summation(shifted(12, -3))
    assert got == LS.zero(10)
    # nor when an exact zero part makes the whole product zero
    got = ctx.summation(Summand(ctx, power=(0, 1), factors=[
        Factor(lambda n: ctx.mul(a, LS.zero(), b), -1)]))
    assert got == LS.zero(10)
    assert caps == []
    # one q lower the first term reaches the goal: one product, capped
    # at 10 - 11, the only degree of a*b that lands on the window
    got = ctx.summation(shifted(11, -3))
    assert caps == [-1]
    assert got == LS.from_pairs({10: F(1, 2)}, 10)


def test_zero_scalar_adds_no_unit_factor(monkeypatch):
    """At z = 0 (bb-z0) the prefactor's (1 - x*0) is the scalar 1, and
    the prefactor has no series part, at each of the record's seed-1
    draws; over its verdicts at order 20 no product has a factor that is
    exactly 1 through the comparison order. (A partial product that a
    sum's goal caps below it may still read 1 + O(q).)"""
    factors = []
    mul = LS.mul

    def recording(self, other, cap=None):
        factors.extend((self, LS.coerce(other)))
        return mul(self, other, cap)

    monkeypatch.setattr(LS, "mul", recording)
    for a in sample_params("bb-z0", 1, 3, "exact"):
        ctx, x, y = ExactCtx(20), a.values["x"], a.values["y"]
        one = ctx.sub(ctx.one(), ctx.mul(x, ctx.num(0)))
        assert type(one) is F and one == 1
        assert cor_pref(ctx, x, y, ctx.num(0)).parts == ()
        assert verify_one("bb-z0", a, 20).status == "equal"
    units = [s for s in factors if s == LS.one(s.order)
             and (s.order is None or s.order >= 20)]
    assert units == []


# ------------------------------------------------- binomial factors
#
# An infinite product, its inverse, c + m and the very-well-poised ratio
# are kept as integer binomials of an unmultiplied product and applied to
# its dense part when it is forced. Each is checked against the eager
# path: `poch_infinite`/`vwp_factor` windows, `invert` and the left fold
# of `mul`, in value, order, canonical form and raised error.

BASE = st.builds(QMonomial, st.sampled_from([F(1), F(-1), F(2), F(1, 3)]),
                 st.integers(0, 2))
BINOMIAL = st.one_of(
    st.tuples(st.just("poch"), st.builds(
        QMonomial, st.sampled_from(COEFS[:6]), st.integers(-1, 3)), BASE),
    st.tuples(st.just("c+m"), st.sampled_from([F(1), F(-1), F(2), F(1, 2)]),
              MONO.map(lambda m: QMonomial(m.coef, m.exp // 2)),
              st.booleans()),
    st.tuples(st.just("vwp"), st.builds(
        QMonomial, st.sampled_from(COEFS), st.integers(-1, 3)),
        st.integers(0, 3), BASE),
    st.tuples(st.just("dense"), window()))
VALUE = st.tuples(BINOMIAL, st.booleans())      # (value, inverted)


def lazy(ctx, draw):
    """The drawn value as ExactCtx builds it."""
    (kind, *arg), inverted = draw
    if kind == "poch":
        v = ctx.poch_inf(*arg)
    elif kind == "c+m":
        c, m, minus = arg
        v = ctx.sub(c, -m) if minus else ctx.add(c, m)
    elif kind == "vwp":
        v = ctx.vwp(*arg)
    else:
        v = arg[0]
    return ctx.inv(v) if inverted else v


def vanishes(factors) -> bool:
    """Whether one of the integer binomials (p, r, e, invert) of
    `qfunc._binomials` is the constant 0."""
    return any(e == 0 and p == -r for p, r, e, _ in factors)


def eager_value(order, draw):
    """The drawn value on the eager path: a window (or the scalar 1 of
    `vwp` at n = 0 or k = 0, or the exact 0 of a product that ExactCtx
    keeps as binomials, an infinite product or a very-well-poised ratio
    with k and base of exponent >= 0, when one of its constant factors
    vanishes, such as (1; q)_inf), inverted by `LaurentSeries.invert`;
    the exact 0 has no inverse."""
    (kind, *arg), inverted = draw
    if kind == "poch":
        v = qfunc.poch_infinite(*arg, order)
        if vanishes(qfunc.poch_infinite(*arg, order, factors=True)):
            v = F(0)
    elif kind == "c+m":
        v = LS.coerce(arg[0], order) + LS.coerce(arg[1], order)
    elif kind == "vwp":
        k, n, base = arg
        v = F(1) if not k.is_one and (n == 0 or k.is_zero) else \
            qfunc.vwp_factor(k, n, order, base)
        if isinstance(v, LS) and k.exp >= 0 and base.exp >= 0 and \
                vanishes(qfunc.vwp_factor(k, n, base=base, factors=True)):
            v = F(0)
    else:
        v = arg[0]
    if not inverted:
        return v
    if isinstance(v, F) and not v:
        raise DegenerateDenominator("division by zero")
    return 1 / v if isinstance(v, F) else v.invert(order)


def attempt(thunk):
    """thunk()'s value, or the type, message and shortfall it raised."""
    try:
        return thunk()
    except Exception as ex:
        return type(ex), str(ex), getattr(ex, "short", None)


def binomial_faults(draws, mono, goal, headroom):
    """Where ExactCtx's product of the drawn values differs from the eager
    fold of their windows: forced in full, forced at the goal by a sum,
    and inverted."""
    ctx = ExactCtx(goal, headroom=headroom)
    order = ctx.order
    want = attempt(lambda: [eager_value(order, d) for d in draws])
    got = attempt(lambda: [lazy(ctx, d) for d in draws])
    if not isinstance(want, list) or not isinstance(got, list):
        return [] if got == want else [("build", got, want)]
    windows = [v for v in want if isinstance(v, LS)]
    # a monomial when no window is involved; when a value is the exact 0,
    # that 0, or beside a window the zero window at the construction
    # order, as `ExactCtx.mul` of a rational 0 and a window is
    if any(isinstance(v, F) and not v for v in want):
        full = LS.zero(order) if windows else QMonomial.of(0)
    else:
        full = mono if not windows else \
            reduce(LS.mul, windows).scale(mono.coef, mono.exp)

    def inverse():
        if not isinstance(full, QMonomial):
            return full.invert(order)
        if full.is_zero:
            raise DegenerateDenominator("division by zero")
        return QMonomial.of(1) / full

    def at_goal(v):
        return LS.coerce(v, goal).truncate(goal)

    product = ctx.mul(mono, *got)
    checks = [
        ("full", lambda: ctx.finalize(product),
         lambda: LS.coerce(full, order)),
        ("goal", lambda: summed(ctx, product), lambda: at_goal(full)),
        ("inv", lambda: ctx.finalize(ctx.inv(product)),
         lambda: LS.coerce(inverse(), order)),
        ("inv at goal", lambda: summed(ctx, ctx.inv(product)),
         lambda: at_goal(inverse()))]
    faults = []
    for name, lazy_thunk, eager_thunk in checks:
        a, b = attempt(lazy_thunk), attempt(eager_thunk)
        if not (a == b and (not isinstance(a, LS) or (
                a.order, a.min_deg, a.nums, a.den, hash(a)) == (
                b.order, b.min_deg, b.nums, b.den, hash(b)))):
            faults.append((name, a, b))
    return faults


@given(st.lists(VALUE, min_size=1, max_size=4), MONO, GOAL,
       st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_binomial_factors_match_eager_windows(draws, mono, goal, headroom):
    assert binomial_faults(draws, mono, goal, headroom) == []


def test_binomial_factors_stay_unmultiplied():
    ctx = ExactCtx(20)
    Q = ctx.q
    dense = LS.from_pairs({-1: 1, 0: 2, 3: F(1, 3)}, 20)
    for v in (ctx.poch_inf(Q, Q), ctx.inv(ctx.poch_inf(QMonomial.of(2), Q)),
              ctx.sub(F(1), ctx.qpow(3)), ctx.vwp(ctx.qpow(2), 3),
              ctx.vwp(F(1, 2), 1)):
        product = ctx.mul(v, dense)
        assert isinstance(product, context._Product)
        assert product.parts == (dense,)
        assert product.order == ctx.order
    # a constant first factor folds into the monomial: (2; q)_inf is
    # -1 times the binomials of (2q; q)_inf
    twice = ctx.poch_inf(QMonomial.of(2), Q)
    assert twice.mono == QMonomial.of(-1) and twice.parts == ()
    # (1; q)_inf is exactly 0, and has no inverse
    assert ctx.poch_inf(QMonomial.of(1), Q) == QMonomial.of(0)
    with pytest.raises(DegenerateDenominator):
        ctx.inv(ctx.poch_inf(QMonomial.of(1), Q))


#: fixed draws: each applies an inverted binomial, and the last two a
#: dense part known past the cap of its binomials
BINOMIAL_DRAWS = [
    ([(("poch", QMonomial.of(1, 1), QMonomial.of(1, 1)), True)],
     QMonomial.of(1), 6, 2),
    ([(("c+m", F(1), QMonomial.of(-1, 2), False), True),
      (("dense", LS.from_pairs({-2: 1, 0: 3}, 12)), False)],
     QMonomial.of(2, 1), 8, 0),
    ([(("vwp", QMonomial.of(F(1, 2), 1), 2, QMonomial.of(1, 1)), False),
      (("dense", LS.from_pairs({1: 1, 2: -1})), False)],
     QMonomial.of(1), 10, 3)]


def test_binomial_check_catches_mutants(monkeypatch):
    assert all(binomial_faults(*d) == [] for d in BINOMIAL_DRAWS)
    with monkeypatch.context() as m:
        # an inverse whose binomials are applied unflipped
        times = context._times
        m.setattr(context, "_times", lambda s, fs, order=None: times(
            s, [(p, r, e, False) for p, r, e, _ in fs], order))
        assert all(binomial_faults(*d) != [] for d in BINOMIAL_DRAWS)
    with monkeypatch.context() as m:
        # the binomials' windows taken as known one order too high
        known = context._Product._known
        m.setattr(context._Product, "_known",
                  lambda self, low: known(self, low) + 1)
        assert all(binomial_faults(*d) != [] for d in BINOMIAL_DRAWS[1:])


def test_forcing_short_of_the_goal_multiplies_nothing(monkeypatch):
    """A product of dense parts and binomials whose order is below the
    goal raises the eager windows' OrderInsufficient before it multiplies
    a window or applies a binomial."""
    ctx = ExactCtx(10, headroom=0)
    a = LS.from_pairs({0: 1, 1: 2}, 5)
    b = LS.from_pairs({-1: F(1, 2), 0: 1, 3: 5}, 14)
    inverse = ctx.inv(ctx.poch_inf(ctx.q, ctx.q))
    product = ctx.mul(a, inverse, b, ctx.qpow(2))
    assert isinstance(product, context._Product) and product.binoms
    windows = [a, qfunc.poch_infinite(ctx.q, ctx.q, ctx.order).invert(
        ctx.order), b]
    with pytest.raises(OrderInsufficient) as eager_error:
        reduce(LS.mul, windows).scale(1, 2).truncate(10)
    calls = []

    def counted(name):
        method = getattr(LS, name)

        def call(self, *args, **kw):
            calls.append(name)
            return method(self, *args, **kw)
        return call

    for name in ("mul", "mul_binomials"):
        monkeypatch.setattr(LS, name, counted(name))
    for force in (lambda: product.at(10), lambda: summed(ctx, product)):
        with pytest.raises(OrderInsufficient) as error:
            force()
        assert str(error.value) == str(eager_error.value)
        assert error.value.short == eager_error.value.short
    assert calls == []


# ------------------------------------------------- the stepped quotient
#
# ExactCtx.quotient steps one PochTower over all its factors by the term
# ratio. Checked against a plain Fraction long division, and against the
# product of one one-factor tower per factor times s^n, in value, order
# and error, for every order of lookups a summand uses.

#: arguments c q^e with a zero among them, bases mixing constant ones
#: (exponent 0) with q-powers, and (q^-N; q) to terminate an upper
#: product or to make a lower one vanish
ARG = st.builds(QMonomial, st.sampled_from(COEFS[:6]), st.integers(-4, 3))
QBASE = st.builds(QMonomial, st.sampled_from([F(1), F(-1), F(2), F(1, 3)]),
                  st.integers(0, 2))
TERMINATING = st.integers(0, 4).map(
    lambda m: (QMonomial.of(1, -m), QMonomial.of(1, 1)))
FACTOR = st.tuples(ARG, QBASE) | TERMINATING
FACTORS = st.lists(FACTOR, max_size=3)
SCALAR = st.none() | st.builds(
    QMonomial, st.sampled_from([F(-1), F(-2, 3), F(3)]), st.integers(-2, 2))

#: the orders in which summands ask for a quotient: a plain sum, cor_lhs's
#: idx = 2n, a repeated lookup, and a walk back down
ACCESS = {
    "ascending": lambda top: list(range(top + 1)),
    "strided": lambda top: list(range(0, 2 * top + 1, 2)),
    "repeated": lambda top: [top, top, 0, top, 0],
    "descending": lambda top: list(range(top, -1, -1)),
}


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def fraction_quotient(ups, downs, s, n, upto):
    """{exponent: coefficient} of s^n prod (u; p_u)_n / prod (d; p_d)_n
    through q^upto, by long division of two Laurent polynomials with
    Fraction coefficients; None where the lower product is 0."""
    def product(pairs):
        out = {0: F(1)}
        for a, p in pairs:
            for j in range(n):
                factor = {0: F(1)}
                e = a.exp + j * p.exp
                factor[e] = factor.get(e, 0) - a.coef * p.coef ** j
                out = poly_mul(out, factor)
        return out

    num, den = product(ups), product(downs)
    if not den:
        return None
    if s is not None:
        num = poly_mul(num, {s.exp * n: s.coef ** n})
    v = min(den)
    out = {}
    for m in range(min(num, default=upto + 1) - v, upto + 1):
        c = num.get(m + v, 0) - sum(d * out.get(m + v - k, 0)
                                    for k, d in den.items() if k != v)
        if c:
            out[m] = c / den[v]
    return out


def tower_product(ctx, ups, downs, s, n, more=()):
    """The quotient as one one-factor PochTower per factor (none at n = 0
    or for a zero argument), times s^n and `more`, in one `mul`."""
    towers = [qfunc.PochTower(a, p, ctx.order, invert).upto(n)
              for pairs, invert in ((ups, False), (downs, True))
              for a, p in pairs if n and not a.is_zero]
    return ctx.mul(*towers, *(() if s is None else (s ** n,)), *more)


def outcome(f):
    """f()'s value, or the type and text of the error it raises."""
    try:
        return f()
    except (DegenerateDenominator, NonTruncatable, OrderInsufficient) as ex:
        return type(ex).__name__, str(ex)


def quotient_faults(ups, downs, s, lookups, more=(), target=10):
    """The lookups n at which ExactCtx(target).quotient disagrees with
    `fraction_quotient` or `tower_product`, with what went wrong."""
    ctx, ref_ctx = ExactCtx(target), ExactCtx(target)
    quot = ctx.quotient(ups, downs, s)
    faults = []
    for n in lookups:
        got = outcome(lambda: ctx.finalize(quot(n)))
        flat_dip = n > 0 and any(not a.is_zero and a.exp < 0 and p.exp == 0
                                 for a, p in ups)
        if flat_dip:
            if got[0] != "NonTruncatable":
                faults.append((n, "no NonTruncatable", got))
            continue
        if isinstance(got, tuple):
            # a pole, at exactly the n past a vanishing lower factor
            if got[0] != "DegenerateDenominator" or \
                    fraction_quotient(ups, downs, s, n, 0) is not None:
                faults.append((n, "unexpected error", got))
            continue
        want = fraction_quotient(ups, downs, s, n, got.order)
        if want is None or dict(got.terms()) != want:
            faults.append((n, "value", got, want))
        # against the towers: the same series and order in full, and the
        # same value or shortfall at the sum's goal, `more` included
        for parts in ((), more):
            new = quot(n, *parts)
            old = tower_product(ref_ctx, ups, downs, s, n, parts)
            if ctx.finalize(new) != ref_ctx.finalize(old) or \
                    outcome(lambda: summed(ctx, new)) != \
                    outcome(lambda: summed(ref_ctx, old)):
                faults.append((n, "towers", parts))
    return faults


@given(FACTORS, FACTORS, SCALAR, st.sampled_from(sorted(ACCESS)),
       st.integers(0, 8), st.lists(window(), max_size=2))
@settings(max_examples=200, deadline=None)
def test_stepped_quotient_matches_references(ups, downs, s, access, top,
                                             more):
    assert quotient_faults(ups, downs, s, ACCESS[access](top), more) == []


#: (4; 1/2)_n vanishes from n = 4 on, and (q^-2; q)_n from n = 3 on
POLE = ([(QMonomial.of(2, 1), QMonomial.of(1, 1))],
        [(QMonomial.of(4), QMonomial.of(F(1, 2))),
         (QMonomial.of(1, -2), QMonomial.of(1, 1))])


def pole_faults(lookups):
    """The lookups n at which ExactCtx.quotient over POLE raises
    DegenerateDenominator while the Fraction denominator is nonzero, or
    does not raise while it vanishes."""
    quot = ExactCtx(10).quotient(*POLE)
    faults = []
    for n in lookups:
        got = outcome(lambda: quot(n))
        raised = isinstance(got, tuple) and got[0] == "DegenerateDenominator"
        if raised != (fraction_quotient(*POLE, None, n, 0) is None):
            faults.append(n)
    return faults


def test_quotient_pole_raises_where_the_fraction_denominator_vanishes():
    lookups = (5, 1, 3, 0, 2, 4, 3)
    assert [n for n in lookups
            if fraction_quotient(*POLE, None, n, 0) is None] == [5, 3, 4, 3]
    assert pole_faults(lookups) == []
    assert quotient_faults(*POLE, None, range(6)) == []


TOWER_STEPS = qfunc._tower_steps


def _late_pole(*args):
    """A mutant: a tower raises at its pole one step late, repeating the
    value before it there."""
    last = None
    try:
        for last in TOWER_STEPS(*args):
            yield last
    except DegenerateDenominator:
        yield last
        raise


def test_pole_check_catches_a_late_pole(monkeypatch):
    monkeypatch.setattr(qfunc, "_tower_steps", _late_pole)
    assert pole_faults(range(5)) == [3]


def test_quotient_non_truncatable_only_from_n_1():
    # (q^-1; 1)_n = (1 - q^-1)^n dips without bound
    ups = [(QMonomial.of(1, -1), QMonomial.of(1))]
    quot = ExactCtx(10).quotient(ups, [], QMonomial.of(2, 1))
    assert quot(0) == QMonomial.of(1)
    for n in (1, 2, 1):
        with pytest.raises(NonTruncatable):
            quot(n)
    assert quot(0) == QMonomial.of(1)


def test_quotient_two_vanishing_uppers_keep_the_towers_order():
    # (q^-1; q)_n and (q^-2; q)_n are 0 from n = 2 and n = 3 on; a product
    # of two zero towers is known higher than one with a single zero
    Q = QMonomial.of(1, 1)
    ups = [(QMonomial.of(1, -1), Q), (QMonomial.of(1, -2), Q)]
    ctx = ExactCtx(10)
    quot = ctx.quotient(ups, [(QMonomial.of(F(1, 2), 1), Q)])
    orders = [ctx.finalize(quot(n)).order for n in range(5)]
    assert [ctx.finalize(quot(n)).is_zero for n in range(5)] == \
        [False, False, True, True, True]
    assert orders[2] < 10 < orders[3]
    assert quotient_faults(ups, [(QMonomial.of(F(1, 2), 1), Q)], None,
                           range(6)) == []


@pytest.mark.parametrize("make", [lambda: ExactCtx(10),
                                  lambda: NumericCtx(F(1, 3))],
                         ids=["exact", "numeric"])
def test_negative_length_raises_in_any_lookup_order(make):
    # (-q; q)_(n - 1) has no value at n = 0, before or after n = 2 was
    # stepped (a negative index once read the cached list from its end)
    ctx = make()
    q = ctx.qpow(1)
    term = Summand(ctx, ups=[(ctx.neg(q), q, 1, -1)])
    with pytest.raises(ValueError, match="length must be >= 0"):
        term(0)
    want = ctx.finalize(ctx.mul(ctx.add(1, q), 1))
    assert ctx.finalize(term(2)) == want
    with pytest.raises(ValueError, match="length must be >= 0"):
        term(0)
    assert ctx.finalize(term(1)) == ctx.finalize(ctx.one())
    with pytest.raises(ValueError, match="length must be >= 0"):
        ctx.poch(ctx.neg(q), q, -1)


@pytest.mark.parametrize("make", [lambda: ExactCtx(10),
                                  lambda: NumericCtx(F(1, 3))],
                         ids=["exact", "numeric"])
def test_a_pole_replays_in_any_lookup_order(make):
    # 1 - 4 (1/2)^2 = 0: the lower (4; 1/2)_n vanishes from n = 3 on. Every
    # lookup past it raises the same error, a fresh one each time whose
    # traceback does not grow, and the values before it stay
    ctx = make()
    quot = ctx.quotient([(F(1, 3), F(-1, 2))], [(F(4), F(1, 2))])
    before = [ctx.finalize(quot(n)) for n in (2, 0, 1)]
    raised = []
    for n in (5, 3, 9, 4, 3, 7):
        with pytest.raises(DegenerateDenominator) as info:
            quot(n)
        raised.append(info.value)
    assert len({(type(ex), ex.args) for ex in raised}) == 1
    assert len({id(ex) for ex in raised}) == len(raised)
    depths = [len(traceback.extract_tb(ex.__traceback__)) for ex in raised]
    assert len(set(depths[1:])) == 1 and depths[1] <= depths[0]
    assert [ctx.finalize(quot(n)) for n in (2, 0, 1)] == before


def test_exact_context_is_freed_without_the_cycle_collector():
    """The towers hold no reference to their context, nor their steps to
    their tower, and a tower that met a pole keeps no traceback: a build's
    ExactCtx dies with its last reference, not at the next collection."""
    def used():
        ctx = ExactCtx(10)
        q = ctx.qpow(1)
        ctx.finalize(ctx.quotient([(F(1, 3), q)], [(q, q)], F(1, 2))(5))
        with pytest.raises(DegenerateDenominator):
            ctx.inv_poch(F(4), F(1, 2), 3)
        tower = next(iter(ctx._towers.values()))
        return weakref.ref(ctx), weakref.ref(tower)

    gc.disable()
    try:
        assert [ref() for ref in used()] == [None, None]
    finally:
        gc.enable()


BINOMIALS = qfunc._binomials


def _run_ahead(a, base, invert=False):
    """A mutant of the towers' input: every `_binomials` stream starts one
    binomial ahead, at a*base."""
    stream = BINOMIALS(a, base, invert)
    next(stream)
    return stream


def test_quotient_check_catches_a_factor_one_step_ahead(monkeypatch):
    Q, Q2 = QMonomial.of(1, 1), QMonomial.of(1, 2)
    draws = [([(QMonomial.of(F(1, 2), 1), Q)], [(QMonomial.of(-2), Q2)],
              QMonomial.of(-1, 1), range(4)),
             ([(QMonomial.of(1, -3), Q)], [], None, [2, 0, 4]),
             ([], [(QMonomial.of(3, 1), QMonomial.of(F(1, 3), 1))], None,
              [1])]
    assert all(quotient_faults(*d) == [] for d in draws)
    monkeypatch.setattr(qfunc, "_binomials", _run_ahead)
    assert all(quotient_faults(*d) != [] for d in draws)


# ------------------------------------------------------- one algebra


def test_both_contexts_expose_the_same_primitives():
    # a builder is written once against either context, so no primitive
    # may live in one of them only; `monomial` is the exact-only reading
    # of a value as c*t^e
    def public(cls):
        return {name for name, v in vars(cls).items()
                if not name.startswith("_") and callable(v)}

    assert public(ExactCtx) - {"monomial"} == public(NumericCtx)
    assert "monomial" in public(ExactCtx)
