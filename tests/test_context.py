"""ExactCtx products: a product forced at a sum's goal order is the eager
left fold of its parts, truncated at the goal, in coefficients and order."""

import re
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qident.context import ExactCtx
from qident.errors import OrderInsufficient
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
    """`value` as the only nonzero term of a sum, at the sum's goal."""
    return ctx.summation(lambda n: value if n == 0 else 0)


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
    # every term starts at 0 - 1 + 12 + n > 10: no product is formed
    got = ctx.summation(lambda n: ctx.mul(a, b, ctx.qpow(12 + n)))
    assert got == LS.zero(10)
    # nor when an exact zero part makes the whole product zero
    got = ctx.summation(lambda n: ctx.mul(a, LS.zero(), b, ctx.qpow(n)))
    assert got == LS.zero(10)
    assert caps == []
    # one q lower the first term reaches the goal: one product, capped
    # at 10 - 11, the only degree of a*b that lands on the window
    got = ctx.summation(lambda n: ctx.mul(a, b, ctx.qpow(11 + n)))
    assert caps == [-1]
    assert got == LS.from_pairs({10: F(1, 2)}, 10)


def test_zero_scalar_adds_no_unit_factor(monkeypatch):
    """At z = 0 (bb-z0) the prefactor's (1 - x*0) is the scalar 1: over
    the record's seed-1 verdicts at order 20 no product has a factor that
    is exactly 1 through the comparison order. (A partial product that a
    sum's goal caps below it may still read 1 + O(q).)"""
    factors = []
    mul = LS.mul

    def recording(self, other, cap=None):
        factors.extend((self, LS.coerce(other)))
        return mul(self, other, cap)

    monkeypatch.setattr(LS, "mul", recording)
    for a in sample_params("bb-z0", 1, 3, "exact"):
        assert verify_one("bb-z0", a, 20).status == "equal"
    assert factors
    units = [s for s in factors if s == LS.one(s.order)
             and (s.order is None or s.order >= 20)]
    assert units == []
