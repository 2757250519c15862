"""Kernel tests: exact rationals, Laurent windows, ring laws."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qident.errors import OrderInsufficient, ZeroLeadingCoefficient
from qident.series import (
    LaurentSeries as LS,
    Mismatch,
    QMonomial,
    rescale_exponents,
    series_add,
    series_compare,
    series_invert,
    series_mul,
)


def poly(d, order=None):
    return LS.from_pairs(d, order)


# ---------------------------------------------------------------- addition

def test_add_cancellation():
    assert series_add(poly({0: 1, 1: -1}), poly({1: 1})) == LS.one()


def test_add_identity():
    s = poly({-2: F(1, 3), 0: 5, 4: -2}, order=9)
    assert series_add(LS.zero(9), s) == s
    assert series_add(s, LS.zero()) == s


def test_add_laurent_window_merge():
    s = series_add(poly({-1: 1}), poly({0: 1}))
    assert s.min_deg == -1
    assert list(s.terms()) == [(-1, F(1)), (0, F(1))]


def test_add_order_is_min():
    a = poly({0: 1}, order=10)
    b = poly({0: 1}, order=6)
    assert series_add(a, b).order == 6


# ------------------------------------------------------------ multiplication

def test_mul_difference_of_squares():
    assert series_mul(poly({0: 1, 1: -1}), poly({0: 1, 1: 1})) == poly({0: 1, 2: -1})


def test_mul_identity():
    s = poly({-3: 2, 0: F(7, 2)}, order=12)
    assert series_mul(s, LS.one()) == s


def test_mul_geometric_prefix():
    # (1-q) * (1 + q + ... + q^N) == 1 mod q^{N+1}; oracle: direct windowed sum
    N = 17
    geo = poly({e: 1 for e in range(N + 1)}, order=N)
    prod = series_mul(poly({0: 1, 1: -1}), geo)
    assert prod.order == N
    assert list(prod.terms()) == [(0, F(1))]


def test_mul_order_bookkeeping():
    a = poly({2: 1}, order=10)        # q^2 known to 10
    b = poly({3: 1}, order=20)        # q^3 known to 20
    assert series_mul(a, b).order == 13   # min(10+3, 20+2)


# ----------------------------------------------------------------- inversion

def test_invert_one():
    assert series_invert(LS.one(15), 15) == LS.one(15)


def test_invert_geometric():
    inv = series_invert(poly({0: 1, 1: -1}), 30)
    assert inv == poly({e: 1 for e in range(31)}, order=30)
    assert series_mul(poly({0: 1, 1: -1}), inv).compare(LS.one(30), 30) is None


def test_invert_shifted():
    a = poly({1: 1, 2: -1}, order=21)     # q(1-q)
    inv = series_invert(a)
    assert inv.min_deg == -1
    prod = series_mul(a, inv)
    assert prod.compare(LS.one(prod.order), prod.order) is None


def test_invert_zero_leading():
    with pytest.raises(ZeroLeadingCoefficient):
        series_invert(LS.zero(10), 10)


# ---------------------------------------------------------------- comparison

def test_compare_equal():
    a = poly({0: 1, 1: -1}, order=10)
    assert series_compare(a, poly({0: 1, 1: -1}, order=10), 10) is None


def test_compare_first_mismatch():
    r = series_compare(LS.one(10), poly({0: 1, 7: 1}, order=10), 10)
    assert r == Mismatch(7, F(0), F(1))


def test_compare_mismatch_beyond_window():
    assert series_compare(LS.one(5), poly({0: 1, 7: 1}, order=7).truncate(5), 5) is None


def test_compare_order_insufficient():
    with pytest.raises(OrderInsufficient):
        series_compare(LS.one(5), LS.one(10), 8)


# ------------------------------------------------------------------ rescaling

def test_rescale_basic():
    assert rescale_exponents(poly({0: 1, 1: -1}), 2) == poly({0: 1, 2: -1})


def test_rescale_identity():
    s = poly({0: 1, 3: 4}, order=9)
    assert rescale_exponents(s, 1) == s


def test_rescale_laurent():
    assert rescale_exponents(poly({-1: 1, 1: 1}), 3) == poly({-3: 1, 3: 1})


def test_rescale_order_multiplied():
    assert rescale_exponents(poly({0: 1}, order=7), 3).order == 21


# ---------------------------------------------------------------- invariants

COEFS = [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 7)]


def rand_series(rng, order, allow_zero=True):
    lo = rng.randint(-3, 2)
    coeffs = [rng.choice(COEFS) for _ in range(order - lo + 1)]
    s = LS._make(lo, coeffs, order)
    if not allow_zero and s.is_zero:
        return series_add(s, LS.one(order))
    return s


def assert_agree(a, b, up_to=None):
    if up_to is None:
        up_to = int(min(a.eff_order(), b.eff_order()))
    assert a.compare(b, up_to) is None


def test_ring_laws_randomized():
    rng = random.Random(20260808)
    for _ in range(40):
        N = rng.randint(6, 14)
        a, b, c = (rand_series(rng, N) for _ in range(3))
        assert_agree(series_add(a, b), series_add(b, a))
        assert_agree(series_mul(a, b), series_mul(b, a))
        assert_agree(series_add(series_add(a, b), c), series_add(a, series_add(b, c)))
        assert_agree(series_mul(series_mul(a, b), c), series_mul(a, series_mul(b, c)))
        assert_agree(series_mul(a, series_add(b, c)),
                     series_add(series_mul(a, b), series_mul(a, c)))


def test_invert_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(50):
        N = rng.randint(5, 12)
        a = rand_series(rng, N, allow_zero=False)
        prod = series_mul(a, series_invert(a))
        assert_agree(prod, LS.one(prod.order))


def test_truncation_soundness_randomized():
    # computing at order N then truncating to M equals computing at order M
    rng = random.Random(99)
    for _ in range(40):
        N = rng.randint(8, 14)
        M = rng.randint(3, N - 1)
        a, b = rand_series(rng, N), rand_series(rng, N)
        hi = series_mul(a, b)
        lo = series_mul(a.truncate(M), b.truncate(M))
        assert_agree(hi.truncate(lo.order if lo.order < M else M),
                     lo.truncate(lo.order if lo.order < M else M))


def test_truncated_ops_match_exact_expansion():
    # differential fuzz: run ops on truncated copies of exact polynomials
    # and demand every coefficient inside the claimed window equals the
    # exact (untruncated) result
    rng = random.Random(2468)
    for _ in range(60):
        deg_a, deg_b = rng.randint(0, 6), rng.randint(0, 6)
        lo_a, lo_b = rng.randint(-3, 0), rng.randint(-3, 0)
        pa = {lo_a + i: rng.choice(COEFS) for i in range(deg_a + 1)}
        pb = {lo_b + i: rng.choice(COEFS) for i in range(deg_b + 1)}
        exact_a, exact_b = poly(pa), poly(pb)
        na, nb = rng.randint(2, 8), rng.randint(2, 8)
        ta = exact_a.truncate(na) if not exact_a.is_zero else LS.zero(na)
        tb = exact_b.truncate(nb) if not exact_b.is_zero else LS.zero(nb)
        true = series_mul(exact_a, exact_b)          # full expansion
        got = series_mul(ta, tb)
        if got.order is not None:
            for e in range(got.min_deg, got.order + 1):
                assert got.coeff(e) == true.coeff(e), (pa, pb, e)
        # binomial fast paths agree with the generic product
        c, k = rng.choice(COEFS[1:]), rng.randint(-2, 3)
        binom = LS.from_pairs([(0, F(1)), (k, c)])   # accumulates at k == 0
        via_fast = ta.mul_binomial(c, k)
        via_mul = series_mul(ta, binom)
        common = min(via_fast.eff_order(), via_mul.eff_order())
        assert common >= min(na, na + k)             # no precision lost
        assert via_fast.compare(via_mul, int(common)) is None
        if not (k == 0 and c == -1):                 # skip the zero divisor
            back = via_fast.div_binomial(c, k)
            up = min(int(back.eff_order()), na)
            assert back.compare(ta, up) is None


@given(st.fractions(max_denominator=10 ** 6), st.fractions(max_denominator=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_rational_arithmetic_exact(p, r):
    # the stored normal form reconstructs the mathematical value
    s = p + r
    assert s.numerator * p.denominator * r.denominator == \
        (p.numerator * r.denominator + r.numerator * p.denominator) * s.denominator
    assert s.denominator > 0
    from math import gcd
    assert gcd(s.numerator, s.denominator) == 1


@given(st.integers(-5, 5), st.integers(-5, 5),
       st.fractions(max_denominator=100), st.fractions(max_denominator=100))
@settings(max_examples=60, deadline=None)
def test_monomial_closure(e1, e2, c1, c2):
    m1, m2 = QMonomial.of(c1, e1), QMonomial.of(c2, e2)
    prod = m1 * m2
    assert isinstance(prod, QMonomial)
    assert prod.coef == c1 * c2
    if c1 and c2:
        assert prod.exp == e1 + e2
        quot = m1 / m2
        assert quot.coef == c1 / c2 and quot.exp == e1 - e2


def test_monomial_to_series_exact():
    m = QMonomial.of(F(-3, 4), 5)
    s = m.to_series()
    assert s.is_exact and list(s.terms()) == [(5, F(-3, 4))]


def test_zero_series_canonical():
    z = LS.from_pairs({3: 0, 5: 0}, order=9)
    assert z.is_zero and z.coeffs == ()
    assert z.min_deg == 10  # window exhausted


def test_scale_and_binomials():
    s = LS.one(10)
    g = s.div_binomial(F(-1), 1)       # 1/(1-q)
    assert g == poly({e: 1 for e in range(11)}, order=10)
    back = g.mul_binomial(F(-1), 1)
    assert_agree(back, LS.one(10), 10)
    shifted = s.scale(F(2), -2)
    assert shifted.min_deg == -2 and shifted.order == 8


# ----------------------------------------- integer kernel vs Fraction reference
#
# A reference series is a pair (dict {exponent: Fraction}, order), with
# order None for an exact series. Products are dict convolutions and
# quotients the plain Fraction recurrences; every operation of the
# integer-numerator kernel must give the same window, order and values.

INF = float("inf")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
# pairwise-coprime denominators of about 60 bits: each new one widens the
# shared denominator of a window
DENS = (1,) + tuple(p ** (60 // p.bit_length()) for p in PRIMES)
TALL = st.builds(F, st.integers(-2 ** 300, 2 ** 300), st.sampled_from(DENS))
COEF = st.one_of(st.sampled_from(COEFS), TALL)
NONZERO = COEF.filter(bool)


def _top(order):
    return INF if order is None else order


def _low(d, order):
    if d:
        return min(d)
    return INF if order is None else order + 1


def _fin(x):
    return None if x == INF else int(x)


def _window(d, order):
    return {e: c for e, c in d.items() if c and (order is None or e <= order)}


@st.composite
def series_and_ref(draw, exact=None):
    lo = draw(st.integers(-3, 3))
    cs = draw(st.lists(COEF, max_size=7))
    if exact is None:
        exact = draw(st.booleans())
    order = None if exact else draw(st.integers(-3, 10))
    return LS._make(lo, cs, order), \
        (_window({lo + i: c for i, c in enumerate(cs)}, order), order)


def ref_add(x, y):
    (dx, ox), (dy, oy) = x, y
    out = dict(dx)
    for e, c in dy.items():
        out[e] = out.get(e, F(0)) + c
    order = _fin(min(_top(ox), _top(oy)))
    return _window(out, order), order


def ref_neg(x):
    return {e: -c for e, c in x[0].items()}, x[1]


def ref_scale(x, c, k):
    d, order = x
    order = None if order is None else order + k
    return _window({e + k: c * v for e, v in d.items()}, order), order


def ref_mul(x, y, cap=None):
    (dx, ox), (dy, oy) = x, y
    eo = min(_top(ox) + _low(dy, oy), _top(oy) + _low(dx, ox))
    if cap is not None:
        eo = min(eo, cap)
    out = {}
    for ea, ca in dx.items():
        for eb, cb in dy.items():
            out[ea + eb] = out.get(ea + eb, F(0)) + ca * cb
    return _window(out, _fin(eo)), _fin(eo)


def ref_truncate(x, order):
    if order > _top(x[1]):
        raise OrderInsufficient("a truncation may not grow the order")
    return _window(x[0], order), order


def ref_div_binomial(x, c, k, order=None):
    if not c:
        return x if order is None else ref_truncate(x, order)
    if k == 0:
        out = ref_scale(x, 1 / (1 + c), 0)
        return out if order is None else ref_truncate(out, order)
    if k < 0:
        return ref_div_binomial(ref_scale(x, 1 / c, -k), 1 / c, -k, order)
    d = x[0]
    eo = int(min(_top(x[1]), _top(order)))
    b = {}
    for t in range(min(d, default=eo + 1), eo + 1):
        b[t] = d.get(t, F(0)) - c * b.get(t - k, F(0))
    return _window(b, eo), eo


def ref_invert(x, order=None):
    d, ox = x
    m = min(d)
    if ox is None and len(d) == 1:
        return _window({-m: 1 / d[m]}, order), order
    rel = order + m if ox is None else ox - m
    if ox is not None and order is not None:
        rel = min(rel, order + m)
    if rel < 0:
        raise OrderInsufficient("input order too low to invert")
    a = [d.get(m + t, F(0)) for t in range(rel + 1)]
    y = [1 / a[0]]
    for t in range(1, rel + 1):
        y.append(-sum(a[j] * y[t - j] for j in range(1, t + 1)) / a[0])
    return _window({t - m: v for t, v in enumerate(y)}, rel - m), rel - m


def ref_compare(x, y, up_to):
    (dx, _), (dy, _) = x, y
    for e in sorted(set(dx) | set(dy)):
        if e <= up_to and dx.get(e, F(0)) != dy.get(e, F(0)):
            return Mismatch(e, dx.get(e, F(0)), dy.get(e, F(0)))
    return None


def assert_canonical(s):
    assert s.den > 0
    if s.is_zero:
        assert s.nums == () and s.den == 1
        assert s.min_deg == (0 if s.order is None else s.order + 1)
    else:
        assert s.nums[0] != 0 and gcd(s.den, *s.nums) == 1
        if s.order is None:
            assert s.nums[-1] != 0
        else:
            assert len(s.nums) == s.order - s.min_deg + 1
    assert len(s.coeffs) == len(s.nums)
    for n, c in zip(s.nums, s.coeffs):
        assert isinstance(c, F) and c == F(n, s.den)
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def assert_matches(s, r):
    d, order = r
    assert s.order == order
    assert dict(s.terms()) == d
    assert_canonical(s)


KERNEL = settings(max_examples=80, deadline=None)


@given(series_and_ref(), series_and_ref(),
       st.one_of(st.none(), st.integers(-6, 14)))
@KERNEL
def test_kernel_mul(x, y, cap):
    assert_matches(x[0], x[1])
    assert_matches(x[0].mul(y[0]), ref_mul(x[1], y[1]))
    assert_matches(x[0].mul(y[0], cap=cap), ref_mul(x[1], y[1], cap))


@given(series_and_ref(), series_and_ref())
@KERNEL
def test_kernel_add_sub(x, y):
    assert_matches(x[0] + y[0], ref_add(x[1], y[1]))
    assert_matches(x[0] - y[0], ref_add(x[1], ref_neg(y[1])))
    assert_matches(-x[0], ref_neg(x[1]))


@given(series_and_ref(), COEF, st.integers(-3, 3))
@KERNEL
def test_kernel_scale_mul_binomial(x, c, k):
    assert_matches(x[0].scale(c, k), ref_scale(x[1], c, k))
    want = ref_add(x[1], ref_scale(x[1], c, k)) if c else x[1]
    assert_matches(x[0].mul_binomial(c, k), want)


@given(series_and_ref(), COEF, st.integers(-3, 3),
       st.one_of(st.none(), st.integers(-2, 10)))
@KERNEL
def test_kernel_div_binomial(x, c, k, order):
    s, r = x
    if c and k == 0 and c == -1:
        with pytest.raises(ZeroLeadingCoefficient):
            s.div_binomial(c, k, order)
        return
    if c and k and s.is_exact and order is None:
        with pytest.raises(ValueError):
            s.div_binomial(c, k, order)
        return
    try:
        want = ref_div_binomial(r, c, k, order)
    except OrderInsufficient:
        with pytest.raises(OrderInsufficient):
            s.div_binomial(c, k, order)
        return
    assert_matches(s.div_binomial(c, k, order), want)


@given(series_and_ref(), st.one_of(st.none(), st.integers(-2, 10)))
@KERNEL
def test_kernel_invert(x, order):
    s, r = x
    if s.is_zero:
        with pytest.raises(ZeroLeadingCoefficient):
            s.invert(order)
        return
    if s.is_exact and len(s.nums) > 1 and order is None:
        with pytest.raises(ValueError):
            s.invert(order)
        return
    try:
        want = ref_invert(r, order)
    except OrderInsufficient:
        with pytest.raises(OrderInsufficient):
            s.invert(order)
        return
    assert_matches(s.invert(order), want)


@given(series_and_ref(), st.integers(-4, 10), st.integers(1, 3))
@KERNEL
def test_kernel_truncate_rescale(x, n, d):
    s, r = x
    if n <= _top(r[1]):
        assert_matches(s.truncate(n), ref_truncate(r, n))
    d_ref = {e * d: c for e, c in r[0].items()}
    o_ref = None if r[1] is None else r[1] * d
    assert_matches(s.rescale(d), (d_ref, o_ref))


@st.composite
def close_pair(draw):
    """Two series that agree on most of their window."""
    lo = draw(st.integers(-3, 3))
    cs = draw(st.lists(COEF, min_size=1, max_size=7))
    ds = list(cs)
    i = draw(st.integers(0, len(cs) - 1))
    ds[i] = draw(COEF)
    ox, oy = (draw(st.one_of(st.none(), st.integers(-2, 10)))
              for _ in range(2))
    return tuple((LS._make(lo, v, o),
                  (_window({lo + j: c for j, c in enumerate(v)}, o), o))
                 for v, o in ((cs, ox), (ds, oy)))


@given(close_pair(), st.integers(-4, 10))
@KERNEL
def test_kernel_compare(pair, up_to):
    (s, r), (t, u) = pair
    if up_to > min(_top(r[1]), _top(u[1])):
        with pytest.raises(OrderInsufficient):
            s.compare(t, up_to)
        return
    got = s.compare(t, up_to)
    assert got == ref_compare(r, u, up_to)
    if got is not None:
        assert type(got.lhs) is F and type(got.rhs) is F


@given(series_and_ref(), series_and_ref(exact=True), NONZERO,
       st.integers(1, 3))
@KERNEL
def test_kernel_canonical_across_routes(x, y, c, k):
    s, t = x[0], y[0]
    routes = [
        (s * t, t * s),
        ((s + t) - t, s),
        (s.scale(c, k).scale(1 / c, -k), s),
        (LS.from_pairs(x[1][0], x[1][1]), s),
        (sum((LS.monomial(v, e, x[1][1]) for e, v in x[1][0].items()),
             LS.zero(x[1][1])), s),
    ]
    n = 9 if s.order is None else s.order
    routes.append((s.mul_binomial(c, k).div_binomial(c, k, n),
                   s.truncate(n)))
    for u, v in routes:
        assert u == v and hash(u) == hash(v)
        assert_canonical(u)
