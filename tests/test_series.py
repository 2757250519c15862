"""Kernel tests: exact rationals, Laurent windows, ring laws."""

import random
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction as F
from math import ceil, gcd, sqrt

import pytest
from hypothesis import given, settings, strategies as st

from qident import series
from qident.errors import OrderInsufficient, ZeroLeadingCoefficient
from qident.series import (
    LaurentSeries as LS,
    Mismatch,
    QMonomial,
)


def poly(d, order=None):
    return LS.from_pairs(d, order)


# ---------------------------------------------------------------- addition

def test_add_cancellation():
    assert poly({0: 1, 1: -1}) + poly({1: 1}) == LS.one()


def test_add_identity():
    s = poly({-2: F(1, 3), 0: 5, 4: -2}, order=9)
    assert LS.zero(9) + s == s
    assert s + LS.zero() == s


def test_add_laurent_window_merge():
    s = poly({-1: 1}) + poly({0: 1})
    assert s.min_deg == -1
    assert list(s.terms()) == [(-1, F(1)), (0, F(1))]


def test_add_order_is_min():
    a = poly({0: 1}, order=10)
    b = poly({0: 1}, order=6)
    assert (a + b).order == 6


# ------------------------------------------------------------ multiplication

def test_mul_difference_of_squares():
    assert poly({0: 1, 1: -1}).mul(poly({0: 1, 1: 1})) == poly({0: 1, 2: -1})


def test_mul_identity():
    s = poly({-3: 2, 0: F(7, 2)}, order=12)
    assert s.mul(LS.one()) == s


def test_mul_geometric_prefix():
    # (1-q) * (1 + q + ... + q^N) == 1 mod q^{N+1}; oracle: direct windowed sum
    N = 17
    geo = poly({e: 1 for e in range(N + 1)}, order=N)
    prod = poly({0: 1, 1: -1}).mul(geo)
    assert prod.order == N
    assert list(prod.terms()) == [(0, F(1))]


def test_mul_order_bookkeeping():
    a = poly({2: 1}, order=10)        # q^2 known to 10
    b = poly({3: 1}, order=20)        # q^3 known to 20
    assert a.mul(b).order == 13   # min(10+3, 20+2)


# ----------------------------------------------------------------- inversion

def test_invert_one():
    assert LS.one(15).invert(15) == LS.one(15)


def test_invert_geometric():
    inv = poly({0: 1, 1: -1}).invert(30)
    assert inv == poly({e: 1 for e in range(31)}, order=30)
    assert poly({0: 1, 1: -1}).mul(inv).compare(LS.one(30), 30) is None


def test_invert_shifted():
    a = poly({1: 1, 2: -1}, order=21)     # q(1-q)
    inv = a.invert()
    assert inv.min_deg == -1
    prod = a.mul(inv)
    assert prod.compare(LS.one(prod.order), prod.order) is None


def test_invert_zero_leading():
    with pytest.raises(ZeroLeadingCoefficient):
        LS.zero(10).invert(10)


# ---------------------------------------------------------------- comparison

def test_compare_equal():
    a = poly({0: 1, 1: -1}, order=10)
    assert a.compare(poly({0: 1, 1: -1}, order=10), 10) is None


def test_compare_first_mismatch():
    r = LS.one(10).compare(poly({0: 1, 7: 1}, order=10), 10)
    assert r == Mismatch(7, F(0), F(1))


def test_compare_mismatch_beyond_window():
    assert LS.one(5).compare(poly({0: 1, 7: 1}, order=7).truncate(5), 5) is None


def test_compare_order_insufficient():
    with pytest.raises(OrderInsufficient):
        LS.one(5).compare(LS.one(10), 8)


# ---------------------------------------------------------------- invariants

COEFS = [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 7)]


def rand_series(rng, order, allow_zero=True):
    lo = rng.randint(-3, 2)
    coeffs = [rng.choice(COEFS) for _ in range(order - lo + 1)]
    s = LS._make(lo, coeffs, order)
    if not allow_zero and s.is_zero:
        return s + LS.one(order)
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
        assert_agree(a + b, b + a)
        assert_agree(a.mul(b), b.mul(a))
        assert_agree((a + b) + c, a + (b + c))
        assert_agree(a.mul(b).mul(c), a.mul(b.mul(c)))
        assert_agree(a.mul(b + c), a.mul(b) + a.mul(c))


def test_invert_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(50):
        N = rng.randint(5, 12)
        a = rand_series(rng, N, allow_zero=False)
        prod = a.mul(a.invert())
        assert_agree(prod, LS.one(prod.order))


def test_truncation_soundness_randomized():
    # computing at order N then truncating to M equals computing at order M
    rng = random.Random(99)
    for _ in range(40):
        N = rng.randint(8, 14)
        M = rng.randint(3, N - 1)
        a, b = rand_series(rng, N), rand_series(rng, N)
        hi = a.mul(b)
        lo = a.truncate(M).mul(b.truncate(M))
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
        true = exact_a.mul(exact_b)                  # full expansion
        got = ta.mul(tb)
        if got.order is not None:
            for e in range(got.min_deg, got.order + 1):
                assert got.coeff(e) == true.coeff(e), (pa, pb, e)
        # binomial fast paths agree with the generic product
        c, k = rng.choice(COEFS[1:]), rng.randint(-2, 3)
        binom = LS.from_pairs([(0, F(1)), (k, c)])   # accumulates at k == 0
        via_fast = ta.mul_binomial(c, k)
        via_mul = ta.mul(binom)
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


def test_div_binomial_order_is_a_cap():
    # an order above the input's caps nothing on any path, like mul(cap=)
    s = poly({0: 1, 1: 3}, order=4)
    assert s.div_binomial(F(0), 2, 9) == s
    assert s.div_binomial(F(1), 0, 9) == s.scale(F(1, 2))
    assert s.div_binomial(F(-1), 1, 9).order == 4
    assert LS.zero(1).div_binomial(F(0), 1, 1) == LS.zero(1)
    assert s.div_binomial(F(0), 2, 2) == s.truncate(2)


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
def series_and_ref(draw, exact=None, size=7, top=10):
    lo = draw(st.integers(-3, 3))
    cs = draw(st.lists(COEF, max_size=size))
    if exact is None:
        exact = draw(st.booleans())
    order = None if exact else draw(st.integers(-3, top))
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


def ref_cap(x, order):
    """Truncation at `order` as a cap: an order above x's leaves x."""
    if order is None or order >= _top(x[1]):
        return x
    return ref_truncate(x, order)


def ref_div_binomial(x, c, k, order=None):
    # `order` caps the result on every path
    if not c:
        return ref_cap(x, order)
    if k == 0:
        return ref_cap(ref_scale(x, 1 / (1 + c), 0), order)
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

#: crossovers that force each form of `mul`'s integer convolution: rows
#: for every product, or Kronecker substitution for every dense one
MUL_FORMS = {"rows": float("inf"), "kronecker": 0}


@contextmanager
def mul_form(name):
    saved = series._ROWS_MAX
    series._ROWS_MAX = MUL_FORMS[name]
    try:
        yield
    finally:
        series._ROWS_MAX = saved


@given(series_and_ref(), series_and_ref(),
       st.one_of(st.none(), st.integers(-6, 14)))
@KERNEL
def test_kernel_mul(x, y, cap):
    assert_matches(x[0], x[1])
    want, capped = ref_mul(x[1], y[1]), ref_mul(x[1], y[1], cap)
    for form in MUL_FORMS:
        with mul_form(form):
            assert_matches(x[0].mul(y[0]), want)
            assert_matches(x[0].mul(y[0], cap=cap), capped)


SMALL = st.builds(F, st.integers(-2 ** 17, 2 ** 17), st.sampled_from((1, 2, 9)))


@st.composite
def dense_series_and_ref(draw, size=40):
    """Windows up to `size` wide, mostly nonzero, of small or tall
    coefficients of both signs: the products `mul` forms by Kronecker
    substitution."""
    lo, n = draw(st.integers(-3, 3)), draw(st.integers(size // 5, size))
    cs = draw(st.lists(draw(st.sampled_from((SMALL, TALL))),
                       min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, len(cs) - 1), max_size=len(cs) // 8)):
        cs[i] = F(0)
    order = None if draw(st.booleans()) else lo + draw(st.integers(n // 2, size))
    return LS._make(lo, cs, order), \
        (_window({lo + i: c for i, c in enumerate(cs)}, order), order)


@pytest.mark.parametrize("form", MUL_FORMS)
@given(dense_series_and_ref(), dense_series_and_ref(),
       st.one_of(st.none(), st.integers(-6, 44)))
@settings(max_examples=25, deadline=None)
def test_kernel_mul_dense(form, x, y, cap):
    with mul_form(form):
        got = x[0].mul(y[0], cap=cap)
    assert_matches(got, ref_mul(x[1], y[1], cap))


@pytest.mark.parametrize("form", MUL_FORMS)
@pytest.mark.parametrize("n", [7, 8, 121])
@pytest.mark.parametrize("h", [1, 17, 64, 300])
def test_kernel_mul_slot_bound(form, n, h):
    # |c_j| <= n max|a| max|b| holds with equality at the middle
    # coefficient; the second height puts the bound's bit count at a
    # multiple of 8, where a slot one bit short of it overflows
    for hb in (h, h - (2 * h + n.bit_length()) % 8 + 8):
        ma, mb = 2 ** h - 1, 2 ** hb - 1
        for step in (1, -1):
            a = LS._from_ints(0, [-ma * step ** i for i in range(n)], 1, None)
            b = LS._from_ints(0, [-mb * step ** i for i in range(n)], 1, None)
            want = [ma * mb * step ** j * min(j + 1, 2 * n - 1 - j)
                    for j in range(2 * n - 1)]
            with mul_form(form):
                got = a.mul(b)
            assert got.nums == tuple(want) and got.den == 1
            assert abs(got.nums[n - 1]) == n * ma * mb
            assert_canonical(got)


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


@given(series_and_ref(), COEF, st.integers(-16, 16),
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
    assert_matches(s.div_binomial(c, k, order),
                   ref_div_binomial(r, c, k, order))


#: widest window of `series_and_ref(size=24, top=24)`: from q^-3 to q^24
WIDE = 28


@st.composite
def binomial_factors(draw):
    """Integer factors (p, r, e, invert) of (1 + (p/r) q^e)^(+-1):
    negative p, r != 1 (tall ones too), exponents from 1 up to the widest
    window + 2, inverted or not, in any mix."""
    cs = draw(st.lists(NONZERO, max_size=5))
    return [(c.numerator, c.denominator, draw(st.integers(1, WIDE + 2)),
             draw(st.booleans())) for c in cs]


@given(series_and_ref(size=24, top=24), binomial_factors(),
       st.one_of(st.none(), st.integers(-4, 26)))
@KERNEL
def test_kernel_mul_binomials(x, factors, order):
    # one integer pass for all factors against the Fraction reference
    # and against one mul_binomial/div_binomial per factor
    s, r = x
    if s.is_exact and order is None and any(f[3] for f in factors):
        with pytest.raises(ValueError):
            s.mul_binomials(factors, order)
        return
    got = s.mul_binomials(factors, order)
    want, seq = ref_cap(r, order), s._cap(order)
    for p, d, e, invert in factors:
        c = F(p, d)
        if invert:
            want = ref_div_binomial(want, c, e)
            seq = seq.div_binomial(c, e)
        else:
            want = ref_add(want, ref_scale(want, c, e))
            seq = seq.mul_binomial(c, e)
    assert_matches(got, want)
    assert got == seq and hash(got) == hash(seq)


@st.composite
def wide_series_and_ref(draw):
    """A truncated window of 1 to 130 entries from its first nonzero
    entry on: 20-bit numerators of either sign over one of DENS."""
    width = draw(st.integers(1, 130))
    lo = draw(st.integers(-3, 3))
    den = draw(st.sampled_from(DENS))
    nums = draw(st.lists(st.integers(-2 ** 20, 2 ** 20),
                         min_size=width, max_size=width))
    nums[0] = nums[0] or 1
    cs = [F(n, den) for n in nums]
    order = lo + width - 1
    return LS._make(lo, cs, order), \
        (_window({lo + i: c for i, c in enumerate(cs)}, order), order)


#: p/r = -1 and +1 three times as often as any other small coefficient
UNIT_OR_SMALL = st.one_of(*[st.sampled_from((F(-1), F(1)))] * 3,
                          st.sampled_from([c for c in COEFS if c]))


@st.composite
def unit_binomial_factors(draw):
    """Integer factors (p, r, e, invert) of (1 + (p/r) q^e)^(+-1), mostly
    1 - q^e and 1 + q^e, e from 1 to 16: a 130-wide window takes the
    strided prefix sums of `_divide_pass` up to e = 11 and its slice
    recurrence above, so draws fall on both sides of e^2 <= width."""
    cs = draw(st.lists(UNIT_OR_SMALL, min_size=1, max_size=4))
    return [(c.numerator, c.denominator, draw(st.integers(1, 16)),
             draw(st.booleans())) for c in cs]


@given(wide_series_and_ref(), unit_binomial_factors(),
       st.one_of(st.none(), st.integers(-4, 134)))
@KERNEL
def test_kernel_divide_unit_binomials(x, factors, order):
    # divisions by 1 - q^e and 1 + q^e against the Fraction recurrence
    # and against one div_binomial (or mul_binomial) per factor
    s, r = x
    got = s.mul_binomials(factors, order)
    want, seq = ref_cap(r, order), s._cap(order)
    for p, d, e, invert in factors:
        c = F(p, d)
        if invert:
            want = ref_div_binomial(want, c, e)
            seq = seq.div_binomial(c, e)
        else:
            want = ref_add(want, ref_scale(want, c, e))
            seq = seq.mul_binomial(c, e)
    assert_matches(got, want)
    assert got == seq and hash(got) == hash(seq)


@given(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=1, max_size=130),
       st.integers(1, 16), st.sampled_from((-1, 1)))
@KERNEL
def test_divide_pass_unit_keeps_the_denominator(nums, e, p):
    # a division by 1 - q^e or 1 + q^e is exact over the same denominator:
    # the integer window times (1 + p q^e) gives the input back
    out = list(nums)
    assert series._divide_pass(out, p, 1, e) == 1
    back = out[:e] + [b + p * a for a, b in zip(out, out[e:])]
    assert back == nums


# ------------------------------------------- packed unit binomials
#
# A long list of binomials (1 + p q^e)^(+-1), p = +-1, on a wide window is
# applied as shift-adds on one packed integer (`series._packed_pass`) in
# slots that `series._slot_bits` sizes from a proven bound.


@contextmanager
def packed_calls():
    """The list of calls to `series._packed_pass` made inside."""
    seen, real = [], series._packed_pass
    series._packed_pass = lambda *args: seen.append(args) or real(*args)
    try:
        yield seen
    finally:
        series._packed_pass = real


@contextmanager
def per_factor():
    """`mul_binomials` without its packed pass: one pass per factor."""
    saved = series._PACK_MIN
    series._PACK_MIN = float("inf")
    try:
        yield
    finally:
        series._PACK_MIN = saved


@st.composite
def packed_case(draw):
    """A truncated window 2 to 160 wide (on both sides of _PACK_WIDTH) of
    numerators up to 2^64 of either sign over one of DENS, and 1 to 40
    factors (on both sides of _PACK_MIN) (p, 1, e, invert), p = +-1, e
    from 1 to past the width."""
    width = draw(st.integers(2, 160))
    top = draw(st.sampled_from((2 ** 4, 2 ** 20, 2 ** 64)))
    nums = draw(st.lists(st.integers(-top, top), min_size=width,
                         max_size=width))
    nums[0] = nums[0] or 1
    lo = draw(st.integers(-3, 3))
    s = LS._from_ints(lo, nums, draw(st.sampled_from(DENS)), lo + width - 1)
    factors = draw(st.lists(st.tuples(
        st.sampled_from((-1, 1)), st.just(1), st.integers(1, width + 8),
        st.booleans()), min_size=1, max_size=40))
    return s, factors


@given(packed_case())
@KERNEL
def test_kernel_packed_unit_binomials(case):
    # the packed pass against the Fraction recurrence and against one
    # pass per factor, at every width and length; `mul_binomials` takes
    # it exactly where its gate says
    s, factors = case
    want = (dict(s.terms()), s.order)
    for p, _, e, invert in factors:
        want = ref_div_binomial(want, F(p), e) if invert else \
            ref_add(want, ref_scale(want, F(p), e))
    with per_factor():
        plain = s.mul_binomials(factors)
    assert_matches(plain, want)
    with packed_calls() as seen:
        got = s.mul_binomials(factors)
    assert got == plain
    assert bool(seen) == (len(s.nums) >= series._PACK_WIDTH
                          and len(factors) >= series._PACK_MIN)
    packed = series._packed_pass(list(s.nums), factors)
    assert LS._from_ints(s.min_deg, packed, s.den, s.order) == plain
    # every result numerator fits its slot with the sign
    bits = series._slot_bits(list(s.nums), factors)
    assert max(map(abs, packed)).bit_length() < bits


def proven_slot_bits(nums, factors) -> int:
    """bitlen(max|a|) + ceil(L) + 1 for L = log2 of M(rho) / rho^(w - 1),
    at the double rho = 1 - 1/sqrt(w), in 60-digit decimals."""
    w = len(nums)
    with localcontext() as ctx:
        ctx.prec = 60
        rho = Decimal(1 - 1 / sqrt(w))
        ln_m = -(w - 1) * rho.ln()
        for p, _, e, invert in factors:
            if e < w:
                x = abs(p) * rho ** e
                ln_m += -(1 - x).ln() if invert else (1 + x).ln()
        bound = ceil(ln_m / Decimal(2).ln())
    return max(map(abs, nums)).bit_length() + bound + 1


@given(packed_case())
@KERNEL
def test_slot_bits_cover_the_proven_bound(case):
    # the float computation of the bound, with its margin bit, is never
    # below the bound itself
    s, factors = case
    assert series._slot_bits(list(s.nums), factors) >= \
        proven_slot_bits(s.nums, factors)


def test_slot_bits_without_a_bound():
    # no rho > 0 at width 1, and 1/(1 - 2q^e) has no majorant at rho
    # where 2 rho^e >= 1 (rho = 0.86 at width 48); nor does the float
    # rounding argument hold past 2^20 factors or at |p| >= 2^64: there
    # mul_binomials runs its passes per factor
    assert series._slot_bits([1], [(-1, 1, 1, True)]) is None
    assert series._slot_bits([1] * 48, [(-2, 1, 1, True)]) is None
    assert series._slot_bits([1] * 48, [(-2, 1, 48, True)]) is not None
    assert series._slot_bits([1] * 48, [(2 ** 64, 1, 5, False)]) is None
    assert series._slot_bits([1] * 48, [(-1, 1, 1, True)] * 2 ** 20) is None
    s = LS._from_ints(0, [1], 1, 59)
    factors = [(-2, 1, 1, True)] + [(-1, 1, e, True) for e in range(2, 20)]
    with packed_calls() as seen:
        got = s.mul_binomials(factors)
    assert len(seen) == 1
    with per_factor():
        assert got == s.mul_binomials(factors)


def partition_counts(width: int, distinct: bool) -> list:
    """The number of partitions of n < width (into distinct parts)."""
    out = [1] + [0] * (width - 1)
    for k in range(1, width):
        for n in (range(width - 1, k - 1, -1) if distinct
                  else range(k, width)):
            out[n] += out[n - k]
    return out


@pytest.mark.parametrize("width", [48, 49, 64, 97, 121, 160, 200])
@pytest.mark.parametrize("lead", [1, -(2 ** 64 - 1)])
def test_packed_partition_products(width, lead):
    # 1/(q;q)_inf and (-q;q)_inf, every factor acting on the window:
    # partitions and partitions into distinct parts, times the lead
    one = LS._from_ints(0, [lead], 1, width - 1)
    for factors, distinct in (([(-1, 1, e, True) for e in range(1, width)],
                               False),
                              ([(1, 1, e, False) for e in range(1, width)],
                               True)):
        want = tuple(lead * c for c in partition_counts(width, distinct))
        with packed_calls() as seen:
            got = one.mul_binomials(factors)
        assert len(seen) == 1
        assert got.nums == want and got.den == 1 and got.order == width - 1


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


@given(series_and_ref(), st.integers(-4, 10))
@KERNEL
def test_kernel_truncate(x, n):
    s, r = x
    if n <= _top(r[1]):
        assert_matches(s.truncate(n), ref_truncate(r, n))


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
