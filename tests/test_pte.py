"""Equal-power-sum machinery and the hypergeometric bridge."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qident.bailey import running_sums
from qident.errors import BridgeConstraintError, DegenerateFamily, SizeMismatch
from qident.pte import (
    affine,
    check_bridge,
    check_ideal_poly,
    check_pte,
    family6,
    family12,
    multiset,
    multiset_equal,
    power_sums,
    pte_alpha_beta,
)
from qident.series import LaurentSeries as LS
from two_strategies import assert_identity


# --------------------------------------------------------------- power sums

def test_power_sums_zero_singleton():
    assert power_sums([0], 5) == 0


def test_power_sums_brute():
    assert power_sums([1, 5, 6], 2) == 1 + 25 + 36


def test_power_sums_symmetric_odd_vanish():
    a, _ = family12(1, 0)
    for e in (1, 3, 5, 7, 9, 11):
        assert power_sums(a, e) == 0


# ---------------------------------------------------------------- check_pte

def test_check_pte_156_237():
    assert check_pte([1, 5, 6], [2, 3, 7], 2) == (True, None)
    ok, e = check_pte([1, 5, 6], [2, 3, 7], 3)
    assert not ok and e == 3
    assert power_sums([1, 5, 6], 3) == 342
    assert power_sums([2, 3, 7], 3) == 378


def test_check_pte_reflexive():
    s = [F(1, 2), 3, -4]
    assert check_pte(s, list(reversed(s)), 7) == (True, None)


def test_check_pte_size_mismatch():
    with pytest.raises(SizeMismatch):
        check_pte([1], [1, 2], 1)


def test_family12_is_degree_11():
    for m, K in [(1, 0), (2, 3), (F(1, 2), F(-1, 3))]:
        a, b = family12(m, K)
        assert len(a) == len(b) == 12
        assert check_pte(a, b, 11) == (True, None)
        ok, e = check_pte(a, b, 12)
        assert not ok and e == 12


# ----------------------------------------------------------- ideal criterion

def test_ideal_poly_156_237():
    # {1,5,6} vs {2,3,7} is ideal of size 3; constant from direct expansion:
    # (Z-1)(Z-5)(Z-6) - (Z-2)(Z-3)(Z-7) = 11Z... compute honestly
    ok, c = check_ideal_poly([1, 5, 6], [2, 3, 7])
    assert ok
    # oracle: evaluate both products at Z=0 and Z=1; constant must match both
    at0 = (0 - 1) * (0 - 5) * (0 - 6) - (0 - 2) * (0 - 3) * (0 - 7)
    at1 = (1 - 1) * (1 - 5) * (1 - 6) - (1 - 2) * (1 - 3) * (1 - 7)
    assert at0 == at1 == c == 12


def test_ideal_poly_equal_sets():
    assert check_ideal_poly([3, F(1, 2)], [F(1, 2), 3]) == (True, F(0))


def test_ideal_poly_failure():
    ok, c = check_ideal_poly([1, 5, 6], [2, 3, 8])
    assert not ok and c is None


def test_cross_oracle_pte_vs_poly():
    # for |A| = |B| = m: ideal poly criterion <=> power sums through m-1
    rng = random.Random(42)
    for _ in range(50):
        m = rng.randint(1, 5)
        a = [F(rng.randint(-6, 6)) for _ in range(m)]
        b = [F(rng.randint(-6, 6)) for _ in range(m)]
        via_sums, _ = check_pte(a, b, m - 1) if m > 1 else (True, None)
        via_poly, _ = check_ideal_poly(a, b)
        # the poly criterion also forces the e = m condition ... no: degree
        # m coefficients cancel identically, so Z^1..Z^{m-1} cancel iff
        # e = 1..m-1 sums agree (Newton); constant may differ
        assert via_sums == via_poly


# -------------------------------------------------------------------- affine

def test_affine_identity_and_collapse():
    s = multiset([1, 5, 6])
    assert affine(s, 1, 0) == s
    assert set(affine(s, 0, F(2, 3))) == {F(2, 3)}


def test_affine_preserves_pte():
    a, b = [1, 5, 6], [2, 3, 7]
    aa, bb = affine(a, 3, -2), affine(b, 3, -2)
    assert check_pte(aa, bb, 2) == (True, None)
    ok, e = check_pte(aa, bb, 3)
    assert not ok and e == 3


@given(st.fractions(max_denominator=8), st.fractions(max_denominator=8),
       st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_affine_invariance_property(m, k, size):
    if not m:
        m = F(1)
    rng = random.Random(int(m * 840) ^ int(k * 840) ^ size)
    a = [F(rng.randint(-5, 5)) for _ in range(size)]
    b = [F(rng.randint(-5, 5)) for _ in range(size)]
    for kk in range(1, size + 1):
        assert check_pte(a, b, kk)[0] == \
            check_pte(affine(a, m, k), affine(b, m, k), kk)[0]


# ------------------------------------------------------------------ families

def test_family6_raw_is_degree5():
    for m, n, K in [(1, 2, 0), (2, 3, 5), (F(1, 2), 1, F(3, 7)), (1, 4, 2)]:
        a, b = family6(m, n, normalized=False, K=K)
        assert len(a) == len(b) == 6
        assert check_pte(a, b, 5) == (True, None)


def test_family6_normalized_m1_n2():
    a, b = family6(1, 2)
    assert multiset_equal(a, [4, 23, -4, 13, -6, 21])
    assert multiset_equal(b, [18, -7, 16, -1, 24])
    full_b = b + (F(1),)
    assert power_sums(a, 1) == power_sums(full_b, 1) == 51
    assert check_pte(a, full_b, 5) == (True, None)


def test_family6_degenerate():
    with pytest.raises(DegenerateFamily):
        family6(1, 1)


def test_family6_normalized_bridge():
    rng = random.Random(9)
    count = 0
    while count < 10:
        m = F(rng.randint(-4, 4))
        n = F(rng.randint(-4, 4))
        if not m or not n:
            continue
        try:
            a, b = family6(m, n)
        except DegenerateFamily:
            continue
        if any(not x for x in a) or any(not x for x in b):
            continue
        assert check_bridge(a, b)
        assert check_pte(a, b + (F(1),), 5) == (True, None)
        count += 1


def test_family12_normalized_shape():
    # solving the last b entry to 1 gives the 11-entry list used by the
    # infinite-product record: offsets 148 +- t over the b offsets
    m = F(1)
    K = 1 + 148 * m
    a, b = family12(m, K)
    assert multiset_equal(
        b,
        [1 + t * m for t in (183, 113, 195, 101, 242, 54, 269, 27, 294, 2,
                             296)] + [1])
    assert multiset_equal(
        a,
        [1 + t * m for t in (170, 126, 209, 87, 234, 62, 275, 21, 288, 8,
                             299, -3)])
    assert check_pte(a, b, 11) == (True, None)


# ------------------------------------------------------------------- bridge

def test_bridge_m1():
    # A = {a}, B = {}: the identity is forced for every a
    for a in (F(2), F(-1, 3), F(7)):
        assert check_bridge([a], [])


def test_bridge_m2():
    # b1 = a1 + a2 - 1 is the unique bridge-compatible choice
    a1, a2 = F(1, 2), F(1, 3)
    assert check_bridge([a1, a2], [a1 + a2 - 1])
    assert not check_bridge([a1, a2], [a1 + a2])


def test_bridge_perturbation_fails():
    a, b = family6(1, 2)
    assert check_bridge(a, b)
    assert not check_bridge((a[0] + 1,) + a[1:], b)


def test_bridge_vs_ideal_poly():
    # bridge(A, B) <=> ideal-poly(A, B + {1}) with C = prod(1 - a_i)
    rng = random.Random(14)
    for _ in range(25):
        a2 = [F(rng.randint(-4, 4)) for _ in range(2)]
        b1 = [sum(a2) - 1]
        if check_bridge(a2, b1):
            ok, c = check_ideal_poly(a2, b1 + [F(1)])
            assert ok
            assert c == (1 - a2[0]) * (1 - a2[1])
    # and on a genuine size-6 instance
    a, b = family6(2, 3)
    assert check_bridge(a, b)
    ok, c = check_ideal_poly(a, b + (F(1),))
    assert ok
    prod = F(1)
    for ai in a:
        prod *= (1 - ai)
    assert c == prod


def test_pte_alpha_beta_m2():
    a1, a2 = F(1, 2), F(1, 3)
    alpha, beta = pte_alpha_beta([a1, a2], [a1 + a2 - 1])
    for n in range(9):
        assert_identity(lambda ctx: (running_sums(ctx, alpha.factor(ctx))(n),
                                     beta.at(ctx, n)), 24)


def test_pte_alpha_beta_family6():
    a, b = family6(1, 2)
    alpha, beta = pte_alpha_beta(a, b)
    for n in range(7):
        assert_identity(lambda ctx: (running_sums(ctx, alpha.factor(ctx))(n),
                                     beta.at(ctx, n)), 20)


def test_pte_alpha_beta_n0():
    a, b = family6(1, 2)
    alpha, beta = pte_alpha_beta(a, b)
    assert alpha.value(0, 10) == LS.one(10)
    assert beta.value(0, 10).compare(LS.one(10), 10) is None


def test_pte_alpha_beta_precondition():
    with pytest.raises(BridgeConstraintError):
        pte_alpha_beta([F(1, 2), F(1, 3)], [F(7)])
    with pytest.raises(BridgeConstraintError):
        pte_alpha_beta([F(1, 2), F(1, 2)], [F(0)])
