"""Equal-power-sum multiset machinery and its bridge to hypergeometric
term sequences.

A pair of size-m multisets A, B with matching power sums for e = 1..k
solves the classic equal-sums-of-like-powers problem; k = m - 1 is the
ideal case, equivalently (prod (Z - a_i)) - (prod (Z - b_i)) is constant.
A closely related polynomial condition on sizes (m, m-1),

    prod(1 - a_i) = prod(Z - a_i) - (Z - 1) * prod(Z - b_i),

is exactly what makes the telescoping alpha built from the a's and b's
collapse, turning each such pair into a hypergeometric transform. The
multiset checks and families are exact rational arithmetic.
`bridge_sequences` writes the attached alpha/beta sequences once, over
the `Ctx` algebra, for the catalog records (phi54, ppte-m, cpte3) under
both strategies; `pte_alpha_beta` checks the bridge condition and
declares them as two `AlphaSequence`s, for either context.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .bailey import AlphaSequence, Summand, phi_term
from .context import Ctx
from .errors import (
    BridgeConstraintError,
    DegenerateFamily,
    SizeMismatch,
)

#: A multiset is any sequence of rationals; order never matters.
Multiset = Tuple[Fraction, ...]


def multiset(values: Iterable) -> Multiset:
    """Normalize to a sorted tuple of Fractions (order-insensitive form)."""
    return tuple(sorted(Fraction(v) for v in values))


def multiset_equal(a: Iterable, b: Iterable) -> bool:
    return multiset(a) == multiset(b)


def power_sums(s: Sequence, e: int) -> Fraction:
    """Sum of x^e over the multiset, exact."""
    if e < 1:
        raise ValueError("power-sum exponent must be >= 1")
    return sum((Fraction(x) ** e for x in s), Fraction(0))


def check_pte(a: Sequence, b: Sequence, k: int) -> Tuple[bool, Optional[int]]:
    """True iff power sums agree for e = 1..k; else the first failing e."""
    if len(a) != len(b):
        raise SizeMismatch(f"multiset sizes differ: {len(a)} vs {len(b)}")
    for e in range(1, k + 1):
        if power_sums(a, e) != power_sums(b, e):
            return False, e
    return True, None


def _poly_from_roots(roots: Sequence) -> List[Fraction]:
    """Coefficients of prod (Z - r), ascending in Z."""
    coeffs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= r * c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def check_ideal_poly(a: Sequence, b: Sequence
                     ) -> Tuple[bool, Optional[Fraction]]:
    """Ideal-solution criterion: prod(Z-a_i) - prod(Z-b_i) constant in Z.

    Returns (True, C) with the constant difference, or (False, None) when
    any coefficient of Z^1..Z^m survives.
    """
    if len(a) != len(b):
        raise SizeMismatch(f"multiset sizes differ: {len(a)} vs {len(b)}")
    pa, pb = _poly_from_roots(a), _poly_from_roots(b)
    diff = [ca - cb for ca, cb in zip(pa, pb)]
    if any(diff[1:]):
        return False, None
    return True, diff[0]


def affine(s: Sequence, m: Fraction, k: Fraction) -> Multiset:
    """Elementwise x -> m*x + k; preserves every power-sum relation."""
    m, k = Fraction(m), Fraction(k)
    return tuple(m * Fraction(x) + k for x in s)


def check_bridge(a: Sequence, b: Sequence) -> bool:
    """Polynomial compatibility for sizes (m, m-1):

        prod(1 - a_i) = prod(Z - a_i) - (Z - 1) * prod(Z - b_i)

    identically in Z. Holding this is what licenses pte_alpha_beta.
    The roots of (Z - 1) prod(Z - b_i) are B + {1}, and a constant
    difference is prod(1 - a_i) anyway (set Z = 1), so this is the ideal
    criterion `check_ideal_poly` for A against B + {1}.
    """
    if len(b) != len(a) - 1:
        raise SizeMismatch(f"need sizes (m, m-1), got ({len(a)}, {len(b)})")
    return check_ideal_poly(a, tuple(b) + (1,))[0]


_FAMILY6_RAW = (
    # (coefficient of m^2, of n*m, of n^2) per entry, first A then B
    ((-5, 4, -3), (-3, 6, 5), (-1, -10, -1), (5, -4, 3), (3, -6, -5),
     (1, 10, 1)),
    ((-5, 6, 3), (-3, -4, -5), (-1, 10, -1), (5, -6, -3), (3, 4, 5),
     (1, -10, 1)),
)

_FAMILY6_NORM = (
    ((-3, 7, -2), (-2, 8, 2), (-1, 0, -1), (2, 3, 1), (1, 2, -3),
     (0, 10, 0)),
    ((-3, 8, 1), (-2, 3, -3), (-1, 10, -1), (2, 2, -2), (1, 7, 2)),
)


def _quad(spec, m: Fraction, n: Fraction, shift: Fraction) -> Fraction:
    cm2, cnm, cn2 = spec
    return cm2 * m * m + cnm * n * m + cn2 * n * n + shift


def family6(m, n, normalized: bool = True, K=0) -> Tuple[Multiset, Multiset]:
    """The two published size-6 quadratic families.

    normalized=True returns (A size 6, B size 5) with the sixth b fixed to
    1 (append it yourself for power-sum checks); normalized=False returns
    the raw size-6/size-6 family with free translation K. Degenerate
    parameter choices that collapse the two multisets are rejected.
    """
    m, n = Fraction(m), Fraction(n)
    if not m or not n:
        raise ValueError("family parameters m, n must be nonzero")
    if normalized:
        a = tuple(_quad(s, m, n, Fraction(1)) for s in _FAMILY6_NORM[0])
        b = tuple(_quad(s, m, n, Fraction(1)) for s in _FAMILY6_NORM[1])
        if multiset_equal(a, b + (Fraction(1),)):
            raise DegenerateFamily("size-6 family collapsed (A = B + {1})")
        return a, b
    K = Fraction(K)
    a = tuple(_quad(s, m, n, K) for s in _FAMILY6_RAW[0])
    b = tuple(_quad(s, m, n, K) for s in _FAMILY6_RAW[1])
    if multiset_equal(a, b):
        raise DegenerateFamily("size-6 family collapsed (A = B)")
    return a, b


_FAMILY12_OFFSETS = (
    (22, 61, 86, 127, 140, 151),
    (35, 47, 94, 121, 146, 148),
)


def family12(m, K) -> Tuple[Multiset, Multiset]:
    """The published symmetric size-12 pair: offsets +-t*m around K, equal
    power sums through e = 11."""
    m, K = Fraction(m), Fraction(K)
    if not m:
        raise ValueError("family parameter m must be nonzero")
    a = tuple(K + s * t * m for t in _FAMILY12_OFFSETS[0] for s in (1, -1))
    b = tuple(K + s * t * m for t in _FAMILY12_OFFSETS[1] for s in (1, -1))
    return a, b


def bridge_sequences(ctx: Ctx, a: Sequence, b: Sequence):
    """(alpha, beta), the declared terms (`bailey.Summand`) of the
    telescoping sequence attached to a bridge-compatible pair, over `ctx`:

        alpha_n = (a_1, .., a_m; q)_n q^{m n} / (q, b_1 q, .., b_{m-1} q; q)_n,
        beta_n  = (a_1 q, .., a_m q; q)_n / (q, b_1 q, .., b_{m-1} q; q)_n,

    with alpha_0 = 1 and partial sums of alpha equal to beta when
    check_bridge(a, b) holds (not checked here; see `pte_alpha_beta`)."""
    q = ctx.qpow(1)
    lower = [ctx.mul(bi, q) for bi in b]
    return (phi_term(ctx, a, lower, q, ctx.pow_int(q, len(a))),
            Summand(ctx, ups=[(ctx.mul(ai, q), q) for ai in a],
                    downs=[(d, q) for d in [q, *lower]]))


def pte_alpha_beta(a: Sequence, b: Sequence
                   ) -> Tuple[AlphaSequence, AlphaSequence]:
    """The bridge pair of `bridge_sequences` as two `AlphaSequence`s,
    alpha (alpha_0 = 1) and beta, read in any context (exactly with
    `.value(n, order)`). Requires check_bridge(a, b) and every b_i
    nonzero.
    """
    a = tuple(Fraction(v) for v in a)
    b = tuple(Fraction(v) for v in b)
    if not check_bridge(a, b):
        raise BridgeConstraintError(
            "multisets do not satisfy the polynomial bridge condition")
    if any(not bi for bi in b):
        raise BridgeConstraintError("bridge needs every b_i nonzero")

    def sequence(which: int) -> AlphaSequence:
        # power series: rational arguments and q^(m n) lower nothing
        return AlphaSequence(lambda ctx, n: bridge_sequences(
            ctx, a, b)[which](n), floor=0)

    return sequence(0), sequence(1)
