"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
on success). Criterion 1 is the full catalog run at order 40, seed 1,
3 samples per identity; its report document is shared with the
determinism criterion through a module-scoped fixture.
"""

import hashlib
import random
import time
from fractions import Fraction as F

import pytest

from qident.bailey import (
    AlphaSequence,
    cor_transform,
    running_sums,
    unit_alpha,
    wp_beta_sum,
    wp_chain_alpha,
    wp_chain_beta,
)
from qident.pte import (
    check_bridge,
    check_ideal_poly,
    check_pte,
    family6,
    family12,
)
from qident.qfunc import PochTower, poch_infinite
from qident.registry import (
    catalog,
    document_json,
    sample_params,
    strip_timing,
    suite_document,
    verify_one,
    verify_suite,
    with_injected_fault,
)
from qident.series import LaurentSeries as LS, QMonomial
from two_strategies import exact, lift, numeric

Q = QMonomial.of(1, 1)

SUITE_KW = dict(order=40, seed=1, samples=3, strategy="auto")


def _criterion(num: int, text: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def suite_run():
    t0 = time.perf_counter()
    reports = verify_suite("*", **SUITE_KW)
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def _doc(reports):
    return document_json(strip_timing(suite_document(
        reports, order=40, seed=1, filter_pattern="*", samples=3,
        strategy="auto")))


def test_criterion_1_full_suite(suite_run):
    reports, elapsed = suite_run
    mismatches = [r for r in reports if r.status == "mismatch"]
    per_record_ok = {}
    for r in reports:
        per_record_ok.setdefault(r.id, False)
        per_record_ok[r.id] |= (r.status == "equal")
    all_ids = {rec.id for rec in catalog()}
    uncovered = all_ids - {rid for rid, ok in per_record_ok.items() if ok}
    ok = (not mismatches) and (not uncovered) and elapsed < 120.0
    _criterion(1, f"full suite order=40 seed=1 samples=3: "
                  f"{len(reports)} reports, {len(mismatches)} mismatches, "
                  f"uncovered={sorted(uncovered)}, {elapsed:.1f}s", ok)


def test_criterion_1_all_exact(suite_run):
    # criterion 1 would accept a numeric fallback; the north-star run is
    # every job exact and equal
    reports, _ = suite_run
    ok = len(reports) == 97 and all(
        (r.strategy, r.status) == ("exact", "equal") for r in reports)
    _criterion(1, f"{len(reports)} reports, all exact equal", ok)


# The sha256 of the criterion-1 document (timing dropped), as reported
# before the exact kernel applied each Pochhammer step's binomials in one
# integer pass. Kernel changes that only speed the arithmetic up must keep
# every report byte for byte.
CRITERION_1_DIGEST = \
    "48a94e44fc5395a291bd26228477606c1aaabd1f35b95c167035550847811db3"


def test_criterion_1_document_pinned(suite_run):
    reports, _ = suite_run
    digest = hashlib.sha256(_doc(reports).encode()).hexdigest()
    _criterion(1, f"criterion-1 document sha256 {digest[:12]}...",
               digest == CRITERION_1_DIGEST)


def _sides_agree(build, order):
    """Whether the pairs (lhs, rhs) that build(ctx) lists one after the
    other agree exactly through `order`, and within the numeric
    tolerance at q = 1/7."""
    values = exact(order, build)
    ctx, nums = numeric(build)
    return all(values[i].compare(values[i + 1], order) is None and
               ctx.sub(nums[i], nums[i + 1]).copy_abs() <= ctx.tol
               for i in range(0, len(values), 2))


def test_criterion_2_central_relation():
    # k = aq: the pair relation collapses to plain partial sums, exactly
    # and at q = 1/7
    rng = random.Random(202)
    N = 24
    ok = True
    for _ in range(20):
        support = rng.randint(0, 8)
        vals = [F(rng.randint(-9, 9), rng.randint(1, 6))
                for _ in range(support + 1)]
        alpha = AlphaSequence.from_values(vals)
        a = QMonomial(rng.choice([F(1), F(2), F(1, 2), F(-1)]),
                      rng.randint(0, 2))

        def build(ctx, alpha=alpha, a=a):
            f, am = alpha.factor(ctx), lift(ctx, a)
            beta, sums = [], running_sums(ctx, f)
            for n in range(9):
                beta += [wp_beta_sum(ctx, am, ctx.mul(am, ctx.qpow(1)), f,
                                     n), sums(n)]
            return beta

        ok &= _sides_agree(build, N)
    _criterion(2, "k = aq reduces the pair relation to partial sums "
                  "(20 random sequences, n <= 8, zero tolerance, and "
                  "within the numeric tolerance at q = 1/7)", ok)


def _admissible_chain(rng):
    while True:
        e1, e2 = rng.randint(1, 2), rng.randint(1, 2)
        r1 = QMonomial(rng.choice([F(1), F(2), F(1, 2)]), e1)
        r2 = QMonomial(rng.choice([F(1), F(-1), F(1, 2)]), e2)
        ea = e1 + e2 + rng.randint(0, 1)
        a = QMonomial(rng.choice([F(1), F(2)]), ea)
        k = QMonomial(rng.choice([F(1), F(1, 2), F(3)]), ea + rng.randint(0, 2))
        c = k * r1 * r2 / (a * Q)
        bad = c.is_one
        for arg in (a * Q / r1, a * Q / r2, k * r1 / a, k * r2 / a, Q * c,
                    k / c if not k.is_zero else k):
            if arg.is_one or (arg.coef == 1 and arg.exp <= 0):
                bad = True
        if not bad:
            return a, k, r1, r2


def test_criterion_3_chain_closure():
    rng = random.Random(303)
    N = 34
    ok = True
    for _ in range(5):
        params = _admissible_chain(rng)

        def build(ctx, params=params):
            a, k, r1, r2 = (lift(ctx, v) for v in params)
            f = unit_alpha().factor(ctx)
            prime = f._replace(at=lambda j: wp_chain_alpha(
                ctx, a, r1, r2, f, j), floor=None)
            sides = []
            for n in range(7):
                sides += [wp_beta_sum(ctx, a, k, prime, n),
                          wp_chain_beta(ctx, a, k, r1, r2, f, n)]
            return sides

        ok &= _sides_agree(build, N)
    _criterion(3, "one chain step from the seed pair satisfies the "
                  "defining relation (5 specializations, n <= 6, exactly "
                  "and at q = 1/7)", ok)


def test_criterion_4_partial_sum_engine():
    rng = random.Random(404)
    N = 30
    triples = [(QMonomial.of(1, 1), QMonomial.of(1, 2), QMonomial.of(1, 3)),
               (QMonomial.of(2, 1), QMonomial.of(F(1, 2), 1), QMonomial.of(-1, 2)),
               (QMonomial.of(1, 2), QMonomial.of(3, 0), QMonomial.of(1, 1))]
    ok = True
    for _ in range(20):
        vals = [F(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(9)]
        alpha = AlphaSequence.from_values(vals)

        def build(ctx, alpha=alpha):
            f = alpha.factor(ctx)
            sides = []
            for xyz in triples:
                sides += cor_transform(ctx, *(lift(ctx, v) for v in xyz),
                                       running_sums(ctx, f), f)
            return sides

        ok &= _sides_agree(build, N)
    _criterion(4, "partial-sum transform holds for 20 random finite "
                  "sequences at 3 monomial specializations, order 30, "
                  "exactly and at q = 1/7", ok)


def test_criterion_5_pte_battery():
    ok = check_pte([1, 5, 6], [2, 3, 7], 2) == (True, None)
    ok &= check_pte([1, 5, 6], [2, 3, 7], 3) == (False, 3)

    for m, K in [(1, 0), (F(1, 2), 3), (2, F(-1, 3))]:
        a, b = family12(m, K)
        ok &= check_pte(a, b, 11) == (True, None)

    rng = random.Random(505)
    found = 0
    while found < 10:
        m = F(rng.randint(-4, 4), rng.choice([1, 2]))
        n = F(rng.randint(-4, 4), rng.choice([1, 2]))
        if not m or not n or m == n:
            continue
        try:
            a, b = family6(m, n)
        except Exception:
            continue
        if any(not v for v in a) or any(not v for v in b):
            continue
        ok &= check_bridge(a, b)
        ok &= check_pte(a, b + (F(1),), 5) == (True, None)
        found += 1

    for _ in range(50):
        size = rng.randint(1, 5)
        a = [F(rng.randint(-6, 6)) for _ in range(size)]
        b = [F(rng.randint(-6, 6)) for _ in range(size)]
        via_sums = check_pte(a, b, size - 1)[0] if size > 1 else True
        via_poly = check_ideal_poly(a, b)[0]
        ok &= (via_sums == via_poly)
    _criterion(5, "power-sum battery: reference pair, size-12 family, "
                  "size-6 family bridge, 50 cross-oracle multisets", ok)


def test_criterion_6_kernel_properties():
    s = poch_infinite(Q, Q, 40)
    ok = all(c in (F(-1), F(0), F(1)) for c in s.coeffs)

    rng = random.Random(606)
    for _ in range(50):
        c = rng.choice([F(1), F(2), F(-1), F(1, 2), F(3, 4)])
        e = rng.randint(0, 2)
        a = QMonomial(c, e)
        n, m = rng.randint(0, 10), rng.randint(0, 10)
        # the finite Pochhammers as the runtime reads them: one lookup
        # of a one-factor tower, exact (order None)
        lhs = PochTower(a, Q, None).upto(n + m)
        rhs = PochTower(a, Q, None).upto(n) * \
            PochTower(QMonomial(c, e + n), Q, None).upto(m)
        ok &= (lhs == rhs)

    for _ in range(50):
        N = rng.randint(6, 16)
        lo = rng.randint(-3, 2)
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(N - lo + 1)]
        s = LS._make(lo, coeffs, N)
        if s.is_zero:
            s = s + LS.one(N)
        prod = s * s.invert()
        ok &= prod.compare(LS.one(prod.order), prod.order) is None
    _criterion(6, "pentagonal coefficients in {-1,0,1} to q^40; 50 "
                  "splitting laws; 50 inverse round-trips", ok)


def test_criterion_7_fault_sensitivity():
    rng = random.Random(707)
    recs = rng.sample(list(catalog()), 10)
    ok = True
    for rec in recs:
        j = rng.randint(1, 35)
        faulty = with_injected_fault(rec, j)
        assignment = sample_params(rec.id, 11, 1, "exact")[0]
        rep = verify_one(faulty, assignment, 40)
        if rep.status != "mismatch" or rep.mismatch_exponent != F(j):
            ok = False
            print(f"  fault not pinned: {rec.id} j={j} -> {rep.status} "
                  f"{rep.mismatch_exponent} {rep.reason}")
    _criterion(7, "10 random records with an injected (1 + q^j) factor "
                  "mismatch at exactly j", ok)


def test_criterion_8_determinism(suite_run):
    reports, _ = suite_run
    doc1 = _doc(reports)
    doc2 = _doc(verify_suite("*", **SUITE_KW))
    doc3 = _doc(verify_suite("*", **SUITE_KW))
    ok = doc1 == doc2 == doc3
    _criterion(8, "byte-identical reports across reruns (timing field "
                  "excluded)", ok)
