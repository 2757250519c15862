"""The stopping certificates on the real catalog.

Every exact sum stops where its declared summand's valuation bound passes
the goal. For each record's first seed-1 exact sample at order 20, every
sum is evaluated 10 terms past the term where the engine
(`qfunc.sum_exact`) stopped and checked against the bound it declares:
each term has no coefficient below the bound, and each term from the
stop on is zero through the goal.

Every numeric sum stops where its declared summand's envelope certifies
the tail, where its limit-ratio certificate certifies the third-order
geometric tail, or at its support. For each record's first seed-1
numeric sample, every sum is evaluated for 40 terms past the term N
where the engine (`qfunc.sum_numeric`) stopped. After an envelope stop
each term lies under the envelope, and together they lie under the
certified tail, which is at most tol/100. After a geometric stop, with
t = P u for the declared linear factor P (1 if none), each term t(N + k)
lies within |u(N) P(N + k)| |s|^k (D^3/(6(1 - D)) + D E + E3) of u(N)
P(N + k) s^k (1 + Lambda_k + Lambda2_k + Lambda_k^2/2), and the terms
after N, taken until the envelope certifies the rest, plus that rest lie
within tol/100 of the sum over k of those values, the tail the engine
added. A sum times a prefactor is certified for the product. The
seed-1 numeric suite pins how each record's sums end: on the limit
ratio, on the envelope or at a support. Property tests check the
envelope, the limit-ratio certificate and its third-order tail (with
and without a linear factor) of random declarations against plain
Fraction terms, and mutants of the tail and of its error bound against
those checks.
"""

from decimal import Context, Decimal
from fractions import Fraction as F
from functools import partial, reduce
from typing import Optional

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qident import bailey
from qident.bailey import (AlphaSequence, Factor, Summand, constant,
                           cor_pref, cor_transform, running_sums, vwp_weight)
import qident.context as context_module
from qident.context import ExactCtx, NumericCtx
from qident.errors import TailNotDecreasing, UndeclaredBound
from qident.qfunc import (_TAIL_FLOOR, BOUND_UP, Envelope,
                          NumericTermGenerator, Ratio, TermGenerator,
                          _geometric_stop, sum_exact, sum_numeric,
                          tail_after)
from qident.records import QPOOL
from qident.registry import catalog, sample_params

ORDER = 20
PAST = 10


def exact_stops(monkeypatch):
    """Wrap `ExactCtx.summation` and the engine it calls, so that each sum
    records its context, summand, start, goal and the first term n the
    engine did not take; the engine takes the terms n = start, start + 1,
    ... as declared."""
    stops, runs = [], []
    summation = ExactCtx.summation

    def traced(gen, goal, start):
        seen = []

        def term(n):
            seen.append(n)
            return gen.term(n)

        total = sum_exact(TermGenerator(term, gen.valuation_growth), goal,
                          start)
        stop = start + len(seen)
        assert seen == list(range(start, stop))
        runs.append((goal, stop))
        return total

    def traced_summation(ctx, term, start=0, times=1):
        total = summation(ctx, term, start, times)
        stops.append((ctx, term, start) + runs.pop())
        return total

    monkeypatch.setattr(context_module, "sum_exact", traced)
    monkeypatch.setattr(ExactCtx, "summation", traced_summation)
    return stops


@pytest.mark.parametrize("record", catalog(), ids=lambda r: r.id)
def test_declared_bounds_hold_past_the_stop(record, monkeypatch):
    # the headroom is fixed at the target, so no term needs a rebuild; at
    # the engine's own stop, the terms from there on are zero through the
    # goal, and no term has a coefficient below its bound
    stops = exact_stops(monkeypatch)
    a = sample_params(record.id, 1, 1, "exact")[0]
    denom = record.exponent_denominator
    record.build(ExactCtx(ORDER, denom, headroom=ORDER * denom), a.values)
    assert stops
    for ctx, term, start, goal, stop in stops:
        growth = term.law().growth()
        for n in range(start, stop + PAST + 1):
            t = ctx.finalize(term(n))
            bound = growth(n)
            low = [e for e, _ in t.terms() if e < min(bound, t.order)]
            assert low == [], (n, bound, str(t))
            if n >= stop:
                assert t.order >= goal, (n, str(t))
                assert t.truncate(goal).is_zero, (n, str(t))


# ------------------------------------------------------------ numeric half

NUMERIC_PAST = 40


def certified_stops(monkeypatch):
    """Wrap the engine `NumericCtx.summation` calls, so that each sum
    records its generator, its tolerance, the last term n it took (the
    engine takes n = start, start + 1, ... as declared), and what the
    engine added past the sum of the terms it took: zero after an
    envelope stop or at a support, the geometric tail after a limit-ratio
    stop."""
    stops = []

    def traced(gen, tol, context, start):
        seen = []

        def term(n):
            seen.append(n)
            return gen.term(n)

        total = sum_numeric(NumericTermGenerator(term, gen.envelope), tol,
                            context, start)
        assert seen == list(range(start, start + len(seen)))
        taken = reduce(context.add, map(gen.term, seen), Decimal(0))
        stops.append((gen, context.divide(tol, 100), seen[-1],
                      F(total) - F(taken)))
        return total

    monkeypatch.setattr(context_module, "sum_numeric", traced)
    return stops


@pytest.mark.parametrize("record", catalog(), ids=lambda r: r.id)
def test_numeric_envelopes_hold_past_the_stop(record, monkeypatch):
    # at the engine's own stop N, the NUMERIC_PAST terms after it lie
    # under the envelope and their sum under the certified tail; or, on
    # a limit-ratio stop, they follow t(N) s^k within the drift, and
    # with the envelope's tail where it certifies the rest they lie
    # within the cutoff of the geometric tail the engine added
    stops = certified_stops(monkeypatch)
    a = sample_params(record.id, 1, 1, "numeric")[0]
    record.build(NumericCtx(a.q_unit, record.exponent_denominator), a.values)
    assert stops
    for gen, cutoff, n, added in stops:
        env = gen.envelope
        past = [F(gen.term(m)) for m in range(n + 1, n + NUMERIC_PAST + 1)]
        if env.support is not None and n == env.support:
            assert not any(past) and not added, (n, past)
            continue
        if not added:
            m, g = (F(x) for x in env.at(n))
            for i, t in enumerate(past, 1):
                assert abs(t) <= m * g ** i, (n, i, t, m, g)
            tail = tail_after(env.at(n))
            assert sum(map(abs, past)) <= F(tail) <= F(cutoff), (n, tail)
            continue
        cert = env.ratio()
        t, s = F(gen.term(n)), F(cert.s)
        d, e, e3 = (F(x) for x in cert.bounds(n))
        c0, c1 = cert.linear
        p = c0 + c1 * n
        assert abs(s) < 1 and d < 1 and p, (n, s, d, p)
        # t = P u: sum over k >= 1 of |P(n + k)| |s|^k, over |P(n)|; the
        # relative error of the third-order form, e^D <= 1/(1 - D)
        reach = abs(s) / (1 - abs(s)) + \
            abs(c1 * s) / (abs(p) * (1 - abs(s)) ** 2)
        third = max(d ** 3 / (6 * (1 - d)) + d * e + e3, F(_TAIL_FLOOR))
        assert abs(t) * reach * third <= F(cutoff), (n, d, e, e3)
        one, two = fraction_entries(cert, n)
        for k, u in enumerate(past, 1):
            near = t / p * (p + c1 * k) * s ** k
            lam = sum(wx * (1 - b ** k) for wx, b in one)
            lam2 = sum(wx * (1 - b ** k) for wx, b in two)
            assert abs(u - near * (1 + lam + lam2 + lam * lam / 2)) <= \
                abs(near) * third, (n, k, u)
        # the sum over k >= 1 of u(n) P(n + k) s^k (1 + Lambda_k +
        # Lambda2_k + Lambda_k^2/2); the engine added it, up to the
        # rounding of the total
        geometric = t / p * sum(tail_parts(cert, n, p))
        assert abs(added - geometric) <= F(cutoff) / 10 ** 20, (n, added)
        m = n + len(past)
        while (tail := tail_after(env.at(m))) is None or tail > cutoff / 1000:
            assert m < n + 1000, (n, "the envelope certifies no tail")
            m += 1
            past.append(F(gen.term(m)))
        assert abs(sum(past) - geometric) + F(tail) <= F(cutoff), (n, m)


def fraction_entries(cert, n: int):
    """The signed entries of `cert` at n as Fractions: (w B^n, B) for
    Lambda_k(n), the sum of w B^n (1 - B^k), and (w2 B^(2n), B^2) for
    Lambda2_k(n)."""
    one = [(F(w) * F(b) ** n, F(b)) for w, b, _ in cert.pieces]
    two = [(F(w2) * F(b) ** (2 * n), F(b) ** 2) for _, b, w2 in cert.pieces]
    return one, two


def tail_parts(cert, n: int, p):
    """The sums over k >= 1 of P(n + k) s^k times 1, Lambda_k(n),
    Lambda2_k(n) and Lambda_k(n)^2/2, in Fractions, P(n) = p: each a
    closed form in g(z), the sum of P(n + k) z^k."""
    c1, s = cert.linear[1], F(cert.s)

    def g(z):
        return p * z / (1 - z) + c1 * z / (1 - z) ** 2

    one, two = fraction_entries(cert, n)
    return (g(s), *(sum(x * (g(s) - g(s * b)) for x, b in entries)
                    for entries in (one, two)),
            sum(x * y * (g(s) - g(s * b) - g(s * c) + g(s * b * c))
                for x, b in one for y, c in one) / 2)


#: how the sums of the seed-1, 3-sample numeric suite end, per record:
#: the number of sums stopped by the limit ratio, by the envelope and at
#: a support, over the clean builds of its samples. A declaration that
#: loses its limit-ratio certificate moves sums from the first count to
#: the second, where they cost time but no verdict.
NUMERIC_STOPS = {
    "qgauss": (3, 0, 0), "qbinom": (3, 0, 0), "bailey-transform": (3, 0, 3),
    "thm-wp-transform": (3, 0, 3), "cor-central": (3, 0, 3),
    "alt-alpha": (6, 0, 0), "alt-sum": (3, 0, 0), "ones-alpha": (6, 0, 0),
    "ones-sum": (3, 0, 0), "u-power": (3, 0, 0), "phi54": (6, 0, 0),
    "phi32": (3, 0, 0), "poly2": (3, 3, 0), "poly2q": (6, 0, 0),
    "phi65": (6, 0, 0), "ppte-m": (6, 0, 0), "cpte3": (4, 2, 0),
    "cpte5": (0, 3, 0), "bibasic-ab": (0, 6, 0), "bibasic-ab2": (0, 6, 0),
    "rrs3eq1": (0, 6, 0), "rrs3": (0, 3, 0), "rrs3n": (0, 3, 0),
    "rrs6": (0, 3, 0), "rrs6-2": (0, 3, 0), "rrs6-3": (0, 3, 0),
    "rrs6-4": (0, 3, 0), "rrs6-5": (0, 3, 0), "gg1a": (0, 3, 0),
    "gg1b": (0, 3, 0), "rogers1": (0, 3, 0), "rogers2": (0, 3, 0),
    "qbailey": (0, 3, 0), "gs1": (0, 3, 0), "gs2": (0, 3, 0),
    "slater69": (0, 3, 0), "slater121": (0, 3, 0), "s69": (0, 3, 0),
    "s121": (0, 3, 0), "r1": (0, 6, 0), "r2a": (0, 6, 0), "r2b": (0, 6, 0),
    "ft1": (0, 6, 0), "ft2": (0, 6, 0), "ft3": (0, 6, 0), "bb-z0": (0, 6, 0),
    "bb-yinf": (0, 6, 0),
}
#: the records whose left sum is `wp_transform`'s over the seed alpha:
#: beta is its own declaration, so that sum stops on the limit ratio
SEED_BETA = ("bailey-transform", "thm-wp-transform")


def stop_kind(gen, cutoff, n, added) -> str:
    """How a sum that `certified_stops` recorded ended."""
    top = gen.envelope.support
    if top is not None and n == top:
        return "support"
    return "limit ratio" if added else "envelope"


def test_numeric_stops_cover_catalog():
    assert list(NUMERIC_STOPS) == [r.id for r in catalog()]


@pytest.mark.parametrize("record", catalog(), ids=lambda r: r.id)
def test_numeric_sums_end_as_pinned(record, monkeypatch):
    stops = certified_stops(monkeypatch)
    lefts = []
    for a in sample_params(record.id, 1, 3, "numeric"):
        first = len(stops)
        record.build(NumericCtx(a.q_unit, record.exponent_denominator),
                     a.values)
        lefts.append(stop_kind(*stops[first]))
    kinds = [stop_kind(*stop) for stop in stops]
    assert tuple(map(kinds.count, ("limit ratio", "envelope", "support"))) \
        == NUMERIC_STOPS[record.id], kinds
    if record.id in SEED_BETA:
        assert set(lefts) == {"limit ratio"}, lefts


def test_prefactor_is_inside_the_budget():
    # a sum times a large prefactor, passed as `times`: the product, not
    # only the sum, is within tol/100 of its value (the geometric series'
    # envelope is its own tail, so a prefactor applied after the sum
    # would multiply an error of about tol/100)
    ctx = NumericCtx(F(1, 7))
    pref = F(10 ** 8, 3)
    got = ctx.summation(Summand(ctx, ctx.num(F(9, 10))), times=pref)
    assert abs(F(got) - pref * 10) <= F(ctx.tol) / 100


def test_cor_transform_verdict_within_tol_under_a_large_prefactor():
    # cor_pref = (1 - xy)(1 - xz)/((1 - x)(1 - xyz)) is about 1.7e3 here;
    # each side's sum is certified to tol/100 after it, so the two sides
    # of the transform agree within tol/50
    ctx = NumericCtx(F(1, 7))
    x, y, z = F(1, 2), F(3, 2), F(19998, 15000)
    u = ctx.num(F(1, 2))
    alpha = Factor(lambda n: ctx.pow_int(u, n), 0, bound=Summand(ctx, u))
    assert abs(F(cor_pref(ctx, x, y, z))) > 1000
    lhs, rhs = cor_transform(ctx, x, y, z, running_sums(ctx, alpha), alpha)
    assert abs(F(lhs) - F(rhs)) <= F(ctx.tol) / 50


# the envelope of a random declaration against plain Fraction terms

RAT = st.sampled_from([F(1, 2), F(-2, 3), F(3, 4), F(-1, 3), F(5, 2),
                       F(-2), F(3, 7), F(-5, 4)])
POCH = st.tuples(RAT, st.integers(0, 2), st.integers(1, 2),
                 st.integers(0, 2))            # (argument, base exp, k, l)
HEAD = st.tuples(RAT, st.sampled_from([1, -1]), st.integers(-2, 2),
                 st.booleans())                # (w, sign, exp of r, inverse)


def fraction_term(q, s, power, ups, downs, heads, m):
    a, b, c = power
    out = (s ** m if s is not None else 1) * q ** (a * m * m + b * m + c)
    for pairs, upper in ((ups, True), (downs, False)):
        for u, e, k, l in pairs:
            for j in range(k * m + l):
                f = 1 - u * q ** (e * j)
                out = out * f if upper else out / f
    for w, sign, e, inverse in heads:
        f = 1 - w * (sign * q ** e) ** m
        out = out / f if inverse else out * f
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(QPOOL), st.none() | RAT,
       st.sampled_from([F(0), F(1, 2), F(1), F(3, 2)]), st.integers(-3, 3),
       st.integers(-2, 2), st.lists(POCH, max_size=2),
       st.lists(POCH, max_size=2), st.lists(HEAD, max_size=2),
       st.integers(0, 2))
def test_envelope_bounds_fraction_terms(q, s, a, b, c, ups, downs, heads,
                                        nested):
    # a power with A >= 0 (A n^2 - A n is integral), Pochhammers of length
    # k n + l on bases q^e, heads 1 - w r^n with r = +-q^e (|r| > 1 for
    # e < 0), the last `nested` of them inside a nested Summand
    power = (a, b - a, c)
    try:
        terms = [abs(fraction_term(q, s, power, ups, downs, heads, m))
                 for m in range(8 + 31)]
    except ZeroDivisionError:
        assume(False)
    ctx = NumericCtx(q)

    def declared(fields):
        return [(u, q ** e, k, l) for u, e, k, l in fields]

    def head(w, sign, e, inverse):
        return (w, sign * q ** e, inverse)

    inner = [head(*h) for h in heads[len(heads) - nested:]]
    outer = [head(*h) for h in heads[:len(heads) - nested]]
    term = Summand(ctx, s, power, ups=declared(ups), downs=declared(downs),
                   heads=outer,
                   factors=[Summand(ctx, heads=inner)] if inner else [])
    env = term.envelope()
    for n in range(9):
        bound = env.at(n)
        if bound is None:
            continue
        m, g = (F(x) for x in bound)
        for i, t in enumerate(terms[n:n + 31]):
            assert t <= m * g ** i, (n, i, t, m, g)


# the limit-ratio certificate of a random declaration against plain
# Fraction terms

LIM = st.sampled_from([F(1, 2), F(-2, 3), F(3, 4), F(-1, 3), F(3, 7),
                       F(-5, 4)])              # s, mostly with |s| < 1
RPOCH = st.tuples(RAT, st.sampled_from([1, 2, 1, 2, 0]), st.integers(0, 2),
                  st.integers(-2, 2))          # (argument, base exp, k, l)
RHEAD = st.tuples(RAT, st.sampled_from([1, -1]),
                  st.sampled_from([1, 2, 1, 2, 0]),
                  st.booleans())               # (w, sign, exp of r, inverse)
FACTOR = st.one_of(
    st.tuples(st.just("constant"), RAT),
    st.tuples(st.just("sign"), st.booleans()),
    st.tuples(st.just("vwp"), RAT, st.integers(1, 2),
              st.sampled_from([None, F(1, 2), F(-1, 3)])),
    st.tuples(st.just("sums"), st.lists(st.sampled_from(
        [F(0), F(1), F(-1, 2), F(3)]), min_size=1, max_size=4)),
    st.tuples(st.just("linear"), st.sampled_from([1, F(-1, 2), F(5, 3)]),
              st.sampled_from([0, 1, F(1, 3), -2])))

#: the reference terms: 90-digit decimals, each factor stepped from its
#: last value, so that 400 of them stay cheap
HIGH = Context(prec=90)
TERMS = 400
#: the terms after n whose ratios `check_ratio` and `tail_faults` read
WINDOW = 30
#: a cutoff no error reaches: the stop then gives its tail wherever the
#: certificate is known
ANY = Decimal("1e30")
#: what the rounding of the reference terms, of the certificate's
#: 74-digit entries and of s may add to a log ratio
LOG_SLACK = Decimal("1e-68")


def declared_factor(ctx, q, kind, *args):
    """The opaque factor of the kind drawn, and m -> its value at m as a
    Fraction."""
    if kind == "constant":
        c, = args
        return constant(ctx.num(c)), lambda m: c
    if kind == "sign":              # 1 or (-1)^n, a nested declared s
        alternating, = args
        return Summand(ctx, ctx.num(-1) if alternating else None), \
            lambda m: (-1) ** m if alternating else 1
    if kind == "linear":            # c0 + c1 n, a nested declaration
        c0, c1 = args
        return Summand(ctx, linear=(c0, c1)), lambda m: c0 + c1 * m
    if kind == "vwp":
        k, step, base = args
        p = q if base is None else base
        return vwp_weight(ctx, k, step, base), \
            lambda m: (1 - k * p ** (2 * step * m)) / (1 - k)
    vals, = args
    return running_sums(ctx, AlphaSequence.from_values(vals).factor(ctx)), \
        lambda m: sum(vals[:m + 1])


def reference_terms(q, s, b, ups, downs, heads, factors, support):
    """t(0), .., t(TERMS - 1) of the term s^n q^(b n), times Pochhammers
    (u; q^e)_(k n + l), heads 1 - w r^n (r = +-q^e) and the values m ->
    f(m) of `factors`, zero past `support`, as 90-digit decimals (HIGH),
    each power and each Pochhammer stepped from its last value; None
    where some length k n + l is below 0."""
    mul, sub, div = HIGH.multiply, HIGH.subtract, HIGH.divide

    def num(x: F) -> Decimal:
        return div(x.numerator, x.denominator)

    step = num((1 if s is None else s) * q ** b)
    # each Pochhammer: [its length so far, its value, q^(e j)], and its
    # argument, base, k, l and whether it is upper
    pochs = [([0, Decimal(1), Decimal(1)], num(u), num(q ** e), k, l, upper)
             for pairs, upper in ((ups, True), (downs, False))
             for u, e, k, l in pairs]
    heads = [(num(w), num(sign * q ** e), inverse)
             for w, sign, e, inverse in heads]
    powers = [Decimal(1)] * len(heads)      # r^m of each head
    out, lead = [], Decimal(1)              # lead = s^m q^(b m)
    for m in range(TERMS):
        t = lead if support is None or m <= support else Decimal(0)
        for f in factors:
            t = mul(t, num(F(f(m))))
        for state, u, base, k, l, upper in pochs:
            while state[0] < k * m + l:
                f = sub(1, mul(u, state[2]))
                state[1] = mul(state[1], f) if upper else div(state[1], f)
                state[0] += 1
                state[2] = mul(state[2], base)
            t = None if t is None or k * m + l < 0 else mul(t, state[1])
        for i, (w, r, inverse) in enumerate(heads):
            f = sub(1, mul(w, powers[i]))
            if t is not None:
                t = div(t, f) if inverse else mul(t, f)
            powers[i] = mul(powers[i], r)
        out.append(t)
        lead = mul(lead, step)
    return out


def linear_parts(cert, n: int, k: int):
    """Lambda_k(n) and Lambda2_k(n) of `cert` (see `qfunc.Ratio`), in
    HIGH."""
    mul, power = HIGH.multiply, HIGH.power

    def part(entries):
        return reduce(HIGH.add, (
            mul(mul(w, power(b, n)), HIGH.subtract(1, power(b, k)))
            for w, b in entries), Decimal(0))

    return (part((w, b) for w, b, _ in cert.pieces),
            part((w2, mul(b, b)) for _, b, w2 in cert.pieces))


def ratio_logs(cert, terms):
    """m -> log(u(m + 1)/(s u(m))), u = t/P over the declared linear
    factor P, in HIGH and kept; it asserts the ratio positive, and gives
    None where u(m) is zero, after asserting u(m + 1) zero too."""
    c0, c1 = (F(c) for c in cert.linear)
    logs = {}

    def u(m: int) -> Decimal:
        p = c0 + c1 * m
        return HIGH.divide(HIGH.multiply(terms[m], p.denominator),
                           p.numerator)

    def log(m: int) -> Optional[Decimal]:
        if m not in logs:
            now, later = u(m), u(m + 1)
            if not now:
                assert not later, (m, later)
                logs[m] = None
            else:
                rho = HIGH.divide(later, HIGH.multiply(cert.s, now))
                assert rho > 0, (m, rho)
                logs[m] = HIGH.ln(rho)
        return logs[m]

    return log


def remainder_gaps(cert, log, n: int):
    """The largest |L - Lambda_k(n)| and the largest |L - Lambda_k(n) -
    Lambda2_k(n)|, L = log(u(n + k)/(s^k u(n))), over k = 1 .. WINDOW,
    from the logs of `ratio_logs`; None where u(n) is zero."""
    if log(n) is None:
        return None
    gaps, gaps3, total = [], [], Decimal(0)
    for k in range(1, WINDOW + 1):
        total = HIGH.add(total, log(n + k - 1))
        first, second = linear_parts(cert, n, k)
        gap = HIGH.subtract(total, first)
        gaps.append(gap.copy_abs())
        gaps3.append(HIGH.subtract(gap, second).copy_abs())
    return max(gaps), max(gaps3)


def check_ratio(cert, terms, shift):
    """`cert` against the reference terms (`reference_terms`), as a sum
    from `shift` reads it, at the terms' own n: at each n from `shift`
    (or the certificate's start, if later) on where D(n) is known, a zero
    u(n) stays zero, the ratios u(m + 1)/(s u(m)) for m >= n are
    positive, the sum of their |log| stays within D(n), and the log of
    u(n + k)/(s^k u(n)) lies within E(n) of its first-order part
    Lambda_k(n) and within E3(n) of Lambda_k(n) + Lambda2_k(n)."""
    first = max(cert.start, shift)
    log = ratio_logs(cert, terms)
    for n in range(first, first + 6):
        bounds = cert.bounds(n)
        gaps = bounds and remainder_gaps(cert, log, n)
        if gaps is None:
            continue
        d, e, e3 = bounds
        drift = reduce(HIGH.add, (log(m).copy_abs()
                                  for m in range(n, n + WINDOW)))
        assert drift <= HIGH.add(d, LOG_SLACK), (n, drift, d)
        assert gaps[0] <= HIGH.add(e, LOG_SLACK), (n, gaps, e)
        assert gaps[1] <= HIGH.add(e3, LOG_SLACK), (n, gaps, e3)


def without_lambda(cert, stop, n, t):
    """A mutant of the stop: the first-order tail, u(n) (P(n) s/(1 - s)
    + c1 s/(1 - s)^2), where the stop gives one."""
    if stop(n, t) is None:
        return None
    c0, c1 = cert.linear
    p, s = c0 + c1 * n, F(cert.s)
    return F(t) / p * (p * s / (1 - s) + c1 * s / (1 - s) ** 2)


def tail_faults(cert, terms, ns, stop=None):
    """The n in `ns` at which the third-order tail that the geometric
    stop gives (under a cutoff no error reaches; `stop` wraps it, if
    given) lies further from the Fraction sum of the reference terms
    after n (`reference_terms`, and a bound on the terms past them) than
    `Ratio.error`, tagged "tail"; and those at which that error is not
    an upper bound of |u(n)| |sum over k >= 1 of P(n + k) |s|^k| times
    D(n)^3/6 + D(n) g + g3, g and g3 the gaps of `remainder_gaps`, or
    `_TAIL_FLOOR` if that is larger, which it must be, since it covers
    D^3 e^D/6 + D E(n) + E3(n), E(n) and E3(n) cover those gaps, and the
    floor covers the rounding of the terms, tagged "error"."""
    dc = Context(prec=74)
    geometric = _geometric_stop(cert, ANY, dc)
    if geometric is None:
        return []
    if stop is not None:
        geometric = partial(stop, cert, geometric)
    c0, c1 = cert.linear
    r = abs(F(cert.s))
    exact = [F(t or 0) for t in terms]     # None below the start
    after = [F(0)] * TERMS              # after[n]: the terms n + 1 .. 399
    for m in range(TERMS - 2, -1, -1):
        after[m] = after[m + 1] + exact[m + 1]
    # the terms past the list fall at least as fast as 1.01 |s|^k, and
    # each reference term is within a relative 10^-85 of its value
    rest = 4 * abs(exact[-1]) / (1 - r) + sum(map(abs, exact)) / 10 ** 80
    log = ratio_logs(cert, terms)
    faults = []
    for n in ns:
        t = dc.plus(terms[n])
        tail = geometric(n, t)
        if tail is None:
            continue
        err = F(cert.error(t, n))
        if abs(F(tail) - after[n]) > err + rest:
            faults.append((n, "tail", tail, after[n]))
        gaps = remainder_gaps(cert, log, n)
        if gaps is None:
            continue
        p = c0 + c1 * n
        d = F(cert.bounds(n)[0])
        gap, gap3 = (F(x) for x in gaps)
        reach = abs(p * r / (1 - r) + c1 * r / (1 - r) ** 2)
        if err < abs(F(t) / p) * reach * max(d ** 3 / 6 + d * gap + gap3,
                                             F(_TAIL_FLOOR)):
            faults.append((n, "error", err))
    return faults


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(QPOOL), st.none() | LIM,
       st.sampled_from([0, 1, 2, -1]), st.lists(RPOCH, max_size=2),
       st.lists(RPOCH, max_size=2), st.lists(RHEAD, max_size=2),
       st.lists(FACTOR, max_size=2), st.none() | st.integers(0, 6),
       st.integers(0, 3))
# one entry alone, where nothing else covers it if it goes missing
@example(F(1, 7), F(1, 2), 0, [(F(1, 2), 1, 1, 0)], [], [], [], None, 0)
@example(F(1, 7), F(1, 2), 0, [], [(F(-2, 3), 1, 2, -1)], [], [], None, 1)
@example(F(-1, 6), F(1, 2), 0, [], [], [(F(1, 2), -1, 1, True)], [], None,
         0)
@example(F(1, 7), F(1, 2), 0, [], [], [], [("vwp", F(1, 2), 1, None)],
         None, 0)
@example(F(1, 7), F(1, 2), 0, [], [], [], [("sign", True)], 2, 0)
@example(F(1, 7), F(-1, 2), 0, [], [], [], [], None, 0)   # its s folded
# several Pochhammers on one base, one of length n - 1, so that one
# signed and one magnitude entry hold them all
@example(F(1, 7), F(1, 2), 0, [(F(-2), 1, 1, 0), (F(1, 3), 1, 1, 1)],
         [(F(3, 4), 1, 1, -1)], [], [], None, 0)
# on B = q^2: a length 2 n + 1 on q, a Pochhammer on q^2 and a head (the
# last two share an entry) and the very-well-poised head (which shares
# the first's); lengths 2 n - 2 and n - 2 at a negative q
@example(F(1, 7), F(-2, 3), 0, [(F(1, 2), 1, 2, 1)], [(F(3, 7), 2, 1, 0)],
         [(F(-2, 3), 1, 2, False)], [("vwp", F(-1, 3), 1, None)], None, 1)
@example(F(-1, 6), F(3, 4), 0, [(F(-5, 4), 1, 2, -2)],
         [(F(1, 2), 1, 1, -2), (F(-2, 3), 1, 1, 0)], [], [], None, 0)
def test_limit_ratio_bounds_fraction_terms(q, s, b, ups, downs, heads,
                                           factors, support, shift):
    # s^n q^(b n), Pochhammers of length k n + l on bases q^e (base 1 for
    # e = 0, which declares no ratio), heads 1 - w r^n with r = +-q^e,
    # factors that declare a ratio (opaque, or a nested declaration that
    # folds in), and a support (which declares none): the certificate of
    # the term, and of each factor, read from `shift` on as a sum from
    # there reads it, holds for the Fraction terms (`check_ratio`); and
    # where the term's s is inside the unit disc, its third-order tail
    # lies within `Ratio.error` of the sum of 400 Fraction terms, and
    # that error bounds what it must (`tail_faults`)
    assume(all(k or l >= 0 for _, _, k, l in ups + downs))
    # two linear factors do not fold into one summand
    assume(sum(f[0] == "linear" for f in factors) <= 1)
    ctx = NumericCtx(q)
    made = [declared_factor(ctx, q, *f) for f in factors]
    term = Summand(ctx, s, (0, b) if b else (),
                   ups=[(u, q ** e, k, l) for u, e, k, l in ups],
                   downs=[(u, q ** e, k, l) for u, e, k, l in downs],
                   heads=[(w, sign * q ** e, inverse)
                          for w, sign, e, inverse in heads],
                   factors=[f for f, _ in made], support=support)
    try:
        terms = reference_terms(q, s, b, ups, downs, heads,
                                [at for _, at in made], support)
        for f, at in made:
            check_ratio(f.envelope().ratio(), [
                HIGH.divide(F(at(m)).numerator, F(at(m)).denominator)
                for m in range(2 * WINDOW)], shift)
        env = term.envelope()
        cert = env.ratio and env.ratio()
        if cert is not None:
            check_ratio(cert, terms, shift)
            first = max(cert.start, shift)
            assert tail_faults(cert, terms,
                               range(first, first + 24, 3)) == []
    except ZeroDivisionError:       # a linear factor P(m) = 0 at some m
        assume(False)


# the geometric tail of a linear factor against plain Fraction terms

#: a looser cutoff than a sum's, so that the stop is reached early
LINEAR_CUT = Decimal("1e-12")
LINEAR = st.tuples(st.sampled_from([1, 0, F(-1, 2), F(5, 3), 2]),
                   st.sampled_from([1, F(1, 3), -1, 0, F(-3, 2)]))


def linear_tail_faults(q, s, linear, ups, heads, stop=None):
    """`tail_faults` at n = 8 .. 40 of the term s^n prod (u; q)_n prod (1
    - w q^(e n)) (c0 + c1 n), with `stop`; and the n at which the
    geometric stop certifies its tail within LINEAR_CUT."""
    ctx = NumericCtx(q)
    term = Summand(ctx, s, ups=[(u, q) for u in ups],
                   heads=[(w, q ** e) for w, e in heads], linear=linear)
    cert = term.envelope().ratio()
    c0, c1 = linear
    terms = reference_terms(
        q, s, 0, [(u, 1, 1, 0) for u in ups], [],
        [(w, 1, e, False) for w, e in heads], [lambda m: c0 + c1 * m], None)
    geometric = _geometric_stop(cert, LINEAR_CUT, ctx.dc)
    stops = [n for n in range(8, 41) if geometric(n, term(n)) is not None]
    return tail_faults(cert, terms, range(8, 41), stop), stops


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(QPOOL), LIM.filter(lambda s: abs(s) < 1), LINEAR,
       st.lists(RAT, max_size=2),
       st.lists(st.tuples(st.sampled_from([F(1, 2), F(-2, 3)]),
                          st.integers(1, 2)), max_size=1))
@example(F(1, 7), F(3, 4), (1, 1), [], [])     # the n + 1 of ones-sum
def test_linear_tail_bounds_fraction_terms(q, s, linear, ups, heads):
    # a term s^n (Pochhammers, heads) (c0 + c1 n): at each n where the
    # geometric stop gives its tail, the tail lies within `Ratio.error`
    # of the Fraction terms after n, and that error bounds what it must
    # (`tail_faults`); and the linear factor's envelope bounds its values
    faults, stops = linear_tail_faults(q, s, linear, ups, heads)
    assert faults == []
    c0, c1 = linear
    env = Summand(NumericCtx(q), linear=linear).envelope()
    for n in range(6):
        m, g = (F(x) for x in env.at(n))
        assert all(abs(c0 + c1 * (n + i)) <= m * g ** i for i in range(30))


def without_slope(cert, stop, n, t):
    """A mutant of the stop: its tail less the part c1 s/(1 - s)^2 u(n)."""
    tail = stop(n, t)
    if tail is None:
        return None
    c0, c1 = cert.linear
    s = F(cert.s)
    return F(tail) - F(t) / (c0 + c1 * n) * c1 * s / (1 - s) ** 2


#: (q, s, linear, ups, heads) draws of `linear_tail_faults`
LINEAR_DRAWS = [(F(1, 7), F(3, 4), (1, 1), [], []),
                (F(-1, 6), F(-2, 3), (F(5, 3), -1), [F(1, 2)], []),
                (F(1, 9), F(1, 2), (0, F(1, 3)), [], [(F(1, 2), 1)])]


def test_linear_tail_check_catches_a_dropped_slope(monkeypatch):
    # mutants: the tail without its c1 s/(1 - s)^2 part, and the error
    # bound without its c1 part
    for d in LINEAR_DRAWS:
        faults, stops = linear_tail_faults(*d)
        assert stops and faults == []
        faults, _ = linear_tail_faults(*d, stop=without_slope)
        assert faults
    error = Ratio.error
    monkeypatch.setattr(Ratio, "error", lambda cert, t, n: error(
        cert._replace(linear=(1, 0)), t, n))
    for d in LINEAR_DRAWS:
        faults, stops = linear_tail_faults(*d)
        assert stops and faults


#: (q, s, ups, downs, heads, factors) draws of a term s^n times
#: Pochhammers (u, e, k, l) on q^e, heads (w, sign, e, inverse) and
#: factors: a negative q, lengths 2 n - 1 and 2 n + 1, an inverse head,
#: a nested very-well-poised factor, three Pochhammers on one base whose
#: |u||q|^l differ (the fourth), and entries shared on B = q^2
LIMIT_DRAWS = [
    (F(-1, 6), F(1, 2), [(F(1, 2), 1, 2, -1)], [(F(-2, 3), 1, 1, 0)], [],
     []),
    (F(1, 7), F(-2, 3), [], [(F(3, 4), 2, 2, 1)],
     [(F(5, 2), -1, 1, True)], []),
    (F(-1, 8), F(3, 4), [(F(-5, 4), 1, 1, 0)], [], [],
     [("vwp", F(1, 2), 1, None)]),
    (F(1, 7), F(1, 2), [(F(-2), 1, 1, 0), (F(1, 3), 1, 1, 1)],
     [(F(3, 4), 1, 1, -1)], [], []),
    (F(1, 7), F(-2, 3), [(F(1, 2), 1, 2, 1)], [(F(3, 7), 2, 1, 0)],
     [(F(-2, 3), 1, 2, False)], [("vwp", F(-1, 3), 1, None)]),
]


def limit_tail_faults(q, s, ups, downs, heads, factors, stop=None):
    """`tail_faults` at n = 2, 5, .., 23 of a `LIMIT_DRAWS` draw."""
    ctx = NumericCtx(q)
    made = [declared_factor(ctx, q, *f) for f in factors]
    term = Summand(ctx, s, ups=[(u, q ** e, k, l) for u, e, k, l in ups],
                   downs=[(u, q ** e, k, l) for u, e, k, l in downs],
                   heads=[(w, sign * q ** e, inverse)
                          for w, sign, e, inverse in heads],
                   factors=[f for f, _ in made])
    terms = reference_terms(q, s, 0, ups, downs, heads,
                            [at for _, at in made], None)
    return tail_faults(term.envelope().ratio(), terms, range(2, 24, 3),
                       stop)


def smallest_size(entries, beta, cx, x):
    """A mutant of `bailey._join_size`: X0 the smallest |x| on beta, so
    that C = (the sum of c|x|)/X0 keeps D's first order but X = X0 beta^n
    no longer bounds every factor's |Y|."""
    for entry in entries:
        if entry[0] == beta:
            entry[1] = BOUND_UP.add(entry[1], cx)
            entry[2] = min(entry[2], x)
            return
    entries.append([beta, cx, x])


def test_tail_checks_catch_a_first_order_tail_and_an_error_without_e(
        monkeypatch):
    # mutants: the tail without its Lambda corrections (the first-order
    # tail), the error without E(n) and E3(n), a merged
    # magnitude entry built from the smallest |x| on its base, and a
    # certificate that drops one base's w (the last signed entry of each
    # certificate, a nested factor's included)
    with monkeypatch.context() as patch:
        patch.setattr(bailey, "_join_size", smallest_size)
        assert "error" in {f[1] for f in limit_tail_faults(*LIMIT_DRAWS[3])}
    with monkeypatch.context() as patch:
        ratio = Summand._ratio

        def dropped(term, *args):
            cert = ratio(term, *args)
            return cert and cert._replace(pieces=cert.pieces[:-1])

        patch.setattr(Summand, "_ratio", dropped)
        for d in LIMIT_DRAWS:
            assert "tail" in {f[1] for f in limit_tail_faults(*d)}
    for d in LIMIT_DRAWS:
        assert limit_tail_faults(*d) == []
        assert "tail" in {f[1] for f in limit_tail_faults(
            *d, stop=without_lambda)}
    for d in LINEAR_DRAWS[1:]:          # the first has no entry: Lambda = 0
        faults, _ = linear_tail_faults(*d, stop=without_lambda)
        assert "tail" in {f[1] for f in faults}
    bounds = Ratio.bounds
    monkeypatch.setattr(Ratio, "bounds", lambda cert, n: bounds(
        cert, n) and (bounds(cert, n)[0], Decimal(0), Decimal(0)))
    for d in LIMIT_DRAWS:
        assert "error" in {f[1] for f in limit_tail_faults(*d)}
    for d in LINEAR_DRAWS[1:]:
        faults, _ = linear_tail_faults(*d)
        assert "error" in {f[1] for f in faults}


def without_cross(cert, stop, n, t):
    """A mutant of the stop: its tail less the Lambda_k^2/2 part, u(n)
    times the sum over k of P(n + k) s^k Lambda_k(n)^2/2."""
    tail = stop(n, t)
    if tail is None:
        return None
    c0, c1 = cert.linear
    p = c0 + c1 * n
    return F(tail) - F(t) / p * tail_parts(cert, n, p)[3]


def test_tail_checks_catch_a_second_order_tail(monkeypatch):
    # mutants of the third-order tail: without its Lambda_k^2/2 part,
    # without the B^2 entries (Lambda2 = 0), and with w2 negated on the
    # signed entry of the largest |B|, whose B^(2n) the error of a
    # smaller base's entry cannot hide
    for d in LIMIT_DRAWS:
        assert "tail" in {f[1] for f in limit_tail_faults(
            *d, stop=without_cross)}
    for d in LINEAR_DRAWS[1:]:
        faults, _ = linear_tail_faults(*d, stop=without_cross)
        assert "tail" in {f[1] for f in faults}
    ratio = Summand._ratio

    def flipped(pieces):
        top = max(pieces, key=lambda piece: abs(piece[1]))
        return [(w, b, -w2) if (w, b, w2) == top else (w, b, w2)
                for w, b, w2 in pieces]

    for mutant in (lambda pieces: [(w, b, 0) for w, b, _ in pieces],
                   flipped):
        with monkeypatch.context() as patch:
            def changed(term, *args):
                cert = ratio(term, *args)
                return cert and cert._replace(pieces=tuple(
                    mutant(cert.pieces)) if cert.pieces else ())

            patch.setattr(Summand, "_ratio", changed)
            for d in LIMIT_DRAWS:
                assert "tail" in {f[1] for f in limit_tail_faults(*d)}


# beta of `wp_transform`: the seed alpha's beta is its own declaration

def fraction_beta(q, a, k, vals, n: int) -> F:
    """beta_n of the defining relation in plain Fractions: the sum over j
    <= n of (k/a)_(n-j) (k)_(n+j) / ((q)_(n-j) (aq)_(n+j)) alpha_j, alpha
    the finite sequence `vals`."""
    def poch(x, m):
        return reduce(lambda p, i: p * (1 - x * q ** i), range(m), F(1))

    return sum(poch(k / a, n - j) * poch(k, n + j) * vals[j]
               / (poch(q, n - j) * poch(a * q, n + j))
               for j in range(min(n, len(vals) - 1) + 1))


def wp_sides(monkeypatch, record_id, vals):
    """Both sides of `wp_transform` at each seed-1 numeric sample of the
    record, with the finite alpha `vals`, each with the left summand and
    beta, its last opaque factor (see `wp_transform`), and the sample."""
    terms = []
    summation = NumericCtx.summation

    def traced(ctx, term, *args, **kw):
        terms.append(term)
        return summation(ctx, term, *args, **kw)

    monkeypatch.setattr(NumericCtx, "summation", traced)
    out = []
    for a in sample_params(record_id, 1, 3, "numeric"):
        p = a.values
        ctx = NumericCtx(a.q_unit)
        k = p.get("k", F(0))
        r1, r2 = (p["r1"], p["r2"]) if "r1" in p else (p["y"], p["z"])
        del terms[:]
        alpha = AlphaSequence.from_values(vals).factor(ctx)
        sides = bailey.wp_transform(ctx, ctx.num(p["a"]), ctx.num(k),
                                    ctx.num(r1), ctx.num(r2), alpha)
        out.append((sides, terms[0], terms[0].factors[-1], p, k, ctx))
    return out


@pytest.mark.parametrize("record_id", ["thm-wp-transform",
                                       "bailey-transform"])
def test_seed_beta_keeps_its_limit_ratio(monkeypatch, record_id):
    # at alpha's support 0, beta_n is one Pochhammer quotient, which
    # declares it: its certificate holds for the Fraction values of the
    # defining relation, and the left summand keeps a certificate
    for _, lhs, beta, p, k, ctx in wp_sides(monkeypatch, record_id, [F(1)]):
        cert = beta.envelope().ratio()
        assert cert is not None and lhs.envelope().ratio() is not None
        values = [fraction_beta(p["q"], p["a"], k, [F(1)], n)
                  for n in range(3 * WINDOW)]
        assert all(abs(F(beta(n)) - v) <= abs(v) / 10 ** 60
                   for n, v in enumerate(values[:4]))
        check_ratio(cert, [HIGH.divide(v.numerator, v.denominator)
                           for v in values], 0)


def test_beta_of_a_longer_alpha_has_no_limit_ratio(monkeypatch):
    # at alpha's support 1, beta_n is a sum of two declared terms: its
    # envelope has no ratio, the left sum stops on the envelope, and the
    # transform still holds
    vals = [F(1), F(-1, 2)]
    for (lhs, rhs), term, beta, p, k, ctx in wp_sides(
            monkeypatch, "thm-wp-transform", vals):
        assert beta.envelope().ratio is None
        assert term.envelope().ratio is None
        value = fraction_beta(p["q"], p["a"], k, vals, 3)
        assert abs(F(beta(3)) - value) <= abs(value) / 10 ** 60
        assert abs(F(lhs) - F(rhs)) <= F(ctx.tol)


def test_a_linear_factor_of_a_bound_gives_no_ratio():
    # the geometric tail carries the term's own linear factor only: a
    # factor bounded by a declaration with one leaves the term without a
    # certificate, so its sum stops on the envelope
    ctx = NumericCtx(F(1, 7))
    decl = Summand(ctx, linear=(1, 1))
    term = Summand(ctx, ctx.num(F(1, 2)), factors=[
        Factor(lambda n: ctx.num(n + 1), 0, bound=decl)])
    assert decl.envelope().ratio().linear == (1, 1)
    assert term.envelope().ratio() is None
    assert abs(F(ctx.summation(term)) - 4) <= F(ctx.tol) / 100


def test_summand_bound_keeps_its_ratio():
    # a Summand bound is the factor's own declaration, so the factor's
    # envelope keeps that declaration's limit ratio, and a sum over the
    # factor stops where a sum over the declaration does
    ctx = NumericCtx(F(1, 7))
    u = ctx.num(F(1, 2))
    decl = Summand(ctx, u, heads=[(u, ctx.q)])
    f = Factor(decl, 0, bound=decl)
    assert f.envelope().ratio is not None
    assert f.envelope().ratio() == decl.envelope().ratio()
    assert ctx.summation(Summand(ctx, factors=[f])) == ctx.summation(decl)


@pytest.mark.parametrize("s", ["1", "-1", "1.5"])
def test_geometric_stop_refuses_a_ratio_that_does_not_fall(s):
    # a factor's limit ratio may be +-1, and only enters the certificate
    # of the term it multiplies; the stop itself refuses |s| >= 1
    assert _geometric_stop(Ratio(Decimal(s)), Decimal("1e-60"),
                           Context(prec=74)) is None


def test_a_ratio_too_near_1_for_a_float_stops_on_its_envelope():
    # float(|s|) rounds to 1: the float screen cannot tell a stop, so the
    # geometric stop declines and the envelope decides, which certifies
    # no tail within the term budget
    s = Decimal("0.99999999999999999999")
    assert _geometric_stop(Ratio(s), Decimal("1e-32"),
                           Context(prec=74)) is None
    gen = NumericTermGenerator(
        lambda n: HIGH.power(s, n),
        Envelope(lambda n: (HIGH.power(s, n), s), s, ratio=lambda: Ratio(s)))
    with pytest.raises(TailNotDecreasing):
        sum_numeric(gen)


@pytest.mark.parametrize("k,step,base", [
    (F(-1, 2), 1, None), (F(3), 2, None), (F(2, 3), 1, F(-1, 4)),
    (F(-5, 3), 3, F(1, 2))])
def test_vwp_weight_bound(k, step, base):
    # for k p^(2 step n) < 0 the bound is reached at n itself
    ctx = NumericCtx(F(-1, 6))
    f = vwp_weight(ctx, k, step, base)
    env = f.envelope()
    for n in range(6):
        m, g = (F(x) for x in env.at(n))
        for i in range(12):
            assert abs(F(f(n + i))) <= m * g ** i, (n, i)


def test_running_sums_bound():
    # a finite alpha: beta is constant from the support on, and before it
    # alpha's own bound covers the terms still to come
    ctx = NumericCtx(F(1, 7))
    vals = [F(3), F(-7, 2), F(1, 3), F(5), F(-2)]
    alpha = Factor(lambda n: ctx.num(vals[n] if n < len(vals) else 0),
                   0, len(vals) - 1, constant(ctx.num(5)).bound)
    beta = running_sums(ctx, alpha)
    env = beta.envelope()
    for n in range(10):
        m, g = (F(x) for x in env.at(n))
        assert g == 1
        assert all(abs(F(beta(j))) <= m for j in range(n, 20)), n
    assert running_sums(ctx, alpha._replace(support=None)).envelope().at(
        0) is None                      # alpha's g = 1 certifies no tail
    assert running_sums(ctx, Factor(alpha.at, 0)).bound is None


def test_an_unbounded_factor_needs_a_support():
    # f_n = 2^n declares no bound: a sum over it stops only on a support,
    # its own, the term's or another factor's; without one it is a defect
    # of the declaration (UndeclaredBound), not a tail that fails to fall
    ctx = NumericCtx(F(1, 7))
    free = Factor(lambda n: ctx.num(2 ** n))
    ones = Factor(lambda n: ctx.one(), support=1)
    for term in (free._replace(support=2),
                 Summand(ctx, factors=[free], support=2)):
        assert ctx.summation(term) == 7
    assert ctx.summation(Summand(ctx, factors=[free, ones])) == 3
    assert ctx.summation(Summand(ctx, factors=[Summand(
        ctx, factors=[free])], support=1)) == 3
    for term in (free, Summand(ctx, F(1, 2), factors=[free]),
                 Summand(ctx, factors=[Summand(ctx, factors=[free])])):
        with pytest.raises(UndeclaredBound):
            ctx.summation(term)
    with pytest.raises(TailNotDecreasing):
        ctx.summation(Summand(ctx, F(2)))
