"""The exact working order: every OrderInsufficient names its shortfall,
and `exact_run` widens the headroom by exactly that much, no further than
the target, and never for an error without one."""

import dataclasses
from fractions import Fraction as F

import pytest

import qident.registry as reg
from qident.bailey import AlphaSequence, WPPair, wp_beta, wp_beta_sum
from qident.context import ExactCtx, exact_run
from qident.errors import OrderInsufficient, ValuationStall
from qident.qfunc import TermGenerator, sum_exact
from qident.registry import catalog, sample_params, verify_suite
from qident.series import LaurentSeries as LS, QMonomial


def short_of(call):
    with pytest.raises(OrderInsufficient) as info:
        call()
    return info.value.short


# ------------------------------------------------------------- raise sites

def test_truncate_reports_shortfall():
    s = LS.from_pairs({0: 1, 2: 3}, 5)
    assert short_of(lambda: s.truncate(8)) == 3


def test_compare_reports_shortfall_of_the_shorter_side():
    a = LS.from_pairs({0: 1}, 5)
    b = LS.from_pairs({0: 1}, 7)
    assert short_of(lambda: a.compare(b, 9)) == 4
    assert short_of(lambda: b.compare(a, 9)) == 4
    assert short_of(lambda: b.compare(LS.one(), 9)) == 2


def test_coeff_reports_shortfall():
    s = LS.from_pairs({-1: 2, 0: 1}, 5)
    assert short_of(lambda: s.coeff(8)) == 3


def test_invert_reports_shortfall():
    # valuation 3, so the inverse starts at q^-3; asked for q^-6 the
    # window is three short
    s = LS.from_pairs({3: 1, 4: 1}, 10)
    assert short_of(lambda: s.invert(-6)) == 3


def test_sum_exact_term_check_reports_shortfall():
    gen = TermGenerator(lambda n: LS.from_pairs({n + 1: 1}, 6))
    assert short_of(lambda: sum_exact(gen, 10)) == 4


# --------------------------------------------------------------- exact_run

def dipping(headrooms):
    """A build that needs headroom 3: q^-3 times a product known through
    the construction order, compared at the target."""

    def build(ctx):
        headrooms.append(ctx.order - ctx.target)
        q = QMonomial.of(1, 1)
        v = ctx.mul(ctx.qpow(-3), ctx.poch_inf(q, q))
        return ctx.finalize(v).truncate(ctx.target)

    return build


def test_exact_run_widens_by_the_shortfall():
    seen = []
    got = exact_run(10, dipping(seen))
    assert seen == [0, 3]
    assert got.order == 10 and got.min_deg == -3
    with pytest.raises(OrderInsufficient):
        dipping([])(ExactCtx(10, 1, 2))


def test_exact_run_counts_in_t_units():
    # at q = t^2, q^-3 is t^-6
    seen = []
    exact_run(10, dipping(seen), denom=2)
    assert seen == [0, 6]


def compared_record(rec, values, seen):
    def build(ctx):
        seen.append(ctx.order - ctx.target)
        lhs, rhs = rec.build(ctx, values)
        return ctx.finalize(lhs).compare(ctx.finalize(rhs), ctx.target)

    return build


def test_catalog_ends_at_the_least_headroom():
    """Every criterion-1 job at order 20 that needs headroom gets exactly
    the least that works: one less still raises."""
    widened = []
    for rec in catalog():
        for a in sample_params(rec.id, 1, 3, "exact"):
            seen = []
            build = compared_record(rec, a.values, seen)
            assert exact_run(20, build, rec.exponent_denominator) is None
            if seen[-1]:
                widened.append(rec.id)
                with pytest.raises(OrderInsufficient):
                    build(ExactCtx(20, rec.exponent_denominator,
                                   seen[-1] - 1))
    # the Laurent dips of the bi-basic and shifted records
    assert widened


def test_wrapper_matches_a_generous_fixed_headroom():
    # k/a = q^-2 / 2: the (k/a)_{n-j} towers dip below degree 0
    a, k = QMonomial.of(1, 3), QMonomial.of(F(1, 2), 1)
    alpha = AlphaSequence.from_values([F(1), F(-2), F(3)])
    for n in range(1, 5):
        ctx = ExactCtx(20, 1, 20)
        want = wp_beta_sum(ctx, a, k, lambda j: alpha.value(j, ctx.order),
                           n, alpha.support)
        got = wp_beta(WPPair(alpha, a, k), n, 20)
        assert got == ctx.finalize(want).truncate(20)
        assert got.min_deg < 0


def test_fixed_order_build_raises_without_looping():
    calls = []

    def build(ctx):
        calls.append(ctx.order - ctx.target)
        return LS.from_pairs({0: 1, 1: 1}, 5).truncate(ctx.target)

    with pytest.raises(OrderInsufficient):
        exact_run(10, build)
    # short 5 each time: headroom 0, 5, 10, then 15 would pass the cap
    assert calls == [0, 5, 10]


def test_error_without_shortfall_propagates_at_once():
    calls = []

    def build(ctx):
        calls.append(ctx.order)
        raise OrderInsufficient("no shortfall known")

    with pytest.raises(OrderInsufficient, match="no shortfall known"):
        exact_run(10, build)
    assert calls == [10]


# ------------------------------------------------- no numeric fallback

def test_order_insufficient_is_not_hidden_by_numeric_fallback(monkeypatch):
    rec = reg.lookup("qgauss")

    def build(ctx, params):
        if isinstance(ctx, ExactCtx):
            raise OrderInsufficient("a build defect")
        return rec.build(ctx, params)

    def other_skip(ctx, params):
        if isinstance(ctx, ExactCtx):
            raise ValuationStall("an inadmissible specialization")
        return rec.build(ctx, params)

    short = dataclasses.replace(rec, id="__short__", build=build)
    stall = dataclasses.replace(rec, id="__stall__", build=other_skip)
    monkeypatch.setattr(reg, "RECORDS", [short, stall])
    monkeypatch.setitem(reg._BY_ID, short.id, short)
    monkeypatch.setitem(reg._BY_ID, stall.id, stall)
    reports = {r.id: r for r in verify_suite("*", order=10, samples=1)}
    rep = reports["__short__"]
    assert (rep.strategy, rep.status) == ("exact", "skipped")
    assert rep.reason == "OrderInsufficient: a build defect"
    # an inadmissible specialization still falls back
    rep = reports["__stall__"]
    assert (rep.strategy, rep.status) == ("numeric", "equal")
    assert rep.reason.startswith("exact skipped (ValuationStall")
