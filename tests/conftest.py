"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from qident import registry
from qident.bailey import Factor, Summand
from qident.errors import BridgeConstraintError
from qident.records import IdentityRecord
from qident.series import QMonomial


def _wrong_floor_build(ctx, params):
    # f_n = q^-n declared to have valuation >= 0: term 1 of
    # q^(n^2) f_n is q^0, below its declared bound q^1
    wrong = Factor(lambda n: ctx.qpow(-n), floor=0)
    return ctx.summation(Summand(ctx, power=(1, 0, 0), factors=[wrong])), \
        ctx.one()


def _no_floor_build(ctx, params):
    # f_n = 1 up to its support 0, declared without a valuation floor:
    # both sides are 1, and a numeric sum stops at the support, but an
    # exact sum cannot certify where it stops
    f = Factor(lambda n: ctx.one(), support=0)
    return ctx.summation(Summand(ctx, factors=[f])), ctx.one()


def _no_bound_build(ctx, params):
    # f_n = 1 at n = 0 and 0 after it, declared with the floor 0 but
    # without a bound or a support, times x^n: at a constant x no exact
    # sum can stop (an inadmissible draw), and at a numeric x no numeric
    # sum can certify its tail (a defect of the declaration)
    f = Factor(lambda n: ctx.num(0) if n else ctx.one(), floor=0)
    return ctx.summation(Summand(ctx, params["x"], factors=[f])), ctx.one()


def _bridge_build(ctx, params):
    raise BridgeConstraintError("a build that fails its bridge condition")


def _scratch_catalog(monkeypatch, rec):
    """The catalog replaced by two records: the scratch record `rec`,
    then ft3."""
    recs = [rec, registry.lookup("ft3")]
    monkeypatch.setattr(registry, "RECORDS", recs)
    monkeypatch.setattr(registry, "_BY_ID", {r.id: r for r in recs})
    return recs


@pytest.fixture
def wrong_floor_catalog(monkeypatch):
    """`wrong-floor`, a scratch record whose summand declares a wrong
    valuation floor, then ft3."""
    return _scratch_catalog(monkeypatch, IdentityRecord(
        "wrong-floor", "a summand with a wrong floor", (), (),
        _wrong_floor_build, lambda rng, mode: {}))


@pytest.fixture
def no_floor_catalog(monkeypatch):
    """`no-floor`, a scratch record whose summand declares no valuation
    floor for its opaque factor, exact first with a numeric fallback,
    then ft3."""
    return _scratch_catalog(monkeypatch, IdentityRecord(
        "no-floor", "a summand without a floor", (), (), _no_floor_build,
        lambda rng, mode: {"q": Fraction(1, 7)} if mode == "numeric"
        else {}))


@pytest.fixture
def no_bound_catalog(monkeypatch):
    """`no-bound`, a scratch record whose exact draw is inadmissible and
    whose opaque factor declares no magnitude bound and no support, then
    ft3."""
    return _scratch_catalog(monkeypatch, IdentityRecord(
        "no-bound", "a summand without a bound", (), (), _no_bound_build,
        lambda rng, mode: {"x": Fraction(1, 3), "q": Fraction(1, 7)}
        if mode == "numeric" else {"x": QMonomial.of(Fraction(1, 3), 0)}))


@pytest.fixture
def bridge_catalog(monkeypatch):
    """`bridge`, a scratch record whose build raises a QIdentError that
    declares no status of its own (BridgeConstraintError), then ft3."""
    return _scratch_catalog(monkeypatch, IdentityRecord(
        "bridge", "a build that raises", (), (), _bridge_build,
        lambda rng, mode: {}))
