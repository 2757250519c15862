"""Fixtures shared by the test modules."""

import pytest

from qident import registry
from qident.bailey import Factor, Summand
from qident.records import IdentityRecord


def _wrong_floor_build(ctx, params):
    # f_n = q^-n declared to have valuation >= 0: term 1 of
    # q^(n^2) f_n is q^0, below its declared bound q^1
    wrong = Factor(lambda n: ctx.qpow(-n), floor=0)
    return ctx.summation(Summand(ctx, power=(1, 0, 0), factors=[wrong])), \
        ctx.one()


@pytest.fixture
def wrong_floor_catalog(monkeypatch):
    """The catalog replaced by two records: `wrong-floor`, a scratch
    record whose summand declares a wrong valuation floor, then ft3."""
    recs = [IdentityRecord("wrong-floor", "a summand with a wrong floor",
                           (), (), _wrong_floor_build, lambda rng, mode: {},
                           strategies=("exact",)),
            registry.lookup("ft3")]
    monkeypatch.setattr(registry, "RECORDS", recs)
    monkeypatch.setattr(registry, "_BY_ID", {r.id: r for r in recs})
    return recs
