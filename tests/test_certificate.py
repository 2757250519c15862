"""The stopping certificate on the real catalog.

Every exact sum stops where its declared summand's valuation bound passes
the goal. For each record's first seed-1 exact sample at order 20, every
declared summand is evaluated well past that stop and checked against the
bound it declares: each term has no coefficient below the bound, and each
term from the stop on is zero through the goal.
"""

from itertools import count

import pytest

from qident.context import ExactCtx
from qident.registry import catalog, sample_params

ORDER = 20
PAST = 10


class CertifyingCtx(ExactCtx):
    """An ExactCtx that checks each summand against its certificate before
    summing it; the headroom is fixed at the target, so no term needs a
    rebuild."""

    def __init__(self, order: int, denom: int):
        super().__init__(order, denom, headroom=order * denom)
        self.checked = []

    def summation(self, term, start=0, times=1):
        growth = term.law().growth()
        goal = min(self.order,
                   self.target + max(0, -self.monomial(times).exp))
        stop = next(n for n in count() if growth(n + start) > goal)
        for n in range(stop + PAST + 1):
            t = self.finalize(term(n + start))
            bound = growth(n + start)
            low = [e for e, _ in t.terms() if e < min(bound, t.order)]
            assert low == [], (n, bound, str(t))
            if n >= stop:
                assert t.order >= goal, (n, str(t))
                assert t.truncate(goal).is_zero, (n, str(t))
        self.checked.append((stop, goal))
        return super().summation(term, start, times)


@pytest.mark.parametrize("record", [r for r in catalog()
                                    if "exact" in r.strategies],
                         ids=lambda r: r.id)
def test_declared_bounds_hold_past_the_stop(record):
    a = sample_params(record.id, 1, 1, "exact")[0]
    ctx = CertifyingCtx(ORDER, record.exponent_denominator)
    record.build(ctx, a.values)
    assert ctx.checked
