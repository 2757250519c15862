"""Catalog shape, samplers, verification driver, reports."""

import dataclasses
import json
from fractions import Fraction as F

import pytest

from qident.errors import SamplerExhausted
from qident.registry import (
    ParamAssignment,
    catalog,
    document_json,
    format_value,
    lookup,
    parse_value,
    sample_params,
    suite_document,
    verify_one,
    verify_suite,
    with_injected_fault,
)
from qident.series import QMonomial

# The full inventory of identities the engine ships, grouped by origin.
# Every label must be covered by exactly one catalog record; the test
# below machine-checks the two enumerations against each other.
INVENTORY = {
    # pair machinery and base summations
    "wp-pair-def", "wp-chain-step", "q-gauss-sum", "classical-transform",
    "wp-transform", "partial-sum-transform", "q-binomial-theorem",
    "phi-series-def",
    # first consequences
    "alt-alpha-transform", "alt-alpha-sum", "ones-alpha-transform",
    "ones-alpha-sum", "u-power-sum", "phi-5-4", "phi-3-2",
    # multi-base transforms
    "pentabasic-transform", "pentabasic-basic-case", "multibasic-telescoping",
    # equal-power-sum bridge
    "phi-6-5-telescoped", "bridge-condition-transform", "pte-definition",
    "ideal-poly-criterion", "affine-invariance", "family6-raw",
    "family6-normalized", "family6-transform", "family12",
    "family12-transform",
    # quadratic-exponent family
    "bibasic-half-series", "bibasic-general", "bibasic-half-series-2",
    "bibasic-general-2", "rr-slater-1", "rr-slater-2", "rr-intermediate",
    "rr-slater-3", "rr-slater-4", "rr-slater-5", "rr-slater-6",
    "rr-slater-7", "gollnitz-gordon-1", "gollnitz-gordon-2",
    "rogers-mod5-1", "rogers-mod5-2", "q-bailey-sum", "gessel-stanton-1",
    "gessel-stanton-2", "slater-69", "slater-121", "slater-69-shifted",
    "slater-121-shifted",
    # false theta representations
    "false-theta-half", "false-theta-third", "lost-notebook-1",
    "lost-notebook-2a", "lost-notebook-2b", "false-theta-1",
    "false-theta-2", "false-theta-3", "bibasic-z0", "bibasic-yinf",
}


def test_catalog_count():
    assert len(catalog()) >= 38


def test_lookup():
    rec = lookup("qbinom")
    assert rec is not None and "q-binomial" in rec.anchor
    assert lookup("nonexistent") is None


def test_catalog_completeness():
    seen = {}
    for rec in catalog():
        for label in rec.covers:
            assert label not in seen, \
                f"{label} covered twice: {seen[label]} and {rec.id}"
            seen[label] = rec.id
    assert set(seen) == INVENTORY


def test_exponent_denominators():
    half = {"bibasic-ab", "bibasic-ab2", "rrs3eq1"}
    for rec in catalog():
        assert rec.exponent_denominator == (2 if rec.id in half else 1)


def test_sampler_determinism():
    for rid in ("qgauss", "cpte3", "bibasic-ab"):
        for strat in ("exact", "numeric"):
            a = sample_params(rid, 9, 3, strat)
            b = sample_params(rid, 9, 3, strat)
            assert [x.values for x in a] == [y.values for y in b]
            c = sample_params(rid, 10, 3, strat)
            assert [x.values for x in a] != [z.values for z in c]


def test_sampler_ones_sum_exact_forces_unit_exponent():
    for a in sample_params("ones-sum", 3, 20, "exact"):
        x = a.values["x"]
        assert isinstance(x, QMonomial) and x.exp == 1 and x.coef != 0


def test_sampler_poly2_constraint_audit():
    for a in sample_params("poly2", 2, 100, "exact"):
        ep = a.values["p"].exp
        eP = a.values["P"].exp
        eQ = a.values["Q"].exp
        eR = a.values["R"].exp
        # four admissible quotient bases
        assert eP + eQ + eR - ep >= 1
        assert ep + eP + eQ - eR >= 1
        assert ep + eQ + eR - eP >= 1
        assert ep + eP + eR - eQ >= 1
        # three nonnegative valuation slopes for the linear factors
        assert ep + eP - eQ - eR >= 0
        assert eP + eQ - ep - eR >= 0
        assert ep + eQ - eP - eR >= 0
        assert a.values["x"].exp >= 1


def test_sampler_exhaustion():
    rec = lookup("qgauss")
    broken = type(rec)(rec.id, rec.anchor, rec.covers, rec.schema, rec.build,
                       lambda rng, mode: None, rec.exponent_denominator,
                       rec.strategies, rec.note, rec.headroom)
    import qident.registry as reg
    reg._BY_ID["__broken__"] = broken
    try:
        with pytest.raises(SamplerExhausted):
            sample_params("__broken__", 1, 1, "exact")
    finally:
        del reg._BY_ID["__broken__"]


def test_verify_one_qgauss_reference_point():
    a = ParamAssignment(values={"a": QMonomial.of(1, 2),
                                "b": QMonomial.of(1, 3),
                                "c": QMonomial.of(1, 7)},
                        strategy="exact")
    rep = verify_one("qgauss", a, 30)
    assert rep.status == "equal"


def test_verify_one_ft3_no_params():
    a = ParamAssignment(values={}, strategy="exact")
    rep = verify_one("ft3", a, 40)
    assert rep.status == "equal"


def test_verify_one_injected_defect():
    faulty = with_injected_fault("qgauss", 17)
    a = ParamAssignment(values={"a": QMonomial.of(1, 2),
                                "b": QMonomial.of(1, 3),
                                "c": QMonomial.of(1, 7)},
                        strategy="exact")
    rep = verify_one(faulty, a, 30)
    assert rep.status == "mismatch"
    assert rep.mismatch_exponent == 17


def test_fault_on_half_exponent_record():
    faulty = with_injected_fault("rrs3eq1", 9)
    a = sample_params("rrs3eq1", 4, 1, "exact")[0]
    rep = verify_one(faulty, a, 30)
    assert rep.status == "mismatch"
    assert rep.mismatch_exponent == F(9)


def test_fault_twin_keeps_every_field_but_build():
    # headroom in particular: a twin at the default 4 would not be
    # checking the record as the catalog runs it
    for rec in catalog():
        twin = with_injected_fault(rec, 5)
        assert twin.build is not rec.build
        for f in dataclasses.fields(rec):
            if f.name != "build":
                assert getattr(twin, f.name) == getattr(rec, f.name), \
                    (rec.id, f.name)


# Fault twins at j = 15, order 20, first exact sample of seed 1: the
# exponent and the rational text of both coefficients, as reported
# before the series kernel moved to integer numerators.
MISMATCH_TEXT = [
    ("cpte3", "3735352151054902049055/8388608",
     "3735352151054910437663/8388608"),
    ("poly2q", "218183847/819200", "219003047/819200"),
    ("phi65", "-231032359989/19531250000", "-211501109989/19531250000"),
    ("phi54", "4166425/884736", "5051161/884736"),
    ("ppte-m", "-1546587333/268435456", "-1278151877/268435456"),
]


@pytest.mark.parametrize("rid,lhs,rhs", MISMATCH_TEXT)
def test_mismatch_report_text_pinned(rid, lhs, rhs):
    a = sample_params(rid, 1, 1, "exact")[0]
    rep = verify_one(with_injected_fault(rid, 15), a, 20)
    assert rep.status == "mismatch"
    assert rep.mismatch_exponent == 15
    assert (rep.mismatch_lhs, rep.mismatch_rhs) == (lhs, rhs)


def test_exact_skip_falls_back_to_numeric_in_suite():
    # a constant x makes every exact summand valuation-flat; the numeric
    # strategy must still certify the identity (skip soundness)
    a = ParamAssignment(values={"x": QMonomial.of(F(1, 3), 0)},
                        strategy="exact")
    rep = verify_one("ones-sum", a, 25)
    assert rep.status == "skipped" and "ValuationStall" in rep.reason
    num = sample_params("ones-sum", 1, 1, "numeric")[0]
    rep2 = verify_one("ones-sum", num, 25)
    assert rep2.status == "equal"


def test_verify_one_numeric_reference_point():
    # q = 1/7, x = 1/3: both sides agree within the numeric tolerance
    a = ParamAssignment(values={"x": F(1, 3), "q": F(1, 7)},
                        strategy="numeric", q_unit=F(1, 7))
    rep = verify_one("ones-sum", a, 40)
    assert rep.status == "equal"


def test_suite_filter_semantics():
    reports = verify_suite("rrs*", order=20, samples=1)
    ids = {r.id for r in reports}
    assert ids == {"rrs3", "rrs3n", "rrs3eq1", "rrs6", "rrs6-2", "rrs6-3",
                   "rrs6-4", "rrs6-5"}
    assert verify_suite("zzz-no-such*", order=20) == []


def test_suite_report_order_canonical():
    r1 = verify_suite("gg*", order=20, samples=2)
    r2 = verify_suite("gg*", order=20, samples=2, workers=4)
    assert [(r.id, r.assignment.provenance) for r in r1] == \
        [(r.id, r.assignment.provenance) for r in r2]


def test_document_roundtrip_and_grammar():
    reports = verify_suite("qbinom", order=20, samples=2)
    doc = suite_document(reports, order=20, seed=1, filter_pattern="qbinom",
                         samples=2, strategy="auto")
    text = document_json(doc)
    back = json.loads(text)
    assert back["meta"]["order"] == 20
    assert all(r["status"] == "equal" for r in back["reports"])
    for rep in back["reports"]:
        for sym, sval in rep["params"].items():
            parse_value(sval, 1)


def test_format_parse_values():
    m = QMonomial(F(-2, 3), 5)
    assert format_value(m, 1) == "-2/3*q^5"
    assert parse_value("-2/3*q^5", 1) == m
    assert format_value(QMonomial(F(1), 3), 2) == "1*q^3/2"
    assert parse_value("1*q^3/2", 2) == QMonomial(F(1), 3)
    assert parse_value("7/2") == F(7, 2)
    assert parse_value("4") == 4


def test_strategies_cover_every_record():
    for rec in catalog():
        assert "exact" in rec.strategies
