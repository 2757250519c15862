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
                       rec.strategies, rec.note)
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
    # the exponent denominator in particular: a twin at the default 1
    # would not be checking the record as the catalog runs it
    for rec in catalog():
        twin = with_injected_fault(rec, 5)
        assert twin.build is not rec.build
        for f in dataclasses.fields(rec):
            if f.name != "build":
                assert getattr(twin, f.name) == getattr(rec, f.name), \
                    (rec.id, f.name)


# Fault twins at j = 15, order 20, first exact sample of seed 1, for every
# catalog record: the rational text of both coefficients at the reported
# exponent, as reported before ExactCtx kept products unmultiplied. Any
# coefficient-level change in the kernel or in the order of a product
# shows here. The exponent is 15 + v, v the exponent at which the
# record's right side starts: 0, except rrs6-5's 1.
RIGHT_SIDE_START = {"rrs6-5": 1}
MISMATCH_TEXT = [
    ("qgauss", "0", "1"),
    ("qbinom", "-6", "-5"),
    ("bailey-transform", "39/2", "41/2"),
    ("thm-wp-transform",
     "-2574804746931/1073741824",
     "-2573731005107/1073741824"),
    ("cor-central", "-3095/48", "-3143/48"),
    ("alt-alpha", "-16828/4782969", "4766141/4782969"),
    ("alt-sum", "-987593/46656", "-972041/46656"),
    ("ones-alpha", "-100947548/14348907", "-86598641/14348907"),
    ("ones-sum", "1118319/8192", "1142895/8192"),
    ("u-power", "308915840773/14348907", "308930189680/14348907"),
    ("phi54", "4166425/884736", "5051161/884736"),
    ("phi32", "-5/9", "4/9"),
    ("poly2",
     "3731904217458107/546463604736",
     "3732450681062843/546463604736"),
    ("poly2q", "218183847/819200", "219003047/819200"),
    ("phi65", "-231032359989/19531250000", "-211501109989/19531250000"),
    ("ppte-m", "-1546587333/268435456", "-1278151877/268435456"),
    ("cpte3",
     "3735352151054902049055/8388608",
     "3735352151054910437663/8388608"),
    ("cpte5",
     "-2116968789615655206178407273181175808/48828125",
     "-2116968789615655206178407273132347683/48828125"),
    ("bibasic-ab", "352512179577/4", "352512179581/4"),
    ("bibasic-ab2", "-265/1728", "1463/1728"),
    ("rrs3eq1", "7/128", "135/128"),
    ("rrs3", "2", "3"),
    ("rrs3n", "0", "1"),
    ("rrs6", "861", "862"),
    ("rrs6-2", "6", "7"),
    ("rrs6-3", "12", "13"),
    ("rrs6-4", "144", "146"),
    ("rrs6-5", "182", "184"),
    ("gg1a", "6", "7"),
    ("gg1b", "12", "13"),
    ("rogers1", "2", "3"),
    ("rogers2", "0", "1"),
    ("qbailey", "15/4", "19/4"),
    ("gs1", "72", "73"),
    ("gs2", "91", "92"),
    ("slater69", "91", "92"),
    ("slater121", "72", "73"),
    ("s69", "181", "182"),
    ("s121", "144", "145"),
    ("r1", "-1", "0"),
    ("r2a", "1", "2"),
    ("r2b", "1", "2"),
    ("ft1", "-1", "0"),
    ("ft2", "1", "2"),
    ("ft3", "1", "2"),
    ("bb-z0", "-1", "0"),
    ("bb-yinf", "-4", "-3"),
]


def test_mismatch_text_covers_catalog():
    assert [row[0] for row in MISMATCH_TEXT] == [r.id for r in catalog()]


@pytest.mark.parametrize("rid,lhs,rhs", MISMATCH_TEXT)
def test_mismatch_report_text_pinned(rid, lhs, rhs):
    a = sample_params(rid, 1, 1, "exact")[0]
    rep = verify_one(with_injected_fault(rid, 15), a, 20)
    assert rep.status == "mismatch"
    assert rep.mismatch_exponent == 15 + RIGHT_SIDE_START.get(rid, 0)
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
