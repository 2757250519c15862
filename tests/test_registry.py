"""Catalog shape, samplers, verification driver, reports."""

import collections
import dataclasses
import hashlib
import inspect
import json
from fractions import Fraction as F

import pytest

from qident import errors, registry, series
from qident.errors import QIdentError, SamplerExhausted
from qident.registry import (
    ParamAssignment,
    catalog,
    document_json,
    format_value,
    lookup,
    parse_value,
    sample_params,
    strip_timing,
    suite_document,
    verify_one,
    verify_suite,
    with_injected_fault,
)
from qident.series import LaurentSeries, QMonomial

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
                       rec.note)
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


# Fault twins at j = 7, order 20, on the first two seed-1 exact samples of
# every record (the one sample of a record without parameters): the sha256
# of one line "id status exponent lhs rhs" per twin, as reported before
# ExactCtx stepped its Pochhammer quotients by their term ratio. The second
# sample reaches factors that the first one leaves trivial; one wrong factor
# anywhere in the kernel or in a record changes the digest.
TWIN_DIGEST = \
    "bc9490df906d3726b34cc897dd9f0388054ae2a9756e7d4700eb6e12bfe0da65"


def test_fault_twin_digest_pinned():
    lines = []
    for rec in catalog():
        for a in sample_params(rec.id, 1, 2, "exact"):
            rep = verify_one(with_injected_fault(rec, 7), a, 20)
            lines.append(" ".join(map(str, (
                rec.id, rep.status, rep.mismatch_exponent,
                rep.mismatch_lhs, rep.mismatch_rhs))))
    assert len(lines) == 72
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TWIN_DIGEST, "\n".join(lines)


# The numeric counterpart: fault twins at j = 7 on the first three seed-1
# numeric samples of every record, one line "id status lhs rhs" per twin,
# every digit of both sides included. A change to a numeric value anywhere
# (a term, a stop, a rounding) changes the digest, where the statuses
# alone would not show it.
NUMERIC_TWIN_DIGEST = \
    "b55aabc48d7ffc80d3718606f28dadb92f6c08e404e357ca7f80fc9cd15d53bc"


def test_numeric_fault_twin_digest_pinned():
    lines = []
    for rec in catalog():
        for a in sample_params(rec.id, 1, 3, "numeric"):
            rep = verify_one(with_injected_fault(rec, 7), a, 20)
            lines.append(" ".join(map(str, (
                rec.id, rep.status, rep.mismatch_lhs, rep.mismatch_rhs))))
    assert len(lines) == 141
    assert {line.split()[1] for line in lines} == {"mismatch"}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == NUMERIC_TWIN_DIGEST, "\n".join(lines)


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


def test_bound_violation_is_an_error_report_and_the_suite_goes_on(
        wrong_floor_catalog):
    # a wrong declaration is a defect: reported as an error with its
    # reason, never as a skip, and the next job still runs
    reports = verify_suite(order=20, seed=1, samples=1)
    assert [(r.id, r.status) for r in reports] == [("wrong-floor", "error"),
                                                   ("ft3", "equal")]
    assert reports[0].reason == ("BoundViolation: term 1 has valuation 0, "
                                 "below its declared bound 1")
    doc = suite_document(reports, order=20, seed=1, filter_pattern="*",
                         samples=1, strategy="auto")
    assert doc["reports"][0]["status"] == "error"


def test_undeclared_floor_is_an_error_report_without_fallback(
        no_floor_catalog):
    # a factor declared without a floor is a defect whatever the draw: an
    # error report, not a skip, so `auto` takes no numeric fallback,
    # although the numeric strategy alone would read equal
    reports = verify_suite(order=20, seed=1, samples=1)
    assert [(r.id, r.strategy, r.status) for r in reports] == [
        ("no-floor", "exact", "error"), ("ft3", "exact", "equal")]
    assert reports[0].reason == ("UndeclaredFloor: opaque factor without "
                                 "a valuation floor")
    a, = sample_params("no-floor", 1, 1, "numeric")
    assert verify_one("no-floor", a, 20).status == "equal"


def test_undeclared_bound_is_an_error_report(no_bound_catalog):
    # at the exact draw the specialization is inadmissible, so `auto`
    # takes the numeric draw; there a factor that declares neither a bound
    # nor a support is a defect whatever the draw: an error report, not a
    # second skip, and the same under the numeric strategy alone
    reports = verify_suite(order=20, seed=1, samples=1)
    assert [(r.id, r.strategy, r.status) for r in reports] == [
        ("no-bound", "numeric", "error"), ("ft3", "exact", "equal")]
    assert reports[0].reason == (
        "UndeclaredBound: opaque factor without a magnitude bound; exact "
        "skipped (ValuationStall: declared summand has no valuation growth)")
    reports = verify_suite(order=20, seed=1, samples=1, strategy="numeric")
    assert [(r.id, r.status) for r in reports] == [("no-bound", "error"),
                                                   ("ft3", "equal")]
    assert reports[0].reason == ("UndeclaredBound: opaque factor without "
                                 "a magnitude bound")


@pytest.fixture
def sampled(monkeypatch):
    """The strategy of every draw the driver samples."""
    calls = []

    def traced(record_id, seed, count, strategy):
        calls.append(strategy)
        return sample_params(record_id, seed, count, strategy)

    monkeypatch.setattr(registry, "sample_params", traced)
    return calls


def test_an_error_of_no_listed_class_is_an_error_report(bridge_catalog,
                                                        sampled):
    # a QIdentError that declares no status is a defect: an error report
    # with its reason, no numeric fallback is sampled, and the suite goes
    # on
    reports = verify_suite(order=20, seed=1, samples=1)
    assert [(r.id, r.strategy, r.status) for r in reports] == [
        ("bridge", "exact", "error"), ("ft3", "exact", "equal")]
    assert reports[0].reason == ("BridgeConstraintError: a build that fails "
                                 "its bridge condition")
    assert sampled == ["exact", "exact"]


def test_numeric_draws_are_sampled_only_for_a_skipped_exact_job(sampled):
    assert all(r.ok for r in verify_suite("q*", order=20, samples=2))
    assert sampled == ["exact"] * 3


#: the report status of every QIdentError: "skipped" only where the
#: sampled specialization is inadmissible
STATUS = {
    "QIdentError": "error",
    "ZeroLeadingCoefficient": "skipped",
    "OrderInsufficient": "error",
    "NonTruncatable": "skipped",
    "ValuationStall": "skipped",
    "BoundViolation": "error",
    "UndeclaredFloor": "error",
    "UndeclaredBound": "error",
    "TailNotDecreasing": "skipped",
    "DegenerateVWP": "skipped",
    "DegenerateDenominator": "skipped",
    "SizeMismatch": "error",
    "DegenerateFamily": "skipped",
    "BridgeConstraintError": "error",
    "SamplerExhausted": "error",
}


def test_every_error_class_declares_its_status():
    classes = {name: cls for name, cls in inspect.getmembers(
        errors, inspect.isclass) if issubclass(cls, QIdentError)}
    assert {name: cls.status for name, cls in classes.items()} == STATUS
    # a fresh instance reports it too
    assert errors.ZeroLeadingCoefficient("x").status == "skipped"
    assert errors.OrderInsufficient("x", 3).status == "error"


KINDS = {"monomial": QMonomial, "rational": F, "integer": int}


@pytest.mark.parametrize("rec", catalog(), ids=lambda r: r.id)
def test_samplers_draw_their_schema(rec):
    # at seed 1 the sampler gives a value to each schema symbol and to
    # nothing else, plus q for a numeric draw; an exact value has the type
    # of its kind
    symbols = {p.symbol for p in rec.schema}
    for strategy in rec.strategies:
        extra = {"q"} if strategy == "numeric" else set()
        for a in sample_params(rec.id, 1, 3, strategy):
            assert set(a.values) == symbols | extra, strategy
    for a in sample_params(rec.id, 1, 3, "exact"):
        for p in rec.schema:
            assert type(a.values[p.symbol]) is KINDS[p.kind], p


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
    # catalog order, then sample index
    ids = [rec.id for rec in catalog()]
    reports = verify_suite("q*", order=20, samples=2)
    keys = [(ids.index(r.id), r.assignment.provenance) for r in reports]
    assert len({i for i, _ in keys}) == 3 and len(keys) == 6
    assert keys == sorted(keys)


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


# The 22 parameter-free records at order 120, each clean and with a
# (1 + q^j) twin, j = 1 + 23 i mod 119 for the i-th of them: the sha256 of
# their suite document (timing dropped), as reported while ExactCtx still
# expanded every infinite product and 1 - m into a window and inverted it
# with `LaurentSeries.invert`. Those factors are now binomials applied to
# the dense part, so these wide-window jobs never invert a series.
WIDE_DIGEST = \
    "708d573d49c2e3f1007dfe7b4b80279281aaf504733d4e8e6d90538d8d0e86f6"

#: records whose product side holds at least 16 unit binomials (1 +- q^e)^(+-1)
#: at order 120 (108 to 172; the other six hold at most 3): each forces it
#: by packed shift-adds (`series._packed_pass`), clean and as a twin
PACKED = ("rrs3", "rrs3n", "rrs6-2", "rrs6-3", "rrs6-4", "rrs6-5", "gg1a",
          "gg1b", "rogers1", "rogers2", "gs1", "gs2", "slater69",
          "slater121", "s69", "s121")


def test_wide_window_reports_pinned_without_invert(monkeypatch):
    # no job inverts a series, and none multiplies two windows: a summand
    # is one quotient whatever its Pochhammer lengths, and a head
    # 1 + q^(h - 2n) of negative exponent stays a monomial times a binomial
    calls = []
    muls, packs = collections.Counter(), collections.Counter()
    current = [None]
    invert, mul = LaurentSeries.invert, LaurentSeries.mul
    packed_pass = series._packed_pass

    def counted(self, *args, **kw):
        calls.append(1)
        return invert(self, *args, **kw)

    def counted_mul(self, *args, **kw):
        muls[current[0]] += 1
        return mul(self, *args, **kw)

    def counted_pack(*args):
        packs[current[0]] += 1
        return packed_pass(*args)

    monkeypatch.setattr(LaurentSeries, "invert", counted)
    monkeypatch.setattr(LaurentSeries, "mul", counted_mul)
    monkeypatch.setattr(series, "_packed_pass", counted_pack)
    reports = []
    free = [rec for rec in catalog() if not rec.schema]
    assert len(free) == 22
    assert set(PACKED) <= {rec.id for rec in free}
    for i, rec in enumerate(free):
        current[0] = rec.id
        a, = sample_params(rec.id, 1, 1, "exact")
        reports.append(verify_one(rec, a, 120))
        reports.append(verify_one(
            with_injected_fault(rec, 1 + 23 * i % 119), a, 120))
    doc = document_json(strip_timing(suite_document(
        reports, order=120, seed=1, filter_pattern="*", samples=1,
        strategy="exact")))
    assert hashlib.sha256(doc.encode()).hexdigest() == WIDE_DIGEST
    assert calls == []
    assert dict(muls) == {}
    assert dict(packs) == {rid: 2 for rid in PACKED}
