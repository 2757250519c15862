"""Catalog access, deterministic parameter sampling, and the verification
driver that turns identity records into reports.

Reports are plain data; all failure modes of a strategy (non-truncatable
products, stalled valuations, degenerate denominators, undecided numeric
tails) become `skipped` entries rather than crashes, and a mismatch always
carries the lowest differing exponent in q-units.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from fnmatch import fnmatch
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .context import NumericCtx, exact_run
from .errors import (
    DegenerateDenominator,
    DegenerateFamily,
    DegenerateVWP,
    LowerParameterPole,
    NonTruncatable,
    OrderInsufficient,
    SamplerExhausted,
    TailNotDecreasing,
    ValuationStall,
    ZeroLeadingCoefficient,
)
from .records import RECORDS, IdentityRecord
from .series import DEFAULT_ORDER, QMonomial

#: strategy failures that produce a skipped report instead of an error
SKIP_ERRORS = (NonTruncatable, ValuationStall, TailNotDecreasing,
               DegenerateDenominator, DegenerateVWP, LowerParameterPole,
               ZeroLeadingCoefficient, OrderInsufficient, DegenerateFamily)

_SAMPLER_BUDGET = 10_000


def catalog() -> Tuple[IdentityRecord, ...]:
    """The complete, immutable identity catalog."""
    return tuple(RECORDS)


_BY_ID = {r.id: r for r in RECORDS}


def lookup(record_id: str) -> Optional[IdentityRecord]:
    return _BY_ID.get(record_id)


def select(filter_pattern: str = "*") -> List[IdentityRecord]:
    """The records whose id matches the glob (an empty pattern matches
    all), in catalog order."""
    return [r for r in catalog() if fnmatch(r.id, filter_pattern or "*")]


@dataclass
class ParamAssignment:
    """A sampled, admissible set of parameter values for one record."""

    values: Dict[str, object]
    strategy: str
    exponent_denominator: int = 1
    q_unit: Optional[Fraction] = None     # numeric strategy only
    provenance: str = ""

    def formatted(self) -> Dict[str, str]:
        return {k: format_value(v, self.exponent_denominator)
                for k, v in self.values.items()}


@dataclass
class VerificationReport:
    """Outcome of checking one record at one assignment."""

    id: str
    assignment: ParamAssignment
    order: int
    strategy: str
    status: str                      # equal | mismatch | skipped
    mismatch_exponent: Optional[Fraction] = None
    mismatch_lhs: Optional[str] = None
    mismatch_rhs: Optional[str] = None
    reason: Optional[str] = None     # for skipped
    note: Optional[str] = None
    millis: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "equal"


def format_value(v, denom: int = 1) -> str:
    """Parameter grammar: monomials as 'c*q^e' (e possibly fractional),
    rationals and integers plain."""
    if isinstance(v, QMonomial):
        e = Fraction(v.exp, denom)
        return f"{v.coef}*q^{e}"
    return str(v)


def parse_value(s: str, denom: int = 1):
    """Inverse of format_value."""
    s = s.strip()
    if "*q^" in s:
        c, e = s.split("*q^")
        te = Fraction(e) * denom
        if te.denominator != 1:
            raise ValueError(f"exponent {e} needs a finer denominator")
        return QMonomial(Fraction(c), int(te))
    if "/" in s:
        return Fraction(s)
    return int(s)


def _seed_rng(record_id: str, seed: int, strategy: str) -> random.Random:
    digest = hashlib.sha256(f"{record_id}:{seed}:{strategy}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_params(record_id: str, seed: int, count: int,
                  strategy: str = "exact") -> List[ParamAssignment]:
    """Deterministic admissible assignments; rejection-samples degenerate
    draws and raises SamplerExhausted past the retry budget."""
    rec = lookup(record_id)
    if rec is None:
        raise KeyError(f"unknown record id: {record_id}")
    if strategy == "exact" and not rec.schema:
        count = min(count, 1)    # nothing varies without free symbols
    rng = _seed_rng(record_id, seed, strategy)
    out: List[ParamAssignment] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > _SAMPLER_BUDGET:
            raise SamplerExhausted(
                f"{record_id}: no admissible assignment in "
                f"{_SAMPLER_BUDGET} draws")
        values = rec.sampler(rng, strategy)
        if values is None:
            continue
        q_unit = None
        if strategy == "numeric":
            if "__q_unit" in values:
                q_unit = values.pop("__q_unit")
                values["q"] = q_unit ** rec.exponent_denominator
            else:
                q_unit = values.get("q")
        out.append(ParamAssignment(
            values=values, strategy=strategy,
            exponent_denominator=rec.exponent_denominator, q_unit=q_unit,
            provenance=f"seed={seed}/{len(out)}"))
    return out


def _resolve(record: Union[str, IdentityRecord]) -> IdentityRecord:
    if isinstance(record, IdentityRecord):
        return record
    rec = lookup(record)
    if rec is None:
        raise KeyError(f"unknown record id: {record}")
    return rec


def verify_one(record: Union[str, IdentityRecord],
               assignment: ParamAssignment, order: int = DEFAULT_ORDER
               ) -> VerificationReport:
    """Build both sides of one record and compare them.

    Exact strategy: coefficientwise comparison through the working order.
    Numeric strategy: |lhs - rhs| within `NumericCtx.tol`. Strategy errors
    yield a skipped report carrying the reason.
    """
    rec = _resolve(record)
    strategy = assignment.strategy
    t0 = time.perf_counter()

    def done(**kw) -> VerificationReport:
        millis = int((time.perf_counter() - t0) * 1000)
        return VerificationReport(id=rec.id, assignment=assignment,
                                  order=order, strategy=strategy,
                                  note=rec.note, millis=millis, **kw)

    try:
        if strategy == "exact":
            def compared(ctx):
                lhs, rhs = map(ctx.finalize,
                               rec.build(ctx, assignment.values))
                return lhs.compare(rhs, ctx.target)

            m = exact_run(order, compared, rec.exponent_denominator)
            if m is None:
                return done(status="equal")
            return done(status="mismatch",
                        mismatch_exponent=Fraction(m.exponent,
                                                   rec.exponent_denominator),
                        mismatch_lhs=str(m.lhs), mismatch_rhs=str(m.rhs))
        if strategy == "numeric":
            if assignment.q_unit is None:
                raise ValueError("numeric assignment carries no q value")
            ctx = NumericCtx(assignment.q_unit, rec.exponent_denominator)
            lhs, rhs = map(ctx.finalize, rec.build(ctx, assignment.values))
            if ctx.sub(lhs, rhs).copy_abs() <= ctx.tol:
                return done(status="equal")
            return done(status="mismatch", mismatch_lhs=str(lhs),
                        mismatch_rhs=str(rhs))
        raise ValueError(f"unknown strategy: {strategy}")
    except SKIP_ERRORS as ex:
        return done(status="skipped",
                    reason=f"{type(ex).__name__}: {ex}")


def verify_suite(filter_pattern: str = "*", order: int = DEFAULT_ORDER,
                 seed: int = 1, samples: int = 3, strategy: str = "auto",
                 workers: int = 1) -> List[VerificationReport]:
    """Run every matching record over sampled assignments.

    strategy 'auto' tries exact first and falls back to a numeric sample
    when the exact strategy is inadmissible for that record/assignment.
    An exact OrderInsufficient never falls back: past `exact_run` it is a
    defect, not an inadmissible specialization. The reports come in job
    order (catalog order, then sample index) whatever the schedule: the
    thread pool's `map` returns results in the order of its inputs.
    """
    recs = select(filter_pattern)
    jobs = []
    for rec in recs:
        modes = rec.strategies if strategy == "auto" else (strategy,)
        primary = modes[0]
        if primary not in rec.strategies:
            continue
        assigns = sample_params(rec.id, seed, samples, primary)
        fallback = None
        if strategy == "auto" and "numeric" in rec.strategies and \
                primary != "numeric":
            fallback = sample_params(rec.id, seed, samples, "numeric")
        for i, a in enumerate(assigns):
            fb = fallback[i] if fallback and i < len(fallback) else None
            jobs.append((rec, a, fb))

    def run(job):
        rec, a, fb = job
        rep = verify_one(rec, a, order)
        if rep.status == "skipped" and fb is not None and \
                not rep.reason.startswith(OrderInsufficient.__name__):
            rep2 = verify_one(rec, fb, order)
            if rep2.status != "skipped":
                rep2.reason = f"exact skipped ({rep.reason})"
                return rep2
            rep.reason += f"; numeric also skipped ({rep2.reason})"
        return rep

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, jobs))
    return [run(j) for j in jobs]


def with_injected_fault(record: Union[str, IdentityRecord],
                        j: int) -> IdentityRecord:
    """A copy of the record whose right side is multiplied by (1 + q^j);
    exact verification must then report a mismatch at exactly j."""
    rec = _resolve(record)

    def faulty(ctx, params):
        lhs, rhs = rec.build(ctx, params)
        bump = ctx.add(ctx.one(), ctx.qpow(j))
        return lhs, ctx.mul(ctx.finalize(rhs), bump)

    return replace(rec, build=faulty)


# ---------------------------------------------------------------------------
# JSON report document
# ---------------------------------------------------------------------------

def suite_document(reports: Sequence[VerificationReport], *, order: int,
                   seed: int, filter_pattern: str, samples: int,
                   strategy: str) -> Dict:
    """Assemble the run document. All wall-clock data is isolated in the
    single 'timing' field so that documents from identical runs are
    byte-identical once that field is dropped."""
    body = []
    for r in reports:
        mismatch = None
        if r.status == "mismatch":
            mismatch = {
                "exponent": str(r.mismatch_exponent)
                if r.mismatch_exponent is not None else None,
                "lhs": r.mismatch_lhs,
                "rhs": r.mismatch_rhs,
            }
        body.append({
            "id": r.id,
            "strategy": r.strategy,
            "params": r.assignment.formatted(),
            "status": r.status,
            "mismatch": mismatch,
            "reason": r.reason,
            "note": r.note,
        })
    return {
        "meta": {
            "order": order,
            "seed": seed,
            "filter": filter_pattern,
            "samples": samples,
            "strategy": strategy,
            "engine": "qident 0.1.0",
        },
        "timing": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "total_millis": sum(r.millis for r in reports),
            "report_millis": [r.millis for r in reports],
        },
        "reports": body,
    }


def document_json(doc: Dict) -> str:
    return json.dumps(doc, indent=2)


def strip_timing(doc: Dict) -> Dict:
    """The determinism view of a run document."""
    return {k: v for k, v in doc.items() if k != "timing"}
