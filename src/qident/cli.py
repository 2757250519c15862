"""Command-line front end.

Commands: list the catalog, verify one identity, run the whole suite,
check equal-power-sum pairs, and print the parametric solution families.
Exit codes: 0 all equal / check passed, 1 any mismatch or failed check,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import QIdentError
from .pte import check_pte, family6, family12, multiset, power_sums
from .registry import (
    catalog,
    document_json,
    lookup,
    select,
    suite_document,
    verify_suite,
)
from .series import DEFAULT_ORDER

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _parse_multiset(text: str):
    try:
        return multiset(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as ex:
        raise argparse.ArgumentTypeError(f"bad multiset {text!r}: {ex}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(sub):
    sub.add_argument("--order", type=positive_int, default=DEFAULT_ORDER,
                     help="truncation order in q (default %(default)s)")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--samples", type=positive_int, default=3,
                     help="assignments per identity (default %(default)s)")
    sub.add_argument("--strategy", choices=["exact", "numeric", "auto"],
                     default="auto")
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument("--out", default=None, help="write report to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qident",
        description="exact verification of the shipped q-series identity "
                    "catalog and the equal-power-sum toolbox")
    subs = ap.add_subparsers(dest="command", required=True)

    subs.add_parser("list", help="print catalog ids and anchors")

    v = subs.add_parser("verify", help="verify one identity")
    v.add_argument("--id", required=True)
    _add_common(v)

    s = subs.add_parser("suite", help="verify every matching identity")
    s.add_argument("--filter", default="*", help="glob over identity ids")
    s.add_argument("--workers", type=positive_int, default=1)
    _add_common(s)

    pc = subs.add_parser("pte-check", help="equal power sums through e = k")
    pc.add_argument("--a", required=True, type=_parse_multiset,
                    help="comma-separated rationals (p/q allowed)")
    pc.add_argument("--b", required=True, type=_parse_multiset)
    pc.add_argument("--k", required=True, type=int)

    pf = subs.add_parser("pte-family", help="print a parametric family")
    pf.add_argument("--family", choices=["6", "6raw", "12"], required=True)
    pf.add_argument("--m", type=Fraction, default=Fraction(1))
    pf.add_argument("--n", type=Fraction, default=Fraction(2))
    pf.add_argument("--K", type=Fraction, default=Fraction(0))
    return ap


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _report_lines(reports):
    lines = []
    for r in reports:
        extra = ""
        if r.status == "mismatch":
            where = f" at q^{r.mismatch_exponent}" \
                if r.mismatch_exponent is not None else ""
            extra = f"{where} (lhs={r.mismatch_lhs}, rhs={r.mismatch_rhs})"
        elif r.status == "skipped":
            extra = f" ({r.reason})"
        elif r.reason:
            extra = f" [{r.reason}]"
        params = " ".join(f"{k}={v}" for k, v in
                          r.assignment.formatted().items())
        lines.append(f"{r.status.upper():8s} {r.id:18s} {r.strategy:8s} "
                     f"{params}{extra}")
    return lines


def _run_reports(reports, args, meta):
    ok = all(r.status == "equal" for r in reports)
    if args.format == "json":
        doc = suite_document(reports, **meta)
        _emit(document_json(doc), args.out)
    else:
        lines = _report_lines(reports)
        n_eq = sum(r.status == "equal" for r in reports)
        lines.append(f"-- {n_eq}/{len(reports)} equal")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else EXIT_OK

    try:
        if args.command == "list":
            for rec in catalog():
                note = f"  [{rec.note}]" if rec.note else ""
                print(f"{rec.id:18s} {rec.anchor}{note}")
            return EXIT_OK

        if args.command == "verify":
            rec = lookup(args.id)
            if rec is None:
                print(f"error: unknown identity id {args.id!r}",
                      file=sys.stderr)
                return EXIT_USAGE
            reports = verify_suite(rec.id, order=args.order, seed=args.seed,
                                   samples=args.samples,
                                   strategy=args.strategy)
            return _run_reports(reports, args, dict(
                order=args.order, seed=args.seed, filter_pattern=rec.id,
                samples=args.samples, strategy=args.strategy))

        if args.command == "suite":
            if not select(args.filter):
                print(f"error: no identity matches {args.filter!r}",
                      file=sys.stderr)
                return EXIT_USAGE
            reports = verify_suite(args.filter, order=args.order,
                                   seed=args.seed, samples=args.samples,
                                   strategy=args.strategy,
                                   workers=args.workers)
            return _run_reports(reports, args, dict(
                order=args.order, seed=args.seed,
                filter_pattern=args.filter, samples=args.samples,
                strategy=args.strategy))

        if args.command == "pte-check":
            ok, first_bad = check_pte(args.a, args.b, args.k)
            if ok:
                print(f"equal power sums for e = 1..{args.k}")
                return EXIT_OK
            sa, sb = power_sums(args.a, first_bad), power_sums(args.b, first_bad)
            print(f"failure at e={first_bad}: {sa} != {sb}")
            return EXIT_MISMATCH

        if args.command == "pte-family":
            if args.family == "12":
                a, b = family12(args.m, args.K)
                ok, _ = check_pte(a, b, 11)
                depth = 11
            else:
                a, b = family6(args.m, args.n,
                               normalized=(args.family == "6"), K=args.K)
                if args.family == "6":
                    b = b + (Fraction(1),)
                ok, _ = check_pte(a, b, 5)
                depth = 5
            print("A =", ", ".join(str(v) for v in a))
            print("B =", ", ".join(str(v) for v in b))
            print(f"power sums equal through e = {depth}: {ok}")
            return EXIT_OK if ok else EXIT_MISMATCH
    except QIdentError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
