"""Reach check: every function in src/qident is called by a verdict run,
or is listed in UNREACHED with the reason it is kept.

    PYTHONPATH=src python tests/reach.py

It traces the verdict runs, the RUNS of `tests/verdicts.py` (function
entries only, `sys.setprofile`). A function is every `def` of the
package's modules, nested ones included (lambdas and comprehensions are
not); it is named module.qualname.

It exits 1, printing the names, when a function that no run calls is
not listed, or when a listed function is called or no longer exists, so
that the list stays exactly the code the verdicts do not reach. Its
name keeps it out of the pytest run: the traced runs take longer than
the tests may.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"

#: functions no verdict run calls, each with the reason it is kept
UNREACHED = {
    # the command-line front end and the report document: the runs call
    # the registry directly
    "cli._parse_multiset": "CLI: parses a --a/--b multiset",
    "cli.positive_int": "CLI: argument type of --order and --samples",
    "cli.nonzero_fraction": "CLI: argument type of the family parameters",
    "cli._attach_negative_values": "CLI: lets a rational option be negative",
    "cli._add_common": "CLI: options shared by verify and suite",
    "cli.build_parser": "CLI: the argument parser",
    "cli._emit": "CLI: writes a report to a file or stdout",
    "cli._report_lines": "CLI: text report formatting",
    "cli._run_suite": "CLI: the suite and verify commands",
    "cli.main": "CLI: entry point",
    "registry.VerificationReport.ok": "CLI: the suite's tally and exit code",
    "registry.suite_document": "report I/O: the JSON run document",
    "registry.document_json": "report I/O: serializes the run document",
    "registry.strip_timing": "report I/O: the determinism view",
    "registry.ParamAssignment.formatted": "report I/O: parameters as text",
    "registry.format_value": "report I/O: one parameter as text",
    "registry.parse_value": "report I/O: reads a formatted parameter back",
    # the equal-power-sum side of the paper: the CLI's check and families
    # commands; no record's verdict runs it (ROADMAP item 12)
    "pte._poly_from_roots": "pte checker: the ideal-solution polynomial",
    "pte.affine": "pte checker: affine images of a solution",
    "pte.check_bridge": "pte checker: the telescoping bridge",
    "pte.check_ideal_poly": "pte checker: ideal solutions",
    "pte.check_pte": "pte checker: equal power sums",
    "pte.power_sums": "pte checker: the power sums it compares",
    "pte.pte_alpha_beta": "pte checker: the bridge's Bailey pair",
    "pte.pte_alpha_beta.<locals>.sequence": "pte checker: its sequences",
    "bailey.AlphaSequence.value": "pte bridge: an alpha's exact value",
    # transforms no record uses yet (ROADMAP item 12), and the exact
    # convenience the benchmark calls (micro.bailey.cor_sides_o30)
    "bailey.wp_chain_alpha": "WP-Bailey chain: no record uses it yet",
    "bailey.wp_chain_beta": "WP-Bailey chain: no record uses it yet",
    "bailey.cor_sides": "the benchmark's micro.bailey.cor_sides_o30",
    "bailey.cor_sides.<locals>.sides": "the benchmark's cor_sides",
    "bailey._exact": "the benchmark's cor_sides",
    # beta's envelope for an alpha of support >= 1; the catalog's
    # wp_transform records pass the seed alpha (support 0, beta's own
    # declaration), and the tests an alpha of support 1 or more
    "bailey._summed.<locals>.at": "beta's envelope at alpha support >= 1",
    # the series and tower API that tests, demos and the benchmark read
    # values with (ROADMAP item 15)
    "qfunc.PochTower.__init__": "one-factor tower: demos, tests, benchmark",
    "series.LaurentSeries.__eq__": "series API: tests compare series",
    "series.LaurentSeries.__hash__": "series API: kept with __eq__",
    "series.LaurentSeries.__mul__": "series API: tests and demos",
    "series.LaurentSeries.__radd__": "series API: tests and demos",
    "series.LaurentSeries.__rmul__": "series API: tests and demos",
    "series.LaurentSeries.__rsub__": "series API: tests and demos",
    "series.LaurentSeries.__sub__": "series API: tests and demos",
    "series.LaurentSeries.__repr__": "series API: printing",
    "series.LaurentSeries.__str__": "series API: printing (demos)",
    "series.LaurentSeries._make": "series API: from_pairs' constructor",
    "series.LaurentSeries.coeff": "series API: tests read coefficients",
    "series.LaurentSeries.coeffs": "series API: tests read coefficients",
    "series.LaurentSeries.eval_at": "series API: tests evaluate at q",
    "series.LaurentSeries.from_pairs": "series API: tests, demos, benchmark",
    "series.LaurentSeries.is_exact": "series API: tests",
    "series.LaurentSeries.terms": "series API: tests and eval_at",
    "series.QMonomial.__mul__": "series API: tests and demos",
    "series.QMonomial.__str__": "series API: printing",
}


def defined() -> dict:
    """(file, first line) -> module.qualname of every function `def` in
    the package; the first line is the first decorator's, as in the
    function's code object."""
    out = {}

    def walk(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                out[(path, first)] = name
                walk(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for source in sorted(SRC.glob("*.py")):
        walk(ast.parse(source.read_text(), str(source)),
             os.path.realpath(source), f"{source.stem}.")
    return out


def called() -> set:
    """(file, first line) of every Python function the verdict runs
    enter."""
    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    sys.setprofile(profile)
    try:
        # imported under the profile: importing qident builds the catalog
        from verdicts import RUNS
        for run in RUNS:
            run.reports()
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno)
            for c in codes.values()}


def main() -> int:
    functions = defined()
    seen = called()
    unreached = {name for key, name in functions.items() if key not in seen}
    names = set(functions.values())
    faults = [f"not reached and not listed: {name}"
              for name in sorted(unreached - set(UNREACHED))]
    faults += [f"listed but reached: {name}"
               for name in sorted(set(UNREACHED) & names - unreached)]
    faults += [f"listed but not defined: {name}"
               for name in sorted(set(UNREACHED) - names)]
    print(f"{len(functions)} functions, {len(functions) - len(unreached)} "
          f"reached by the verdict runs, {len(unreached)} not")
    for line in faults:
        print(line)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
