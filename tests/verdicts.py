"""Writes tests/verdicts.txt, one line "run id provenance strategy status
mismatch-exponent reason" ("-" if absent) per report of RUNS, in job
order: no digits of a numeric side, so its diff names each moved verdict.

    PYTHONPATH=src python tests/verdicts.py

Exits 1, naming the lines, where a clean report is not equal or a (1 +
q^7) fault twin not a mismatch, unless KNOWN lists the line, and where a
listed line reads as expected or is gone. Not collected by pytest;
tests/reach.py traces RUNS."""

import sys
from pathlib import Path
from typing import NamedTuple

from qident.registry import (catalog, sample_params, verify_one,
                             verify_suite, with_injected_fault)


class Run(NamedTuple):
    """The suite at one configuration, or the fault twins of its draws."""

    strategy: str           # auto | exact | numeric
    seed: int
    samples: int
    order: int = 40
    twin: bool = False

    @property
    def name(self) -> str:
        twin = "twin-" * self.twin
        return f"{twin}{self.strategy}-o{self.order}-s{self.seed}"

    def reports(self):
        if not self.twin:
            return verify_suite(order=self.order, seed=self.seed,
                                samples=self.samples, strategy=self.strategy)
        return [verify_one(with_injected_fault(rec, 7), a, self.order)
                for rec in catalog() for a in sample_params(
                    rec.id, self.seed, self.samples, self.strategy)]


RUNS = (*(Run("auto", s, 3, order) for order in (20, 40, 120)
          for s in (1, 2, 3)),
        *(Run("numeric", s, 20) for s in (1, 2, 3, 27)),
        *(Run("exact", s, 3, twin=True) for s in (1, 2, 3)),
        *(Run("numeric", s, 20, twin=True) for s in (1, 2, 3)))

#: "run id provenance" of the lines that cannot read as expected, and why
#: (ROADMAP item 2: at cpte5 an entry 1 + t m vanishes, so both sides do)
KNOWN = {
    "numeric-o40-s27 phi65 seed=27/15": "a denominator vanishes: skipped",
    "twin-numeric-o40-s1 cpte5 seed=1/5": "m = 1, q = 1/9: both sides 0",
    "twin-numeric-o40-s1 cpte5 seed=1/8": "m = 5/3, q = -1/6: both sides 0",
    "twin-numeric-o40-s2 cpte5 seed=2/10": "m = 3, q = 1/5: both sides 0",
    "twin-numeric-o40-s3 cpte5 seed=3/1": "m = 1, q = 1/9: both sides 0",
    "twin-numeric-o40-s3 cpte5 seed=3/3": "m = 1, q = 1/9: both sides 0",
}


def line(run: Run, r) -> str:
    exponent = "-" if r.mismatch_exponent is None else r.mismatch_exponent
    return f"{run.name} {r.id} {r.assignment.provenance} {r.strategy} " \
        f"{r.status} {exponent} {r.reason or '-'}"


def gate(lines) -> list:
    """The faults of the lines against KNOWN."""
    faults, seen = [], set()
    for text in lines:
        run, rid, provenance, _, status, _ = text.split(" ", 5)
        key = f"{run} {rid} {provenance}"
        seen.add(key)
        expected = status == ("mismatch" if run.startswith("twin-")
                              else "equal")
        if (key in KNOWN) == expected:
            faults.append(("listed but reads as expected: " if expected
                           else "not as expected and not listed: ") + text)
    return faults + [f"listed but not in the corpus: {key}"
                     for key in KNOWN if key not in seen]


def main() -> int:
    lines = [line(run, r) for run in RUNS for r in run.reports()]
    Path(__file__).with_name("verdicts.txt").write_text(
        "".join(f"{text}\n" for text in lines))
    faults = gate(lines)
    print(*faults, f"{len(lines)} verdicts, {len(KNOWN)} listed, "
          f"{len(faults)} faults", sep="\n")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
