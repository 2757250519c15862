"""Numeric fault twins: the (1 + q^7) twin of every record, under the
numeric strategy, on 20 samples at seeds 1 to 3, must read mismatch.

    PYTHONPATH=src python tests/numeric_twins.py

`NUMERIC_TWIN_DIGEST` (tests/test_registry.py) pins every digit of the
twins of the first three seed-1 samples, so any change of a numeric value
moves it; this check reads the statuses alone, on every sample, so that
a new pin of that digest cannot hide a twin whose status changed.

It prints the twins that do not read mismatch and exits 1 when one of
them is not listed in VACUOUS, or when a listed draw reads mismatch, so
that the list stays exactly the twins that cannot see the fault. Its name
keeps it out of the pytest run.
"""

from __future__ import annotations

import sys

from qident.registry import (catalog, sample_params, verify_one,
                             with_injected_fault)

#: (seed, record, sample index) of the twins that read equal: at cpte5 a
#: numerator entry 1 + t m on q^-k vanishes, so both sides are 0 to the
#: digits a verdict reads (below 1e-73) and so is the fault's q^7 times
#: them (ROADMAP item 2)
VACUOUS = {
    (1, "cpte5", 5),    # m = 1, q = 1/9
    (1, "cpte5", 8),    # m = 5/3, q = -1/6
    (2, "cpte5", 10),   # m = 3, q = 1/5
    (3, "cpte5", 1),    # m = 1, q = 1/9
    (3, "cpte5", 3),    # m = 1, q = 1/9
}


def main() -> int:
    seen, faults = set(), []
    for seed in (1, 2, 3):
        for rec in catalog():
            twin = with_injected_fault(rec, 7)
            for i, a in enumerate(sample_params(rec.id, seed, 20, "numeric")):
                status = verify_one(twin, a).status
                if status == "mismatch":
                    continue
                key = (seed, rec.id, i)
                line = f"seed {seed} {rec.id} sample {i} " \
                    f"{a.formatted()}: {status}"
                print(line, "(vacuous)" if key in VACUOUS else "(FAULT)")
                seen.add(key)
                if key not in VACUOUS:
                    faults.append(line)
    for key in sorted(VACUOUS - seen):
        faults.append("listed twin reads mismatch: seed %d %s sample %d"
                      % key)
    for line in faults:
        print(line, file=sys.stderr)
    print(f"numeric twins: {len(seen)} not mismatch, {len(VACUOUS)} "
          f"listed, {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
