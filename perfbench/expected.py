"""The hand-written expected-verdict table; nothing here is computed by
qident.

- A clean job (the sampled assignment as drawn) is expected `equal`.
- A fault twin at j (the right side multiplied by 1 + q^j) is expected
  `mismatch`. Under the exact strategy the reported exponent must be
  j + v, where v is the exponent at which the record's right side
  starts. The numeric strategy reports no exponent, so only the status
  is checked there.
- KNOWN_DEFECTS lists the draws on which the program is known to fall
  short of that, each with the condition that picks them out and the
  verdicts they give instead. They are reported as they are, never
  filtered out of a workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

#: v for every catalog record: each right side starts at q^0, except
#: rrs6-5's, which starts at q^1 (a fault at j = 9 shows at 10)
RIGHT_SIDE_START = dict.fromkeys((
    "qgauss", "qbinom", "bailey-transform", "thm-wp-transform",
    "cor-central", "alt-alpha", "alt-sum", "ones-alpha", "ones-sum",
    "u-power", "phi54", "phi32", "poly2", "poly2q", "phi65", "ppte-m",
    "cpte3", "cpte5", "bibasic-ab", "bibasic-ab2", "rrs3eq1", "rrs3",
    "rrs3n", "rrs6", "rrs6-2", "rrs6-3", "rrs6-4", "rrs6-5", "gg1a",
    "gg1b", "rogers1", "rogers2", "qbailey", "gs1", "gs2", "slater69",
    "slater121", "s69", "s121", "r1", "r2a", "r2b", "ft1", "ft2", "ft3",
    "bb-z0", "bb-yinf"), 0)
RIGHT_SIDE_START["rrs6-5"] = 1


def hits_inverse_power(e: Fraction, q: Fraction, least: int) -> bool:
    """True if e * q^k == 1 for some integer k >= least (with |q| < 1):
    the factor 1 - e q^k of a Pochhammer symbol (e; q) then vanishes."""
    w = e * q ** least
    while abs(w) >= 1:
        if w == 1:
            return True
        w *= q
    return False


#: cpte5's twelve numerator parameters are 1 + t m for these t
CPTE5_NUMERATOR_T = (170, 126, 209, 87, 234, 62, 275, 21, 288, 8, 299, -3)


@dataclass(frozen=True)
class Defect:
    record: str
    strategy: str
    clean: str      # the clean job's verdict on an affected draw
    twin: str       # its fault twin's verdict
    why: str
    applies: Callable[[dict], bool]


KNOWN_DEFECTS = (
    Defect("cpte5", "numeric", "equal", "equal",
           "a numerator entry 1 + t m sits on q^-k (k >= 1), so both "
           "sides vanish and the fault twin escapes; the sampler screens "
           "only the denominator list",
           lambda p: any(hits_inverse_power(1 + t * p["m"], p["q"], 1)
                         for t in CPTE5_NUMERATOR_T)),
    Defect("phi65", "numeric", "skipped", "skipped",
           "a denominator symbol (xy, xz; q) or (abq; q) vanishes, which "
           "the sampler does not screen, so both jobs are skipped",
           lambda p: hits_inverse_power(p["x"] * p["y"], p["q"], 0)
           or hits_inverse_power(p["x"] * p["z"], p["q"], 0)
           or hits_inverse_power(p["a"] * p["b"], p["q"], 1)),
)


def known_defect(record_id: str, strategy: str,
                 values: dict) -> Optional[Defect]:
    for d in KNOWN_DEFECTS:
        if d.record == record_id and d.strategy == strategy and \
                d.applies(values):
            return d
    return None


def expect(record_id: str, strategy: str, values: dict,
           fault_j: Optional[int]) -> Tuple[str, Optional[Fraction]]:
    """(status, mismatch exponent or None) expected of one job."""
    defect = known_defect(record_id, strategy, values)
    if fault_j is None:
        return (defect.clean if defect else "equal"), None
    if defect:
        return defect.twin, None
    if strategy == "exact":
        return "mismatch", Fraction(fault_j + RIGHT_SIDE_START[record_id])
    return "mismatch", None
