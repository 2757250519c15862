"""qident: exact verification of q-series identities.

The kernel (`series`, `qfunc`) provides truncated Laurent arithmetic over
exact rationals and the q-Pochhammer toolbox; `context` the two
strategies (`ExactCtx` run by `exact_run`, and `NumericCtx`); `bailey`
the summands and the well-poised transforms, written once over either
context; `pte` the equal-power-sum multiset tools and their series
bridge; `registry` the identity catalog and the verification driver;
`cli` the command-line front end.
"""

from .series import (
    DEFAULT_ORDER,
    LaurentSeries,
    Mismatch,
    QMonomial,
    Rational,
)
from .qfunc import (
    NumericTermGenerator,
    PochTower,
    TermGenerator,
    poch_infinite,
    sum_exact,
    sum_numeric,
    vwp_factor,
)
from .bailey import (
    AlphaSequence,
    cor_sides,
    unit_alpha,
)
from .pte import (
    affine,
    check_bridge,
    check_ideal_poly,
    check_pte,
    family6,
    family12,
    multiset,
    power_sums,
    pte_alpha_beta,
)
from .registry import (
    ParamAssignment,
    VerificationReport,
    catalog,
    lookup,
    sample_params,
    verify_one,
    verify_suite,
    with_injected_fault,
)

__version__ = "0.1.0"
