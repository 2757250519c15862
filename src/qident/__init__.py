"""qident: exact verification of q-series identities.

The kernel (`series`, `qfunc`) provides truncated Laurent arithmetic over
exact rationals and the q-Pochhammer/hypergeometric toolbox; `bailey`
implements the well-poised pair machinery; `pte` the equal-power-sum
multiset tools and their series bridge; `registry` the identity catalog
and the verification driver; `cli` the command-line front end.
"""

from .series import (
    DEFAULT_ORDER,
    LaurentSeries,
    Mismatch,
    QMonomial,
    Rational,
    rescale_exponents,
    series_add,
    series_compare,
    series_invert,
    series_mul,
)
from .qfunc import (
    NumericTermGenerator,
    PochTower,
    TermGenerator,
    poch_finite,
    poch_infinite,
    sum_exact,
    sum_numeric,
    vwp_factor,
)
from .bailey import (
    AlphaSequence,
    ChainParams,
    WPPair,
    cor_sides,
    partial_sums,
    phi_rs,
    subbarao_verma_sides,
    telescope_alpha,
    thm_transform_sides,
    unit_alpha,
    wp_beta,
    wp_chain_step,
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
