"""Configurable-precision numerics for torus-knot quantum invariants.

Evaluates the colored Jones polynomial at e^(xi/N) by two independent routes,
assembles its large-N asymptotic expansions, and cross-checks the expansion
data against character-variety combinatorics, Chern-Simons bundle elements,
and twisted Reidemeister torsion closed forms.
"""

from .errors import (
    CancellationLimit,
    CaseUndefined,
    CoordinateMismatch,
    DegenerateDenominator,
    DegenerateDiscriminant,
    ExtrapolationUnstable,
    InvalidK,
    InvalidXi,
    NonDecayingIntegrand,
    NonIntegerShift,
    ParityViolation,
    PoleHit,
    ToleranceNotReached,
    TorusAsymError,
)
from .precision import DEFAULT_PRECISION, Precision
from .contour import LineContour, integrate_line, laurent_coefficients
from .torus import (
    TorusKnot,
    alexander,
    pole_indices,
    tau,
    tau_even_derivatives,
    ztau_even_derivatives,
)
from .charvar import (
    RepIndex,
    alpha_beta_from_k,
    enumerate_components,
    k_pair_from_alpha_beta,
    longitude_log_lift,
    reducible_traces,
    rep_index,
    valid_k_values,
)
from .jones import (
    EvalPoint,
    jones_integral,
    jones_sum,
    jones_sum_oracle,
    unknot_bracket,
)
from .asymptotics import (
    A,
    CASE_NOT_POLE_NONPOS_RE,
    CASE_NOT_POLE_POS_RE,
    CASE_POLE,
    CASE_ROOT_OF_UNITY,
    ExpansionReport,
    ExpansionSpec,
    S,
    T,
    classify_region,
    expand,
    expand_root_of_unity,
    residue_term,
    saddle_exponent,
    torsion_weight,
    torsion_weight_sqrt_signed,
)
from .cstorsion import (
    BundleElement,
    CSValue,
    TorsionMagnitude,
    cs_closed_form,
    cs_component_form,
    cs_extract,
    equivalent,
    g_act,
    g_word,
    torsion_lambda,
    torsion_mu,
    transported_component_form,
    y_lift_shift,
)
from .fig8 import (
    MeridianParam,
    SpeculationRow,
    SpeculationTable,
    a_polynomial_residual,
    alexander_fig8,
    dell_dm,
    dv_du_fig8,
    jones_fig8,
    longitude_eigenvalue,
    meridian_param,
    speculation_residual,
    torsion_lambda_fig8,
    torsion_mu_fig8,
)

__version__ = "0.1.0"
