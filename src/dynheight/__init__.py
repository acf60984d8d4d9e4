"""Canonical heights, Green functions and specialization experiments for
polarized systems of several morphisms on projective space over Q and Q(t).
"""

from .canonical import (
    CanonicalHeightResult,
    GreenConfig,
    GreenProfile,
    OracleResult,
    canonical_height,
    canonical_height_oracle_detailed,
    canonical_local_height,
    forward_orbit,
    functional_eq_residual,
    green_local,
    green_profile,
    height_equality_report,
    metric_equality_report,
)
from .dynsys import (
    HomogPoly,
    Morphism,
    PolarizedSystem,
    commutes,
    parse_homog,
    validate_system,
)
from .errors import (
    BadParameterError,
    BudgetExceededError,
    DynHeightError,
    IndeterminatePointError,
    NonCommutingError,
    PointOnDivisorError,
    ValidationError,
)
from .exactnum import Place, log_abs, ord_p, prime_factors, support
from .family import (
    FFHeightResult,
    LocalSweep,
    ParamSystem,
    RatioSweep,
    Section,
    SweepRow,
    VariationSweep,
    base_height,
    boundary_local_height,
    ff_canonical_height,
    limit_ratio,
    local_variation_sweep,
    rows_to_csv,
    specialize,
    variation_sweep,
)
from .fibral import (
    ComponentWeights,
    ModelPoint,
    PermTypeMatrix,
    SyntheticModel,
    VerificationReport,
    build_synthetic,
    is_perm_type,
    model_from_json,
    model_to_json,
    random_synthetic,
    row_sum_bounds,
    solve_weights,
    spectral_radius,
    verify_intersection_formula,
)
from .polynomial import TPoly, parse_tpoly
from .projective import (
    ProjPoint,
    ff_height,
    local_height_hyperplane,
    normalize,
    parse_point,
    weil_height,
)

__version__ = "0.1.0"
