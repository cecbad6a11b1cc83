"""critline: numerics for critical-line zero proportions.

Zeta and Dirichlet L evaluation with analytic continuation, Hardy Z zero
scans, Gauss sums and characters, mollified second moments, the Levinson
constant and its kappa lower bound, and a derivative-free optimizer over
the shaping polynomials.
"""

from .arithmetic import chebyshev_psi
from .dirichlet import (
    CharacterTable,
    DirichletCharacter,
    character,
    character_table,
    enumerate_characters,
    epsilon_factor,
    gauss_sum,
    induced_primitive,
    l_function,
    xi_completed_l,
)
from .errors import (
    AccuracyError,
    ConditioningError,
    ConfigError,
    ConstraintError,
    CritlineError,
    DomainError,
    PoleError,
    SieveRangeError,
)
from .levinson import (
    LevinsonParams,
    PublishedTuple,
    ShiftedParams,
    c_constant_exact,
    c_constant_quadrature,
    discrepancy_note,
    exp_monomial_integral,
    kappa_lower_bound,
    published_tuples,
    shifted_c,
)
from .mollifier import (
    MollifierSpec,
    Polynomial,
    WuCoefficientSpec,
    b_polynomial,
    psi_mollifier,
    wu_coefficient_table,
)
from .moment import MomentReport, SmoothWeight, mollified_moment_numeric, smooth_weight, w_hat_zero
from .optimizer import OptimizationReport, SearchSpace, grid_scan_r, optimize_kappa
from .zeta import (
    AfeParams,
    ZeroScanReport,
    afe_pair,
    afe_x_factor,
    count_critical_zeros,
    hardy_z,
    hardy_z_line,
    hurwitz_zeta,
    xi_completed,
    zero_count_estimate,
    zeta,
    zeta_derivative,
    zeta_line,
)

__version__ = "0.1.0"
