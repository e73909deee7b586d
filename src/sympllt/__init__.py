"""Block LL^T factorization of SPD matrices with symplectic structure,
with numeric verification of the associated error and structure bounds."""

from .checks import (
    BoundCheckResult,
    check_condition_bounds,
    check_omega_factor_bounds,
    check_schur_perturbation,
    check_w1_error_bound,
    check_w2_backward,
    perturbation_experiment,
)
from .dense import (
    EPS,
    condition_number,
    frobenius_norm,
    matmul,
    reverse_permute,
    spectral_norm,
)
from .diagnostics import (
    CheckSuiteReport,
    DiagnosticsRow,
    diagnose,
    read_csv,
    run_checks,
    run_sweep,
    run_table,
    write_csv,
)
from .errors import (
    DimensionError,
    DomainError,
    FactorError,
    InvalidEntryError,
    ParseError,
    PivotNotPositiveError,
    SingularError,
    SympLLTError,
    UsageError,
)
from .factor import (
    cholesky_lower,
    forward_substitute,
    lower_triangular_inverse,
    reverse_cholesky_upper,
    spd_inverse,
    spd_solve,
    upper_substitute,
)
from .matio import read_matrix, write_matrix
from .symplectic import (
    BlockFactor,
    BlockPartition,
    algorithm_w1,
    algorithm_w2,
    distance_to_symplecticity,
    gamma,
    loss_of_symplecticity,
    omega,
    omega_blocks,
    structure_matrix,
)
from .testmat import (
    SplitMix64,
    diag_family,
    minij,
    pascal_symplectic,
    pdp_assemble,
    random_pdp,
    standard_normal_matrix,
    symmetric_perturbation,
    hyperbolic_s,
    hyperbolic_spd,
    hyperbolic_spd_inverse,
)

__version__ = "0.1.0"
