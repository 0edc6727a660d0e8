"""Numerical toolkit for C-operators of quasi-Hermitian two-level systems.

Builds time-independent and time-dependent C-operators from biorthonormal
eigensystems, realizes the time-dependent ones as Lewis-Riesenfeld
invariants via time-ordered exponentials, derives positive-definite metric
operators and Dyson maps, and verifies the algebraic constraint suites.
"""

from .biortho import BiorthoPair, BiorthoSystem, biortho_system, check_left_right_parity_relation, completeness_residual
from .coperator import (
    COperator,
    DysonConstruction,
    DysonMap,
    MetricForm,
    MetricOperator,
    c_from_hamiltonian,
    c_from_system,
    closed_form_metric,
    dyson_from_eigenvectors,
    dyson_map,
    involution_residual,
    metric_form_for_regime,
    metric_from_c,
    parity_pseudo_hermiticity_residual,
    pt_commutation_residual,
    quasi_hermiticity_residual,
    static_constraint_suite,
    td_constraint_suite,
)
from .errors import (
    BranchFlipError,
    DefectiveMatrixError,
    DriveRangeError,
    ExceptionalPointSingularError,
    InvalidSystemError,
    NearlyDefectiveError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotTemplateError,
    OffGridError,
    QuasiCError,
    RegimeMismatchError,
)
from .evolution import (
    EvolvedState,
    PhaseConvention,
    PhaseTrace,
    aligned_eigenstate_trace,
    c_from_evolution,
    phase_alpha,
    phase_factor,
    tdse_integrate,
)
from .invariants import (
    InvariantForm,
    InvariantState,
    TemplateCoefficients,
    closed_form_invariant,
    coefficient_matrix,
    invariant_coefficients,
    lr_residual,
    preset_initial_state,
    scaled_drive_integral,
    signature_normalize,
    time_ordered_propagate,
)
from .linalg import (
    DEFAULT_TOL,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    adjoint,
    commutator,
    det,
    eigen_2x2,
    frobenius_norm,
    hermitian_eigenvalues_2x2,
    is_hermitian,
    is_positive_definite,
    mat_exp,
    psd_sqrt,
    trace,
)
from .model import (
    AntilinearOp,
    ConstantDrive,
    Drive,
    HamiltonianParams,
    PauliCoefficients,
    Regime,
    SineDrive,
    TabulatedDrive,
    apply_antilinear,
    classify_regime,
    hamiltonian_at,
    hamiltonian_coefficients,
    parity,
    pauli_compose,
    pauli_decompose,
    pt_operator,
    pt_symmetry_residual,
)
from .reporting import Check, VerificationReport

__version__ = "0.1.0"
