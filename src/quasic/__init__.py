"""Numerical toolkit for C-operators of quasi-Hermitian two-level systems.

Builds time-independent and time-dependent C-operators from biorthonormal
eigensystems, realizes the time-dependent ones as Lewis-Riesenfeld
invariants via time-ordered exponentials, derives positive-definite metric
operators and Dyson maps, and verifies the identities they satisfy.
"""

from .biortho import BiorthoPair, BiorthoSystem, biortho_system, completeness_residual
from .coperator import (
    COperator,
    MetricForm,
    MetricOperator,
    c_from_system,
    closed_form_metric,
    dyson_from_eigenvectors,
    involution_residual,
    metric_form_for_regime,
    metric_from_c,
    pt_commutation_residual,
    quasi_hermiticity_residual,
)
from .errors import (
    BranchFlipError,
    DefectiveMatrixError,
    NearlyDefectiveError,
    NotHermitianError,
    NotPositiveDefiniteError,
    OffGridError,
    QuasiCError,
    RegimeMismatchError,
)
from .evolution import (
    EvolvedState,
    PhaseTrace,
    aligned_eigenstate_trace,
    c_from_evolution,
    phase_alpha,
    phase_factor,
    tdse_integrate,
)
from .invariants import (
    InvariantForm,
    closed_form_invariant,
    coefficient_matrix,
    lr_residual,
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
    eigen_2x2,
    frobenius_norm,
    hermitian_eigenvalues_2x2,
    mat_exp,
    psd_sqrt,
)
from .model import (
    ConstantDrive,
    Drive,
    HamiltonianParams,
    PauliCoefficients,
    Regime,
    SineDrive,
    classify_regime,
    hamiltonian_at,
    hamiltonian_coefficients,
)
from .reporting import Check, VerificationReport

__version__ = "0.1.0"
