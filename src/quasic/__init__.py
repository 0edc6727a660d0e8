"""Numerical toolkit for C-operators of quasi-Hermitian two-level systems.

Builds time-independent and time-dependent C-operators from biorthonormal
eigensystems, realizes the time-dependent ones as Lewis-Riesenfeld
invariants via time-ordered exponentials, derives positive-definite metric
operators and Dyson maps, and verifies the identities they satisfy.

``import quasic`` exposes the names of the README's library example, the
constant drive and the package's exceptions.  Everything else is imported
from the module that defines it, for example ``quasic.linalg.psd_sqrt`` or
``quasic.reporting.VerificationReport``.
"""

from .biortho import biortho_system
from .coperator import MetricForm, c_from_system, closed_form_metric, metric_from_c
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
from .evolution import phase_alpha, phase_factor, tdse_integrate
from .invariants import InvariantForm, closed_form_invariant, time_ordered_propagate
from .model import ConstantDrive, HamiltonianParams, SineDrive

__version__ = "0.1.0"
