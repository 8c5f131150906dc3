"""Solvers and verification tools for tensor eigenvalue complementarity problems.

Given symmetric order-m tensors A and B (B positive definite), a Pareto
eigenpair is a scalar lambda and nonzero vector x with

    x >= 0,    (lambda B - A) x^{m-1} >= 0,    x . (lambda B - A) x^{m-1} = 0.

The package provides dense tensor contraction kernels, the Rayleigh and
logarithmic merit functions with exact derivatives, projections onto the
sphere-orthant set, five iterative solvers (spg1, spg2, spp, spa, sspa),
residual-based certification, a closed-form spectrum oracle for diagonal
tensors, and a set of named benchmark problems with a CLI driver.
"""

from .merit import (
    MeritDomainError,
    MeritEval,
    MeritKind,
    SingularDenominatorError,
    log_value,
    rayleigh_gradient,
    rayleigh_hessian,
    rayleigh_value,
)
from .problems import ProblemSpec, build, parse_problem, random_start, random_symmetric
from .projection import ScalingError, b_normalize, project_orthant, project_sphere_plus
from .solvers import (
    SOLVERS,
    EigenPair,
    IterationRecord,
    SolverConfig,
    SolverReport,
    Status,
    min_eig_sym,
    spa,
    spg1,
    spg2,
    spp,
    sspa,
)
from .tensor import (
    DenseSymmetricTensor,
    HIdentity,
    TensorOperator,
    ZIdentity,
    diagonal_tensor,
    symmetrize,
)
from .verify import (
    ResidualTriple,
    diagonal_pareto_spectrum,
    is_pareto_eigenpair,
    residual,
)

__version__ = "0.1.0"
