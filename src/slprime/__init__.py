"""Sturm-Liouville spectra in impedance form, and why the primes cannot be one.

The package solves eigenvalue problems

    u' = -s(x) v,   v' = (lambda r(x) - q(x)) u

with piecewise-constant coefficients by exact transfer matrices, counts
eigenvalues through a Pruefer angle, composes the linear spectrum with the
map lambda -> (pi lambda / log lambda)^2, and searches potentials whose
composed spectrum approaches the squared primes.
"""

__version__ = "0.1.0"

from .coeff import (
    BoundaryCondition,
    CoefficientSet,
    DIRICHLET,
    Interval,
    PiecewiseConstant,
    SLProblem,
    constant,
    make_piecewise,
    merged_mesh,
    problem,
    refine_common_mesh,
    unit_problem,
    weyl_constant,
)
from .errors import (
    BadConfig,
    DegenerateModulus,
    DomainMismatch,
    EigenvalueNotFound,
    EpsilonOutOfRange,
    InsufficientData,
    LengthMismatch,
    LimitTooLarge,
    NoRoot,
    NonFiniteValue,
    NonMonotoneMesh,
    NotRightDefinite,
    OutOfDomain,
    SlprimeError,
)
from .shoot import AngleResult, State, integrate_system_scaled, prufer_angle
from .spectrum import (
    DEFAULT_OPTIONS,
    Eigenvalue,
    SolverOptions,
    Spectrum,
    WeylFit,
    compute_spectrum,
    eigenvalue,
    weyl_fit,
)
from .primes import PrimeTable, cesaro, nth_prime, pnt_asymptotic, sieve
from .nonlinear import (
    BRANCH_MIN,
    NonlinearProblem,
    NonlinearRow,
    invert_map,
    lambda_map,
    nonlinear_spectrum,
)
from .analysis import (
    GrowthReport,
    IncompatReport,
    OrderEstimate,
    growth_check,
    incompatibility_report,
    order_estimate,
    partial_sum_primes,
    partial_sum_spectrum,
)
from .inverse import SearchConfig, SearchResult, TargetRow, objective, search, target_mu
