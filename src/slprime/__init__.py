"""Sturm-Liouville spectra in impedance form, and why the primes cannot be one.

The package solves eigenvalue problems

    u' = -s(x) v,   v' = (lambda r(x) - q(x)) u

with piecewise-constant coefficients by exact transfer matrices, counts
eigenvalues through a Pruefer angle, composes the linear spectrum with the
map lambda -> (pi lambda / log lambda)^2, and searches potentials whose
composed spectrum approaches the squared primes.

The public names are lazy: ``import slprime`` loads no submodule, and
``slprime.compute_spectrum`` imports ``slprime.spectrum`` on first use.
Each access reads the name from its module again, so a binding patched
there (a test's monkeypatch, a tracer's wrapper) is what ``slprime``
returns too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it; the
# submodules themselves are public names too
_EXPORTS = {
    "coeff": (
        "BoundaryCondition", "CoefficientSet", "DIRICHLET", "Interval", "PiecewiseConstant",
        "SLProblem", "constant", "merged_mesh", "problem", "refine_common_mesh",
        "unit_problem", "weyl_constant",
    ),
    "errors": (
        "BadConfig", "DomainMismatch", "EigenvalueNotFound", "EpsilonOutOfRange",
        "InsufficientData", "LengthMismatch", "LimitTooLarge", "NoRoot", "NonFiniteValue",
        "NonMonotoneMesh", "NotRightDefinite", "OutOfDomain", "SlprimeError",
    ),
    "shoot": ("AngleResult", "boundary_state", "integrate_system_scaled", "prufer_angle"),
    "spectrum": (
        "DEFAULT_OPTIONS", "Eigenvalue", "SolverOptions", "Spectrum", "compute_spectrum",
        "eigenvalue",
    ),
    "primes": (
        "PrimeTable", "cesaro", "nth_prime", "nth_primes", "pnt_asymptotic", "prime_bounds",
        "sieve",
    ),
    "nonlinear": (
        "BRANCH_MIN", "NonlinearProblem", "NonlinearRow", "invert_map", "lambda_map",
        "nonlinear_spectrum",
    ),
    "analysis": (
        "GrowthReport", "IncompatReport", "OrderEstimate", "growth_check",
        "incompatibility_report", "order_estimate", "partial_sum_primes", "partial_sum_spectrum",
        "series_verdict",
    ),
    "inverse": (
        "SearchConfig", "SearchResult", "TargetRow", "objective", "search", "target_mu",
        "worker_count",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_OWNER, *_EXPORTS])


def __getattr__(name):
    if name in _OWNER:
        return getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
