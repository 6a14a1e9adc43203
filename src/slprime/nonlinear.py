"""Eigenvalue problems that are nonlinear in the spectral parameter.

The problem -y'' + q y = (pi lambda / log lambda)^2 y on [0, 1] with
Dirichlet conditions is an ordinary problem in mu = Lambda(lambda) with
Lambda(lambda) = (pi lambda / log lambda)^2.  Lambda has a single minimum
(pi e)^2 at lambda = e; the principal branch (lambda >= e) is the one on
which the spectrum is defined.  For q = 0 the n-th eigenvalue solves
lambda / log lambda = n, which has principal roots only for n >= 3 --
the spectrum starts near the primes and tracks n log n growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coeff import DIRICHLET, CoefficientSet, PiecewiseConstant, SLProblem
from .errors import DomainMismatch, NoRoot, OutOfDomain
from .spectrum import DEFAULT_OPTIONS, SolverOptions, Spectrum, compute_spectrum

__all__ = [
    "BRANCH_MIN",
    "NonlinearProblem",
    "NonlinearRow",
    "lambda_map",
    "invert_map",
    "nonlinear_spectrum",
]

_E = math.e
# minimum of Lambda over (1, inf): attained at lambda = e
BRANCH_MIN = (math.pi * _E) ** 2


@dataclass(frozen=True)
class NonlinearProblem:
    """q on [0, 1]; the linearized base problem has s = r = 1, Dirichlet ends."""

    q: PiecewiseConstant

    def __post_init__(self):
        if (self.q.a, self.q.b) != (0.0, 1.0):
            raise DomainMismatch(
                f"nonlinear problem is posed on [0, 1], q lives on [{self.q.a}, {self.q.b}]"
            )

    def base(self) -> SLProblem:
        q = self.q
        one = PiecewiseConstant(q.breakpoints, (1.0,) * len(q.values))
        return SLProblem(q.interval, CoefficientSet(s=one, q=q, r=one), DIRICHLET)


def lambda_map(lam: float) -> float:
    """Lambda(lambda) = (pi lambda / log lambda)^2 on lambda > 1."""
    if not (math.isfinite(lam) and lam > 1.0):
        raise OutOfDomain(f"lambda_map needs lambda > 1, got {lam!r}")
    return (math.pi * lam / math.log(lam)) ** 2


def _ratio(lam: float) -> float:
    return lam / math.log(lam)


def invert_map(mu: float) -> float:
    """Root of Lambda(lambda) = mu on the principal branch, to 1e-12 relative.

    The principal branch is lambda >= e, where Lambda increases.  Raises
    NoRoot when mu < (pi e)^2, the minimum of Lambda -- the reason
    eigenvalue indices with small mu are simply absent.
    """
    if not math.isfinite(mu) or mu < BRANCH_MIN:
        raise NoRoot(f"Lambda(lambda) >= (pi e)^2 = {BRANCH_MIN:.6f} everywhere, no root for mu = {mu}")
    t = math.sqrt(mu) / math.pi  # solve lambda / log(lambda) = t, t >= e
    lo, hi = _E, max(2.0 * _E, t)
    while _ratio(hi) < t:
        lo = hi
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or (hi - lo) <= 1e-12 * mid:
            break
        if _ratio(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class NonlinearRow:
    index: int
    mu: float
    lam: float | None  # None marks an absent index (mu below the branch point)


def nonlinear_spectrum(
    problem: NonlinearProblem, n_max: int, opts: SolverOptions = DEFAULT_OPTIONS
) -> tuple[NonlinearRow, ...]:
    """Rows (n, mu_n, lambda_n or absent) for n = 1..n_max, fewer if the base spectrum truncates."""
    return _composed_rows(compute_spectrum(problem.base(), n_max, opts))


def _composed_rows(base: Spectrum) -> tuple[NonlinearRow, ...]:
    """The base problem's eigenvalues mu_n, each mapped back through Lambda where it can be."""
    return tuple(
        NonlinearRow(ev.index, ev.value, invert_map(ev.value) if ev.value >= BRANCH_MIN else None)
        for ev in base.eigenvalues
    )
