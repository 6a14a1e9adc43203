"""Eigenvalue location by Brent's method on the terminal Prufer angle.

theta(b; lambda) is non-decreasing in lambda for right-definite problems,
so the n-th eigenvalue is the unique real root of

    f(lambda) = theta(b; lambda) - beta - (n - 1) pi.

Brackets start from the Weyl guess lambda ~ ((n - 1 + (beta - alpha) / pi)
pi / C)^2 plus the mean of q sqrt(s/r): the angle must advance by
beta - alpha + (n - 1) pi, and the guess is exact for constant
coefficients with Dirichlet or Neumann ends.  They expand
geometrically; expansion that reaches the lambda cap without attaining
the target angle raises EigenvalueNotFound, which for Atkinson-type
problems is the expected way a finite spectrum announces its end.
compute_spectrum carries brackets from index to index: every scan made
for index n - 1 gives f for index n exactly, one pi lower, so index n
starts from the tightest of those points whose computed f has the right
sign, and expands only where none does.

Inside the bracket a Brent-Dekker iteration (inverse quadratic and
secant steps, safeguarded by bisection; Brent, Algorithms for
Minimization without Derivatives, 1973) closes in on the root.  It
interpolates on the boundary function h = rho(b) sin f, a positive
multiple of u(b) cos beta + v(b) sin beta (Pryce, Numerical Solution of
Sturm-Liouville Problems, 1993), which stays smooth in lambda where
theta(b) steps past a localized mode; beyond |f| = pi, h continues
monotonically with the sign of f.  Sign tests, tolerance and residual
use f.  Where theta(b) is so steep that the bracket reaches its
tolerance before the angle does, secant steps on h, kept strictly
inside the bracket, continue to float exhaustion.  The bracket end
with the smaller |f| is the eigenvalue.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .coeff import CoefficientSet, SLProblem, _as_float, weyl_constant
from .errors import BadConfig, EigenvalueNotFound, InsufficientData, OutOfDomain
from .shoot import _scan_records, _solver_pieces, _theta_scan

__all__ = [
    "SolverOptions",
    "Eigenvalue",
    "Spectrum",
    "WeylFit",
    "eigenvalue",
    "compute_spectrum",
    "weyl_fit",
]

_PI = math.pi
_INF = math.inf
# bound once: every theta-scan goes through them
_sin, _copysign, _hypot, _isfinite = math.sin, math.copysign, math.hypot, math.isfinite


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and the bracket cap; the fields are a document's `solver` keys."""

    angle_tol: float = 1e-10
    lambda_tol_rel: float = 1e-12
    lambda_cap: float = 1e12
    lambda_tol_abs: ClassVar[float] = 1e-10  # a constant: no document or caller sets it

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise BadConfig(f"{f.name} must be a number, got {v!r}")
            v = _as_float(v)
            object.__setattr__(self, f.name, v)
            if not 0.0 < v < math.inf:
                raise BadConfig(f"{f.name} must be {'finite' if v > 0 else 'positive'}, got {v}")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class Eigenvalue:
    index: int
    value: float
    oscillation: int
    residual: float


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues 1..n of one problem, possibly truncated below the request."""

    problem_hash: str
    eigenvalues: tuple[Eigenvalue, ...]
    n_requested: int
    truncated: bool = False
    truncation_note: str | None = None

    def values(self) -> list[float]:
        return [ev.value for ev in self.eigenvalues]


# (problem, cap, result) of the last call that passed: compute_spectrum asks
# for every index of one problem in turn, and the check is not free
_last_scannable = (None, None, None)


def _scannable_pieces(problem: SLProblem, cap: float):
    """(_scan_records at cap, Weyl constant C, (1/C) sum h q sqrt(s/r) over s r > 0 or 0)."""
    global _last_scannable
    last, last_cap, result = _last_scannable
    if last is problem and last_cap == cap:
        return result
    pieces = _solver_pieces(problem, cap)
    weyl_c = weyl_constant(problem.coeffs)
    shift = 0.0
    if weyl_c > 0.0:
        shift = sum(h * q * math.sqrt(s / r) for h, s, q, r in zip(*pieces) if s * r > 0.0) / weyl_c
        if not math.isfinite(shift):
            shift = 0.0
    result = (_scan_records(*pieces), weyl_c, shift)
    _last_scannable = (problem, cap, result)
    return result


def _point(lam: float, winding: int, frac: float, rho: float, beta: float, n: int):
    """One theta-scan read for the n-th eigenvalue: (lambda, f, h, winding, frac, rho).

    f = theta(b) - beta - (n - 1) pi, with (winding - n + 1) pi exact near
    the root so that f keeps the precision of frac.  For |f| < pi,
    h = rho sin f, with rho = |(u, v)| of the scanned terminal state; that
    is (-1)^(n-1) (u(b) cos beta + v(b) sin beta) times the positive
    factors the scan drops, so h is smooth in lambda even where theta(b)
    steps.  Beyond, h = +-rho (1 + |f| - pi), monotone in f.  h always has
    the sign of f: where rho sin f underflows or overflows, h = f.
    """
    f = (winding - n + 1) * _PI + (frac - beta)
    if -_PI < f < _PI:
        h = rho * _sin(f)
    else:
        h = _copysign(rho * (1.0 + abs(f) - _PI), f)
    if not 0.0 < abs(h) < _INF:
        h = f
    return lam, f, h, winding, frac, rho


def eigenvalue(
    problem: SLProblem, n: int, opts: SolverOptions = DEFAULT_OPTIONS, _carry: list | None = None
) -> Eigenvalue:
    """n-th eigenvalue (n >= 1) by bracket expansion + Brent's method on theta(b).

    Stops once the bracket is within max(lambda_tol_abs, lambda_tol_rel
    |lambda|) and |theta(b) - target| <= angle_tol at b, and returns the
    bracket end with the smaller |theta(b) - target|; value, residual and
    oscillation all come from that one theta-scan.  Raises OutOfDomain
    for a problem whose theta-scan could overflow below lambda_cap.

    _carry is _ascending's: the scan points of index n - 1 on the same
    problem and options, read here for index n, and refilled with this
    index's points.  A call without it starts cold.
    """
    if n < 1:
        raise OutOfDomain(f"eigenvalue index must be >= 1, got {n}")
    records, weyl_c, shift = _scannable_pieces(problem, opts.lambda_cap)
    alpha, beta = problem.bc.alpha, problem.bc.beta
    target = beta + (n - 1) * _PI
    scanned = []

    def scan(lam: float):
        winding, frac, u, v = _theta_scan(records, alpha, lam)
        point = _point(lam, winding, frac, _hypot(u, v), beta, n)
        if not _isfinite(point[1]):
            raise OutOfDomain(
                f"theta(b) at lambda {lam!r} is not finite: the terminal state overflowed "
                "the theta-scan on these coefficients"
            )
        scanned.append(point)
        return point

    # a point of index n - 1 reads one pi lower here, exactly (_point's f
    # from its winding and frac); only the signs so read are trusted, not
    # monotonicity between points
    lo = hi = None
    for p in _carry or ():
        if (p[3] - n + 1) * _PI + (p[4] - beta) < 0.0:
            if lo is None or p[0] > lo[0]:
                lo = p
        elif hi is None or p[0] < hi[0]:
            hi = p
    if lo is not None:
        lo = _point(lo[0], *lo[3:], beta, n)
    if hi is not None:
        hi = _point(hi[0], *hi[3:], beta, n) if lo is None or hi[0] > lo[0] else None
    starts = [p for p in (lo, hi) if p is not None]

    cap = opts.lambda_cap
    if weyl_c == 0.0:
        guess = min(cap, float(n * n))
    else:
        # theta advances by beta - alpha + (n - 1) pi; for Dirichlet ends the
        # factor is exactly n, for alpha > beta it is negative at n = 1.
        # x^2 overflows once |x| passes ~1.3e154: clamp it
        x = (n - 1 + (beta - alpha) / _PI) * _PI / weyl_c
        guess = max(-cap, min(cap, (x**2 if abs(x) < 1e154 else math.inf) + shift))

    # expand away from the guess (or the carried end it lies beyond),
    # doubling the step, until the target angle is bracketed: upward while
    # theta(b) < target, downward otherwise, never past a carried end
    if lo is not None and guess <= lo[0]:
        near = lo
    elif hi is not None and guess >= hi[0]:
        near = hi
    else:
        near = scan(guess)
    up = near[1] < 0.0
    end = hi if up else lo
    origin = near[0]
    step = max(1.0, 0.05 * abs(origin))
    while True:
        x = origin + step if up else origin - step
        if end is not None and (x >= end[0] if up else x <= end[0]):
            far = end
            break
        far = scan(min(x, cap) if up else max(x, -cap))
        if (far[1] >= 0.0) == up:
            break
        # a clamped point sits at the cap on its own side of the guess
        if abs(far[0]) >= cap:
            raise EigenvalueNotFound(
                f"theta(b) stays below the target angle {target:.6g} up to the "
                f"lambda cap {cap:g}; no eigenvalue n = {n}"
                if up
                else f"no lambda above -{cap:g} brings theta(b) below the target angle "
                f"{target:.6g} for n = {n}",
                index=n,
                cap=cap,
            )
        near = far
        step *= 2.0
    lo, hi = (near, far) if up else (far, near)

    # Brent-Dekker on f = theta(b) - target, f(lo) < 0 <= f(hi), interpolating
    # on h.  b is the best point so far (smallest |h|), c the other end of the
    # bracket (f = 0 counts as above), a the previous b; d is the last step
    # and e the one before.
    b, c = (lo, hi) if abs(lo[2]) < abs(hi[2]) else (hi, lo)
    a = c
    d = e = c[0] - b[0]
    tol_abs, tol_rel, angle_tol = opts.lambda_tol_abs, opts.lambda_tol_rel, opts.angle_tol
    for _ in range(300):
        tol = tol_rel * abs(b[0])
        if tol < tol_abs:
            tol = tol_abs
        m = 0.5 * (c[0] - b[0])
        if abs(c[0] - b[0]) <= tol:
            if abs(b[1]) <= angle_tol:
                break
            # the bracket is at tolerance but theta(b) is too steep for the
            # angle to be: secant steps on h, kept strictly inside the
            # bracket, until the floats run out
            x = b[0] - b[2] * (c[0] - b[0]) / (c[2] - b[2])
            if not min(b[0], c[0]) < x < max(b[0], c[0]):
                x = b[0] + m
                if x == b[0] or x == c[0]:
                    break
        else:
            tol1 = 0.5 * tol
            if b[2] == 0.0:
                # b is a root; the interpolation's sign tests cannot orient a
                # zero step, so close the bracket in by the minimum step
                d = 0.0
            elif abs(e) >= tol1 and abs(a[2]) > abs(b[2]):
                # secant through a, b, or inverse quadratic through a, b, c
                s = b[2] / a[2]
                if a[0] == c[0]:
                    p = 2.0 * m * s
                    q = 1.0 - s
                else:
                    qa = a[2] / c[2]
                    qb = b[2] / c[2]
                    p = s * (2.0 * m * qa * (qa - qb) - (b[0] - a[0]) * (qb - 1.0))
                    q = (qa - 1.0) * (qb - 1.0) * (s - 1.0)
                if p > 0.0:
                    q = -q
                else:
                    p = -p
                # accept the interpolated step only while it stays well inside
                # the bracket and shrinks faster than bisection would
                if 2.0 * p < 3.0 * m * q - abs(tol1 * q) and 2.0 * p < abs(e * q):
                    e, d = d, p / q
                else:
                    d = e = m
            else:
                d = e = m
            x = b[0] + (d if abs(d) > tol1 else math.copysign(tol1, m))
        a, b = b, scan(x)
        if (b[1] >= 0.0) == (c[1] >= 0.0):
            c = a
            d = e = b[0] - a[0]
        if abs(c[2]) < abs(b[2]):
            a, b, c = b, c, b

    if _carry is not None:
        # a point below the bracket cannot bound index n + 1 more tightly than it
        top = max(b[0], c[0])
        _carry[:] = [p for p in starts + scanned if p[0] >= top]
    lam_hat, f_hat, _, wind_hat, frac_hat, _ = b if abs(b[1]) <= abs(c[1]) else c
    residual = abs(f_hat)
    # a terminal crossing counted in the winding is the boundary zero at b,
    # not an interior one; frac ~ 0 is the signature of that configuration
    kappa = min(1e-8, 0.5 * beta)
    oscillation = wind_hat - 1 if frac_hat < kappa else wind_hat
    return Eigenvalue(index=n, value=lam_hat, oscillation=oscillation, residual=residual)


def _ascending(problem: SLProblem, opts: SolverOptions = DEFAULT_OPTIONS):
    """Eigenvalues 1, 2, 3, ... in turn, each bracket started from the scans of the index before.

    Each goes through one eigenvalue call; EigenvalueNotFound ends the walk.
    """
    carry: list = []
    for n in itertools.count(1):
        yield eigenvalue(problem, n, opts, carry)


def compute_spectrum(
    problem: SLProblem, n_max: int, opts: SolverOptions = DEFAULT_OPTIONS
) -> Spectrum:
    """Eigenvalues 1..n_max; stops early (truncated=True) once an index has none."""
    if n_max < 1:
        raise OutOfDomain(f"n_max must be >= 1, got {n_max}")
    found: list[Eigenvalue] = []
    note = None
    try:
        for ev in itertools.islice(_ascending(problem, opts), n_max):
            found.append(ev)
    except EigenvalueNotFound as err:
        note = f"TRUNCATED at n = {len(found) + 1}: {err}"
    return Spectrum(
        problem_hash=problem.content_hash(),
        eigenvalues=tuple(found),
        n_requested=n_max,
        truncated=note is not None,
        truncation_note=note,
    )


@dataclass(frozen=True)
class WeylFit:
    """Median growth constant of lambda_n / n^2 against the reference pi^2/C^2."""

    fitted: float
    reference: float
    deviation: float
    per_n: tuple[tuple[int, float, float], ...] = field(repr=False)


def weyl_fit(spectrum: Spectrum, coeffs: CoefficientSet) -> WeylFit:
    """Fit lambda_n ~ K n^2 (median over the top half of indices) and compare to pi^2/C^2."""
    evs = spectrum.eigenvalues
    if len(evs) < 10:
        raise InsufficientData(
            f"weyl_fit needs at least 10 eigenvalues, got {len(evs)}"
        )
    c = weyl_constant(coeffs)
    reference = (_PI / c) ** 2 if c > 0.0 else math.inf
    ratios = [(ev.index, ev.value / ev.index**2) for ev in evs]
    half = [val for idx, val in ratios if idx > len(evs) // 2]
    half.sort()
    mid = len(half) // 2
    fitted = half[mid] if len(half) % 2 == 1 else 0.5 * (half[mid - 1] + half[mid])
    deviation = abs(fitted - reference) / reference if math.isfinite(reference) else math.nan
    per_n = tuple(
        (idx, val, abs(val - reference) / reference if math.isfinite(reference) else math.nan)
        for idx, val in ratios
    )
    return WeylFit(fitted=fitted, reference=reference, deviation=deviation, per_n=per_n)
