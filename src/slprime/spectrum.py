"""Eigenvalue location by Chandrupatla's method on the terminal Prufer angle.

theta(b; lambda) is non-decreasing in lambda for right-definite problems,
so the n-th eigenvalue is the unique real root of

    f(lambda) = theta(b; lambda) - beta - (n - 1) pi.

Brackets start from the Weyl guess lambda ~ ((n - 1 + (beta - alpha) / pi)
pi / C)^2 plus the mean of q sqrt(s/r): the angle must advance by
beta - alpha + (n - 1) pi, and the guess is exact for constant
coefficients with Dirichlet or Neumann ends.  They expand
geometrically, after one probe half a tolerance away where the start
already meets the angle test; expansion that reaches the lambda cap
without attaining the target angle raises EigenvalueNotFound, which for
Atkinson-type problems is the expected way a finite spectrum announces
its end.
compute_spectrum walks the indices in turn, and the walk carries its own
state: the scan records, built once, and every scan made for index
n - 1, which gives f for index n exactly, one pi lower.  Index n starts
from the tightest of those points whose computed f has the right sign,
and expands only where none does.  Nothing is kept between calls.

Inside the bracket, one loop of Chandrupatla's method (Adv. Eng.
Software 28, 1997) closes in on the root: inverse quadratic
interpolation through the newest point, the other end of the bracket
and the point dropped last where that is safe, the secant on the first
step, bisection otherwise.  It interpolates on the boundary function
h = rho(b) sin f, a positive multiple of u(b) cos beta + v(b) sin beta
(Pryce, Numerical Solution of Sturm-Liouville Problems, 1993), which
stays smooth in lambda where theta(b) steps past a localized mode;
beyond |f| = pi, h continues monotonically with the sign of f.  Sign
tests, tolerance and residual use f.  Every scan that lies between two
scanned points (a guess between the carried ends, an expansion step
short of a carried end, each step inside the bracket) is given their
windings when they differ by at most one: its winding is then one of
the two, read from the sign of u(b), and the scan counts no zeros
(shoot._theta_scan).  A scan with no scanned point on one side, or
between windings two or more apart, counts.  Where theta(b) is so steep
that the bracket reaches its tolerance before the angle does, the same
loop steps anywhere strictly inside the bracket until the floats run out.
The bracket end with the smaller |f| is the eigenvalue, and |f| there is
its residual: at most angle_tol, unless the two ends are adjacent floats.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields
from typing import ClassVar

from .coeff import CoefficientSet, SLProblem, _as_float, weyl_constant
from .errors import BadConfig, EigenvalueNotFound, InsufficientData, OutOfDomain
from .shoot import _scan_records, _solver_pieces, _theta_scan, boundary_state

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
_sin, _copysign, _hypot = math.sin, math.copysign, math.hypot


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
                raise BadConfig(f"{f.name} must be {'positive' if v <= 0 else 'finite'}, got {v}")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, slots=True)
class Eigenvalue:
    index: int
    value: float
    residual: float


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues 1..n of one problem, possibly truncated below the request."""

    problem_hash: str
    eigenvalues: tuple[Eigenvalue, ...]
    n_requested: int
    truncation_note: str | None = None  # why the walk ended below n_requested

    @property
    def truncated(self) -> bool:
        return self.truncation_note is not None

    def values(self) -> list[float]:
        return [ev.value for ev in self.eigenvalues]


def _scannable_pieces(problem: SLProblem, cap: float):
    """A walk's fixed inputs: (records, state, C, shift).

    records are _scan_records at cap and state the boundary state (u, v)
    at a, the theta-scan's inputs; C is the Weyl constant and shift
    (1/C) sum h q sqrt(s/r) over s r > 0, or 0.
    """
    pieces = _solver_pieces(problem, cap)
    weyl_c = weyl_constant(problem.coeffs)
    shift = 0.0
    if weyl_c > 0.0:
        shift = sum(h * q * math.sqrt(s / r) for h, s, q, r in zip(*pieces) if s * r > 0.0) / weyl_c
        if not math.isfinite(shift):
            shift = 0.0
    return _scan_records(*pieces, cap), boundary_state(problem.bc.alpha), weyl_c, shift


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
    problem: SLProblem, n: int, opts: SolverOptions = DEFAULT_OPTIONS, _carry: tuple | None = None
) -> Eigenvalue:
    """n-th eigenvalue (n >= 1) by bracket expansion + Chandrupatla's method on theta(b).

    Stops once the bracket is within max(lambda_tol_abs, lambda_tol_rel
    |lambda|) and |theta(b) - target| <= angle_tol at one of its ends, or
    once no float lies strictly inside it (or after 300 steps), and
    returns the bracket end with the smaller |theta(b) - target| as value
    and residual: that is at most angle_tol unless the ends are adjacent
    floats or the steps ran out.  Raises OutOfDomain for a problem whose
    theta-scan could overflow below lambda_cap, or does.

    _carry is _ascending's walk state on the same problem and options:
    (_scannable_pieces at lambda_cap, the scan points of index n - 1),
    whose points are read here for index n and refilled with this
    index's.  A call without it builds its own pieces and starts cold.
    """
    if n < 1:
        raise OutOfDomain(f"eigenvalue index must be >= 1, got {n}")
    pieces, carried = _carry or (_scannable_pieces(problem, opts.lambda_cap), ())
    records, state, weyl_c, shift = pieces
    alpha, beta = problem.bc.alpha, problem.bc.beta
    target = beta + (n - 1) * _PI
    scanned = []

    def scan(lam: float, lo: tuple | None = None, hi: tuple | None = None):
        # lo and hi: scanned points on either side of lam, whose windings
        # bound the one at lam (_theta_scan)
        within = None
        if lo is not None and hi is not None:
            w_lo, w_hi = (lo[3], hi[3]) if lo[3] <= hi[3] else (hi[3], lo[3])
            if w_hi - w_lo <= 1:
                within = (w_lo, w_hi)
        winding, frac, u, v = _theta_scan(records, state, lam, within)
        # _point, inlined: one call less per scan
        rho = _hypot(u, v)
        f = (winding - n + 1) * _PI + (frac - beta)
        if -_PI < f < _PI:
            h = rho * _sin(f)
        else:
            h = _copysign(rho * (1.0 + abs(f) - _PI), f)
        if not 0.0 < abs(h) < _INF:
            h = f
        point = (lam, f, h, winding, frac, rho)
        scanned.append(point)
        return point

    # a point of index n - 1 reads one pi lower here, exactly (_point's f
    # from its winding and frac); only the signs so read are trusted, not
    # monotonicity between points
    lo = hi = None
    for p in carried:
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
        near = scan(guess, lo, hi)
    up = near[1] < 0.0
    end = hi if up else lo
    origin = near[0]
    wide = max(1.0, 0.05 * abs(origin))
    step = wide
    if -opts.angle_tol <= near[1] <= opts.angle_tol:
        # the start already meets the angle test: a probe half a tolerance
        # away brackets the root whenever it is that close, and one that
        # does not costs a scan, not a bracket closed from wide onto tol
        step = 0.5 * max(opts.lambda_tol_abs, opts.lambda_tol_rel * abs(origin))
    while True:
        x = origin + step if up else origin - step
        if end is not None and (x >= end[0] if up else x <= end[0]):
            far = end
            break
        far = scan(min(x, cap) if up else max(x, -cap), near, end)
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
        step = max(wide, 2.0 * step)  # back to wide after the probe, then doubling
    lo, hi = (near, far) if up else (far, near)

    # Chandrupatla on f = theta(b) - target, interpolating on h: a is the
    # newest point, b the other end of the bracket, c the one dropped last.
    # The next point a + t (b - a) stays tol/2 from either end while the
    # bracket is wider than tol, and strictly inside it after that.
    a, b = (lo, hi) if abs(lo[2]) < abs(hi[2]) else (hi, lo)
    t = a[2] / (a[2] - b[2])
    tol_abs, tol_rel, angle_tol = opts.lambda_tol_abs, opts.lambda_tol_rel, opts.angle_tol
    for _ in range(300):
        xa, xb = a[0], b[0]
        w = xb - xa
        tol = tol_rel * xa if xa > 0.0 else -tol_rel * xa
        if tol < tol_abs:
            tol = tol_abs
        tlim = 0.5 * tol / (w if w > 0.0 else -w)
        if tlim >= 0.5:
            if -angle_tol <= a[1] <= angle_tol or -angle_tol <= b[1] <= angle_tol:
                break
        elif t < tlim:
            t = tlim
        elif t > 1.0 - tlim:
            t = 1.0 - tlim
        x = xa + t * w
        if not (x - xa) * (x - xb) < 0.0:
            x = xa + 0.5 * w
            if not (x - xa) * (x - xb) < 0.0:
                break
        p = scan(x, a, b)
        if (p[1] >= 0.0) == (a[1] >= 0.0):
            a, c = p, a
        else:
            a, b, c = p, a, b
        ha, hb, hc = a[2], b[2], c[2]
        xi = (a[0] - b[0]) / (c[0] - b[0])
        phi = (ha - hb) / (hc - hb)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = ha / (hb - ha) * hc / (hb - hc) + (
                (c[0] - a[0]) / (b[0] - a[0]) * ha / (hc - ha) * hb / (hc - hb)
            )
        else:
            t = 0.5

    if _carry is not None:
        # a point below the bracket cannot bound index n + 1 more tightly than it
        top = max(a[0], b[0])
        carried[:] = [p for p in starts + scanned if p[0] >= top]
    best = a if abs(a[1]) <= abs(b[1]) else b
    return Eigenvalue(index=n, value=best[0], residual=abs(best[1]))


def _ascending(problem: SLProblem, opts: SolverOptions = DEFAULT_OPTIONS):
    """Eigenvalues 1, 2, 3, ... in turn, each bracket started from the scans of the index before.

    The scan records are built once here.  Each index goes through one
    eigenvalue call (looked up on the module, so a wrapper sees it);
    EigenvalueNotFound ends the walk.
    """
    walk = (_scannable_pieces(problem, opts.lambda_cap), [])
    for n in itertools.count(1):
        yield eigenvalue(problem, n, opts, walk)


def compute_spectrum(
    problem: SLProblem, n_max: int, opts: SolverOptions = DEFAULT_OPTIONS
) -> Spectrum:
    """Eigenvalues 1..n_max; stops early, with a truncation note, once an index has none."""
    if n_max < 1:
        raise OutOfDomain(f"n_max must be >= 1, got {n_max}")
    found: list[Eigenvalue] = []
    note = None
    try:
        for ev in itertools.islice(_ascending(problem, opts), n_max):
            found.append(ev)
    except EigenvalueNotFound as err:
        note = f"TRUNCATED at n = {err.index}: {err}"
    return Spectrum(problem.content_hash(), tuple(found), n_max, truncation_note=note)


@dataclass(frozen=True)
class WeylFit:
    """Median growth constant of lambda_n / n^2 against the reference pi^2/C^2."""

    fitted: float
    reference: float
    deviation: float


def weyl_fit(spectrum: Spectrum, coeffs: CoefficientSet) -> WeylFit:
    """Fit lambda_n ~ K n^2 (median over the top half of indices) and compare to pi^2/C^2."""
    evs = spectrum.eigenvalues
    if len(evs) < 10:
        raise InsufficientData(
            f"weyl_fit needs at least 10 eigenvalues, got {len(evs)}"
        )
    c = weyl_constant(coeffs)
    reference = (_PI / c) ** 2 if c > 0.0 else math.inf
    half = sorted(ev.value / ev.index**2 for ev in evs if ev.index > len(evs) // 2)
    mid = len(half) // 2
    fitted = half[mid] if len(half) % 2 == 1 else 0.5 * (half[mid - 1] + half[mid])
    deviation = abs(fitted - reference) / reference if math.isfinite(reference) else math.nan
    return WeylFit(fitted=fitted, reference=reference, deviation=deviation)
