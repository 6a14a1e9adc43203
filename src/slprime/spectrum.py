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
import sys
from dataclasses import dataclass, fields
from typing import ClassVar

from .coeff import SLProblem, _as_float, weyl_constant
from .errors import BadConfig, EigenvalueNotFound, OutOfDomain, _check_index, _named
from .shoot import _scan_records, _solver_pieces, _theta_scan, boundary_state

__all__ = [
    "SolverOptions",
    "Eigenvalue",
    "Spectrum",
    "eigenvalue",
    "compute_spectrum",
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


def _not_found(n: int, beta: float, cap: float, up: bool) -> EigenvalueNotFound:
    """Index n's refusal: theta(b) stays below (up) or above its target angle out to the cap."""
    target = beta + (n - 1) * _PI if n - 1 <= sys.float_info.max else _INF
    return EigenvalueNotFound(
        f"theta(b) stays below the target angle {target:.6g} up to the lambda cap {cap:g}; "
        f"no eigenvalue n = {_named(n)}" if up else f"no lambda above -{cap:g} brings theta(b) "
        f"below the target angle {target:.6g} for n = {_named(n)}", index=n, cap=cap)


def eigenvalue(
    problem: SLProblem, n: int, opts: SolverOptions = DEFAULT_OPTIONS, _carry: tuple | None = None
) -> Eigenvalue:
    """n-th eigenvalue (n >= 1) by bracket expansion + Chandrupatla's method on theta(b).

    Stops once the bracket is within max(lambda_tol_abs, lambda_tol_rel
    |lambda|) and |theta(b) - target| <= angle_tol at one of its ends, or
    once no float lies strictly inside it (or after 300 steps), and
    returns the bracket end with the smaller |theta(b) - target| as value
    and residual: that is at most angle_tol unless the ends are adjacent
    floats or the steps ran out.  Raises OutOfDomain for an n that is not
    an integer >= 1 (a bool is not one), and for a problem whose
    theta-scan could overflow below lambda_cap, or does; EigenvalueNotFound
    for an n whose target angle, past the float range, no theta(b) reaches.

    _carry is _ascending's walk state on the same problem and options:
    (_scannable_pieces at lambda_cap, the scan points of index n - 1),
    whose points are read here for index n.  The list is then refilled
    with this index's points that lie at or above the final bracket's
    top: first its starts (the carried ends re-read for n, lower then
    upper), then its scans in the order they were made.  A call without
    _carry checks n, builds its own pieces and starts cold; the walk's
    indices are its own, so it checks none.
    """
    if _carry is None:
        _check_index("eigenvalue index", n)
        pieces, carried = _scannable_pieces(problem, opts.lambda_cap), ()
        if n - 1 > sys.float_info.max:  # no scan's f could be formed
            raise _not_found(n, problem.bc.beta, opts.lambda_cap, True)
    else:
        pieces, carried = _carry
    records, state, weyl_c, shift = pieces
    alpha, beta = problem.bc.alpha, problem.bc.beta
    scanned = []

    def scan(lam: float, w_lo: int | None, w_hi: int | None):
        # w_lo and w_hi: windings of scanned points on either side of lam,
        # which bound the one at lam (_theta_scan); None for a side with none
        within = None
        if w_lo is not None and w_hi is not None:
            if w_lo > w_hi:
                w_lo, w_hi = w_hi, w_lo
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
        lo = _point(lo[0], lo[3], lo[4], lo[5], beta, n)
    if hi is not None:
        hi = _point(hi[0], hi[3], hi[4], hi[5], beta, n) if lo is None or hi[0] > lo[0] else None
    starts = (lo, hi)

    cap = opts.lambda_cap
    if weyl_c == 0.0:
        guess = float(n * n) if n < 1e154 else _INF  # clamped as x^2 is below
    else:
        # theta advances by beta - alpha + (n - 1) pi; for Dirichlet ends the
        # factor is exactly n, for alpha > beta it is negative at n = 1.
        # x^2 overflows once |x| passes ~1.3e154: clamp it
        x = (n - 1 + (beta - alpha) / _PI) * _PI / weyl_c
        guess = (x**2 if -1e154 < x < 1e154 else _INF) + shift
    if guess > cap:
        guess = cap
    elif guess < -cap:
        guess = -cap

    # expand away from the guess (or the carried end it lies beyond),
    # doubling the step, until the target angle is bracketed: upward while
    # theta(b) < target, downward otherwise, never past a carried end
    if lo is not None and guess <= lo[0]:
        near = lo
    elif hi is not None and guess >= hi[0]:
        near = hi
    else:
        near = scan(guess, None if lo is None else lo[3], None if hi is None else hi[3])
    up = near[1] < 0.0
    end = hi if up else lo
    w_end = None if end is None else end[3]
    origin = near[0]
    wide = 0.05 * origin if origin >= 0.0 else -0.05 * origin
    if wide < 1.0:
        wide = 1.0
    step = wide
    tol_abs, tol_rel, angle_tol = opts.lambda_tol_abs, opts.lambda_tol_rel, opts.angle_tol
    if -angle_tol <= near[1] <= angle_tol:
        # the start already meets the angle test: a probe half a tolerance
        # away brackets the root whenever it is that close, and one that
        # does not costs a scan, not a bracket closed from wide onto tol
        step = 0.5 * max(tol_abs, tol_rel * abs(origin))
    while True:
        x = origin + step if up else origin - step
        if end is not None and (x >= end[0] if up else x <= end[0]):
            far = end
            break
        if up:
            if x > cap:
                x = cap
        elif x < -cap:
            x = -cap
        far = scan(x, near[3], w_end)
        if (far[1] >= 0.0) == up:
            break
        # a clamped point sits at the cap on its own side of the guess
        if abs(far[0]) >= cap:
            raise _not_found(n, beta, cap, up)
        near = far
        # back to wide after the probe, then doubling
        step = 2.0 * step if 2.0 * step > wide else wide
    lo, hi = (near, far) if up else (far, near)

    # Chandrupatla on f = theta(b) - target, interpolating on h: a is the
    # newest point, b the other end of the bracket, c the one dropped last,
    # each held as scalars (x, f, h, winding; c needs only x and h).
    # The next point a + t (b - a) stays tol/2 from either end while the
    # bracket is wider than tol, and strictly inside it after that.
    if abs(lo[2]) < abs(hi[2]):
        xa, fa, ha, wa, _, _ = lo
        xb, fb, hb, wb, _, _ = hi
    else:
        xa, fa, ha, wa, _, _ = hi
        xb, fb, hb, wb, _, _ = lo
    t = ha / (ha - hb)
    for _ in range(300):
        w = xb - xa
        tol = tol_rel * xa if xa > 0.0 else -tol_rel * xa
        if tol < tol_abs:
            tol = tol_abs
        tlim = 0.5 * tol / (w if w > 0.0 else -w)
        if tlim >= 0.5:
            if -angle_tol <= fa <= angle_tol or -angle_tol <= fb <= angle_tol:
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
        _, fp, hp, wp, _, _ = scan(x, wa, wb)
        if (fp >= 0.0) == (fa >= 0.0):
            xc, hc = xa, ha
        else:
            xc, hc = xb, hb
            xb, fb, hb, wb = xa, fa, ha, wa
        xa, fa, ha, wa = x, fp, hp, wp
        xi = (xa - xb) / (xc - xb)
        phi = (ha - hb) / (hc - hb)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = ha / (hb - ha) * hc / (hb - hc) + (
                (xc - xa) / (xb - xa) * ha / (hc - ha) * hb / (hc - hb)
            )
        else:
            t = 0.5

    if _carry is not None:
        # a point below the bracket cannot bound index n + 1 more tightly than it
        top = xa if xa > xb else xb
        carried.clear()
        for p in starts:
            if p is not None and p[0] >= top:
                carried.append(p)
        for p in scanned:
            if p[0] >= top:
                carried.append(p)
    if abs(fa) <= abs(fb):
        return Eigenvalue(n, xa, abs(fa))
    return Eigenvalue(n, xb, abs(fb))


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
    """Eigenvalues 1..n_max; stops early, with a truncation note, once an index has none.

    Raises OutOfDomain for an n_max that is not an integer in 1..sys.maxsize.
    """
    _check_index("n_max", n_max)
    if n_max > sys.maxsize:
        raise OutOfDomain(f"n_max must be at most {sys.maxsize}, got {_named(n_max)}")
    found: list[Eigenvalue] = []
    note = None
    try:
        for ev in itertools.islice(_ascending(problem, opts), n_max):
            found.append(ev)
    except EigenvalueNotFound as err:
        note = f"TRUNCATED at n = {err.index}: {err}"
    return Spectrum(problem.content_hash(), tuple(found), n_max, truncation_note=note)
