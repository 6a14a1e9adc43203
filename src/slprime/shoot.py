"""Exact shooting across piecewise-constant coefficients.

On a piece of width h with constant (s, q, r) and k = lambda*r - q, the
system u' = -s v, v' = k u has the closed-form transfer matrix

    [ c(z)        -s h sigma(z) ]          k h = lambda (r h) - q h,
    [ k h sigma(z)      c(z)    ]          z = (s h)(k h) = s k h^2,

with c(z) = cos(sqrt(z)) and sigma(z) = sin(sqrt(z))/sqrt(z) continued
analytically through z = 0 (hyperbolic for z < 0).  Both kernels are
entire in z, so one formula covers oscillatory, linear and exponential
pieces, for real and complex lambda alike.  The theta-scan keeps r h, q h
and s h per piece, so a piece costs it one multiply-subtract for k h and
one product for z.

The Prufer angle theta is defined by u = rho sin(theta), v = -rho
cos(theta) with theta(a) = alpha; it satisfies

    theta' = s cos^2(theta) + (lambda r - q) sin^2(theta)

and crosses multiples of pi only upward wherever s > 0, which is what
makes eigenvalue counting exact: theta(b) is advanced per piece by the
principal angle difference plus pi times the number of interior zeros
of u, never by blind unwrapping.

A piece holds no zero of u where s = 0 (u is frozen); at most one, seen
as a sign flip of u, where it does not oscillate or the phase of (u, v)
advances by w = sqrt(z) < pi; and where w >= pi, the phase advances by
exactly w and u vanishes at its multiples of pi, which the theta-scan
counts from atan2.

The scan carries (u, v) unnormalised and rescales it when its size
|u| + |v| leaves 1e+-120.  An oscillating piece conserves k u^2 + s v^2
(the energy behind the scaled Prufer method; Pryce, Numerical Solution
of Sturm-Liouville Problems, 1993), so it moves |(u, v)| by a factor of
at most max(sqrt(k/s), sqrt(s/k)), below max(sqrt((|q| + cap r)/s),
100 s h) for |lambda| <= cap since z = (s h)(k h) > 1e-4 there.  Where
those bounds multiply to less than 1e180 over the pieces with s > 0
since the last size test, a state that left it inside 1e+-120 stays
inside 1e+-300.  So the scan tests the size after the pieces that can
move it further (those with s = 0 and the non-oscillating ones) and,
among the oscillating ones, only after a piece past which the next one
could take the product to 1e180 (_scan_records).  A problem whose
bounds multiply to less than 1e180 in all tests no oscillating piece.
No bound holds across a piece with s = 0 or a non-oscillating one: a
large |k h| there can overflow the state before its size test, which
then raises OutOfDomain: theta(b) is not finite.

Between two scanned points the zero count is not needed.  theta(b;
lambda) is non-decreasing in lambda on a right-definite problem, so at
a lambda between two scanned points whose windings differ by at most
one the winding is one of those two.  Since theta(a) = alpha lies in
[0, pi) and u = rho sin theta, u(b) > 0 exactly when the winding is
even.  A scan given the two windings therefore propagates (u, v) with
the same arithmetic and size tests, counts no zeros on any piece, and
takes the winding whose parity the sign of u(b) gives.  Where u(b) is
exactly 0, or where the two windings are equal and u(b) has the other
parity, it repeats itself with counting.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .coeff import SLProblem
from .errors import NotRightDefinite, OutOfDomain

__all__ = [
    "AngleResult",
    "boundary_state",
    "integrate_system_scaled",
    "prufer_angle",
]

# below this |z| the direct formulas lose digits to cancellation; the
# series with terms through z^4 is exact to ~1e-20 there
_SERIES_CUT = 1e-4

_PI = math.pi
_HALF_PI = 0.5 * math.pi

# the decades of growth that oscillating pieces may add up to between two
# size tests: 1e120 from the rescale threshold to 1e300 from overflow
_UNCHECKED_DECADES = 180.0


def boundary_state(alpha: float) -> tuple[float, float]:
    """(u, v) = (sin alpha, -cos alpha), v = -u'/s: the unit state with u cos(alpha) + v sin(alpha) = 0."""
    return math.sin(alpha), -math.cos(alpha)


def _kernel_series(z):
    """Taylor kernels for |z| < 1e-4; truncation error below 1e-20."""
    c = 1.0 + z * (-1.0 / 2 + z * (1.0 / 24 + z * (-1.0 / 720 + z * (1.0 / 40320))))
    sg = 1.0 + z * (-1.0 / 6 + z * (1.0 / 120 + z * (-1.0 / 5040 + z * (1.0 / 362880))))
    return c, sg


def _scaled_piece(s, q, r, lam, h):
    """Transfer matrix across one piece for complex lambda, scaled against overflow.

    Returns (m11, m12, m21, m22, ls) with the true matrix = e^ls * M.
    """
    k = lam * r - q
    z = complex(s * k * h * h)
    w = cmath.sqrt(z)
    m = abs(w.imag)
    if m < 30.0:
        if abs(z) < _SERIES_CUT:
            c, sg = _kernel_series(z)
        else:
            c, sg = cmath.cos(w), cmath.sin(w) / w
        return c, -s * h * sg, k * h * sg, c, 0.0
    # cos w = (e^{iw} + e^{-iw})/2, sin w likewise; factor e^m out so both
    # exponentials have nonpositive real part
    e1 = cmath.exp(1j * w - m)
    e2 = cmath.exp(-1j * w - m)
    c = 0.5 * (e1 + e2)
    sg = (-0.5j * (e1 - e2)) / w
    return c, -s * h * sg, k * h * sg, c, m


def _propagate_scaled(widths, svals, qvals, rvals, lam, u, v):
    """Normalized propagation of (u, v); returns (u, v, log_scale), true state e^log_scale (u, v)."""
    ls = 0.0
    for h, s, q, r in zip(widths, svals, qvals, rvals):
        m11, m12, m21, m22, piece_ls = _scaled_piece(s, q, r, lam, h)
        u, v = m11 * u + m12 * v, m21 * u + m22 * v
        ls += piece_ls
        n = max(abs(u), abs(v))
        if n > 0.0:
            u /= n
            v /= n
            ls += math.log(n)
    return u, v, ls


def integrate_system_scaled(problem: SLProblem, lam):
    """Propagate the left boundary state from a to b: (u, v, log_scale), u and v complex.

    Works for real and complex lambda.  The true terminal state is
    e^log_scale (u, v); use the log form directly when |lambda| is large
    enough that exp would overflow.  Raises OutOfDomain for a non-finite
    lambda, or when a piece overflows at |lambda|.
    """
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise OutOfDomain(f"integrate_system_scaled needs finite lambda, got {lam!r}")
    u, v = boundary_state(problem.bc.alpha)
    pieces = _solver_pieces(problem, abs(lam), "|lambda|", definite=False)
    return _propagate_scaled(*pieces, lam, complex(u), complex(v))


@dataclass(frozen=True)
class AngleResult:
    """theta(b) together with the number of pi-crossings on (a, b]."""

    theta_b: float
    winding: int


def _scan_records(widths, svals, qvals, rvals, cap):
    """One (r h, q h, s h, check) record per piece: the rows _theta_scan walks at |lambda| <= cap.

    The products are the piece's constants for the whole walk: the scan
    forms k h = lambda (r h) - q h and z = (s h)(k h) from them.  check
    says whether _theta_scan tests the state's size after the piece when
    it oscillates.  A piece with s > 0 can move |(u, v)| by at most
    log10(1 + max(sqrt((|q| + cap r)/s), 100 s h)) decades (see the module
    docstring); those decades add up from the last piece after which the
    size is always tested (one with check set, or with s = 0).  check is
    set on the piece after which the next one would bring the sum to
    _UNCHECKED_DECADES, and on one that brings it there by itself, so that
    an overflow there is refused.  A problem whose pieces stay below it in
    all has no check set.
    """
    records = []
    decades = 0.0  # since the last piece whose size test is certain
    for h, s, q, r in zip(widths, svals, qvals, rvals):
        if s > 0.0:
            grow = math.log10(1.0 + max(math.sqrt((abs(q) + cap * r) / s), 100.0 * s * h))
            if records and not decades + grow < _UNCHECKED_DECADES:
                records[-1] = (*records[-1][:3], True)
                decades = 0.0
            decades += grow
        else:
            decades = 0.0
        # a NaN bound checks too
        records.append((r * h, q * h, s * h, not decades < _UNCHECKED_DECADES))
    return tuple(records)


def _theta_scan(records, state, lam, within=None):
    """Crossing count and terminal angle fraction for real lambda.

    records holds one (r h, q h, s h, check) tuple per piece
    (_scan_records), lambda within their cap; state is the (u, v) of
    boundary_state at a.  A spectrum walk derives both once per problem.
    Returns (winding, frac, u, v) with theta(b) = winding*pi + frac and
    (u, v) the (rescaled) terminal state.  The angle is exact mod pi at
    every breakpoint because frac always comes from the state itself.
    Each piece forms k h = lambda (r h) - q h and z = (s h)(k h), and
    uses k h wherever the transfer matrix has it.
    The state's size is tested after a piece with s h = 0, a
    non-oscillating piece, and an oscillating one whose record has check
    set; a test that finds it overflowed (inf or NaN) raises OutOfDomain.

    A piece's zeros are counted after its transfer: none where s h = 0;
    at most one, where u flips sign, on a non-oscillatory piece or one
    with w = sqrt(z) < pi; and where w >= pi, by the floor of the phase
    psi = atan2(w u, -s h v), which advances by exactly w and is a
    multiple of pi where u vanishes.  psi starts in the sector (0 or -1,
    in units of pi) that the sign of u just inside the piece gives, not
    the one the rounded atan2 gives: psi0 can round onto pi while u > 0.
    Roundoff can still mis-bin a zero that falls on a piece boundary; the
    count is then off by one, which would shift theta by a whole pi.  Its
    parity must match the sign flip of u, so a mismatch is adjusted by
    +-1, the direction chosen by which side of a pi-multiple the phase
    ended on.

    within = (w_lo, w_hi), w_hi - w_lo <= 1, holds the windings of two
    scans on either side of lambda; no piece's zeros are then counted,
    the winding is read from the sign of u(b) as the module docstring
    says, and frac, u and v are unchanged.
    The two readings agree wherever the computed theta(b) is monotone in
    lambda, which fails only where forward shooting loses the solution at b.
    """
    sqrt, cos, sin, atan2, floor = math.sqrt, math.cos, math.sin, math.atan2, math.floor
    pi, half_pi, cut = _PI, _HALF_PI, _SERIES_CUT
    u, v = state
    winding = 0
    for rh, qh, sh, check in records:
        kh = lam * rh - qh
        if sh == 0.0:
            # u is frozen on the piece; theta cannot reach a multiple of pi
            v += kh * u
            check = True
        else:
            z = sh * kh
            if z > cut:
                w = sqrt(z)
                cw = cos(w)
                sg = sin(w) / w
                u1 = cw * u - sh * sg * v
                v1 = kh * sg * u + cw * v
            else:
                if z < -cut:
                    w = sqrt(-z)
                    if w > 35.0:
                        # drop the e^w growth factor; only the direction matters
                        e = math.exp(-2.0 * w)
                        cw = 0.5 * (1.0 + e)
                        sg = 0.5 * (1.0 - e) / w
                    else:
                        cw = math.cosh(w)
                        sg = math.sinh(w) / w
                else:
                    cw, sg = _kernel_series(z)
                u1 = cw * u - sh * sg * v
                v1 = kh * sg * u + cw * v
                if u1 == 0.0 and v1 == 0.0:
                    # the incoming state lay on the decaying direction and the
                    # e^w parts cancelled exactly (only possible when z < 0);
                    # redo the piece with e^w factored out so the e^{-2w}
                    # remainder keeps the state off (0, 0)
                    a = sh / w
                    b = kh / w
                    e = math.exp(-2.0 * w)
                    u1 = (u - a * v) + e * (u + a * v)
                    v1 = (b * u + v) + e * (v - b * u)
                    if u1 == 0.0 and v1 == 0.0:
                        # e underflowed (w > ~370): the e^{-w} part alone
                        # gives the direction
                        u1, v1 = u + a * v, v - b * u
                check = True
            if within is None:
                # up is the sign of u just inside the piece; at u == 0 that
                # of u'(0+) = -s v
                up = u > 0.0 or (u == 0.0 and v < 0.0)
                if z > cut and w >= pi:
                    # psi advances exactly linearly (by w) and u = 0 iff psi
                    # is a multiple of pi, so crossings are a floor count
                    psi0 = atan2(w * u, -sh * v)
                    sector = 0 if up else -1
                    if not up and psi0 > 0.0:
                        # u = +0 with v > 0: atan2 gives +pi for the sector's -pi
                        psi0 -= 2.0 * pi
                    psi1 = psi0 + w
                    f1 = floor(psi1 / pi)
                    end_frac = psi1 - pi * f1
                    if u1 != 0.0:
                        zc = f1 - sector
                        end_up = u1 > 0.0
                    else:
                        # zero exactly at the right end: it belongs to this
                        # piece, and the sign just before it is that of v1
                        zc = f1 - sector - 1
                        end_up = v1 > 0.0
                    if (up != end_up) == (zc % 2 == 0):
                        zc += 1 if end_frac > half_pi else -1
                        if zc < 0:
                            zc += 2
                    if u1 == 0.0:
                        zc += 1
                    winding += zc
                elif u1 == 0.0 or up != (u1 > 0.0):
                    # at most one zero in (0, h], seen as a sign flip
                    winding += 1
            u, v = u1, v1
        if check:
            n = abs(u) + abs(v)
            if n > 1e120 or not n >= 1e-120:
                if not n < math.inf:  # inf or NaN: the state overflowed
                    raise OutOfDomain(
                        f"theta(b) at lambda {lam!r} is not finite: the terminal state "
                        "overflowed the theta-scan on these coefficients"
                    )
                u /= n
                v /= n
    if within is not None:
        # u(b) > 0 for an even winding, < 0 for an odd one
        w_lo, w_hi = within
        winding = w_lo if (w_lo & 1) == (u < 0.0) else w_hi
        if u == 0.0 or (winding & 1) != (u < 0.0):
            return _theta_scan(records, state, lam)
    if u == 0.0:
        # the zero at b is already in the winding; atan2(+0, -v) would
        # read pi for u = +0 with v > 0 and add a second pi
        return winding, 0.0, u, v
    raw = atan2(u, -v)
    # map into [0, pi]; raw can round to exactly +-pi when u(b) is a few
    # ulp from zero, and a floor-based mod would then steal a whole pi
    frac = raw + pi if raw < 0.0 else raw
    return winding, frac, u, v


def _solver_pieces(problem: SLProblem, cap: float, at: str = "lambda_cap", definite: bool = True):
    """(widths, s, q, r), refusing a piece whose kernels overflow for some |lambda| <= cap.

    definite, the theta-scan's case (theta(b) must also locate
    eigenvalues): its records hold s h, r h and q h, and on a piece
    |lambda (r h) - q h| <= cap (r h) + |q h|, so k h and z = (s h)(k h)
    stay finite where s h, r h, |q| h, cap (r h) + |q| h and s h times
    that sum do.  Rounding is monotone, so these bound the scan's own
    products exactly; an inf or NaN among them carries into the last,
    which is the one tested.  Otherwise, the complex propagator's case:
    z = s k h^2, k h and s h with |lambda r - q| <= |q| + cap r.  `at`
    names cap in the message.
    """
    widths, svals, qvals, rvals = problem.coeffs.piece_arrays()
    if definite and not any(v > 0.0 for v in svals):
        raise NotRightDefinite("s vanishes identically; u cannot oscillate")
    if definite and not any(v > 0.0 for v in rvals):
        raise NotRightDefinite("r vanishes identically; theta(b) does not depend on lambda")
    sym = "cap" if at == "lambda_cap" else at
    for i, (h, s, q, r) in enumerate(zip(widths, svals, qvals, rvals)):
        # NaN (an infinite width times a zero) fails these tests too
        if definite:
            if s * h * (cap * (r * h) + abs(q) * h) < math.inf:
                continue
            needed = f"s h, r h, |q| h, {sym} r h + |q| h and s h ({sym} r h + |q| h)"
        else:
            k = abs(q) + cap * r
            if s * k * h * h < math.inf and k * h < math.inf and s * h < math.inf:
                continue
            needed = f"s h^2 (|q| + {sym} r), h (|q| + {sym} r) and s h"
        x0, x1 = problem.coeffs.breakpoints[i : i + 2]
        raise OutOfDomain(
            f"piece {i} on [{x0!r}, {x1!r}] overflows the "
            f"{'theta-scan' if definite else 'propagator'} at {at} {cap:g}: {needed} must be finite"
        )
    return widths, svals, qvals, rvals


def prufer_angle(problem: SLProblem, lam: float) -> AngleResult:
    """theta(b; lambda) for real lambda on a right-definite problem.

    Raises NotRightDefinite when s or r vanishes identically: the angle
    is still defined then, but it can no longer locate eigenvalues (theta
    would be frozen or lambda-independent).  Raises OutOfDomain when a
    piece, or the state carried across the pieces, overflows at lambda.
    """
    if isinstance(lam, complex) or not math.isfinite(lam):
        raise OutOfDomain(f"prufer_angle needs real finite lambda, got {lam!r}")
    cap = abs(lam)
    records = _scan_records(*_solver_pieces(problem, cap, "|lambda|"), cap)
    winding, frac, _, _ = _theta_scan(records, boundary_state(problem.bc.alpha), lam)
    return AngleResult(theta_b=winding * _PI + frac, winding=winding)
